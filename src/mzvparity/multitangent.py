"""Monotangent and multitangent functions.

Monotangents are the doubly infinite depth-1 sums sum_{m in Z} (z+m)^(-s);
they have closed forms as polynomials in cot(pi z).  Multitangents are the
doubly infinite nested sums; the direct evaluator truncates them
symmetrically and streams the range of the summation index through
fixed-size numpy blocks, carrying each level's running sum from block to
block, while the regularized evaluator splits the summation chain
at the sign change and assembles the value from regularized Hurwitz
generating values at z and -z.  Monotangent values are kept in a bounded
cache per (order, point, working precision), which
:func:`mzvparity.clear_caches` empties.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, log

import numpy as np
from mpmath import mp

from .errors import DomainError
from .harmonic import _is_int, as_composition, splits
from .hurwitz import eval_hurwitz_star, _normalize_z
from .mzv import _fraction_to_mp
from .precision import Approx, PrecisionContext

__all__ = [
    "eval_monotangent",
    "eval_multitangent_direct",
    "eval_multitangent_regularized",
]


def _mono_poly(s: int) -> tuple:
    """Coefficients of Q_s with Psi_s(z) = pi^s Q_s(cot(pi z)).

    Recursion via Psi_{n+1} = -(1/n) dPsi_n/dz and (cot)' = -pi (1+cot^2):
    Q_{n+1}(x) = Q_n'(x) (1+x^2) / n, from Q_1(x) = x.
    """
    zero = [Fraction(0)] * 2
    q = (Fraction(0), Fraction(1))
    for n in range(1, s):
        dq = [c * i for i, c in enumerate(q)][1:]
        q = tuple((a + b) / n for a, b in zip(dq + zero, zero + dq))
    return q


def eval_monotangent(s: int, z, ctx: PrecisionContext) -> Approx:
    """Psi_s(z) = sum_{m in Z} (z+m)^(-s) via the cotangent closed form.

    For s = 1 the symmetric (Eisenstein) summation pi*cot(pi z) is used.
    """
    if not _is_int(s, 1):
        raise ValueError(f"monotangent order must be an int >= 1, got {s!r}")
    wp = ctx.working_dps + 10
    return _monotangent(s, _normalize_z(z, wp), wp)


def _check_no_integer_pole(zv, wp: int) -> None:
    """DomainError at a real z within 10^-(wp-5) of an integer, a pole of
    every multitangent; zv is normalized (an mpc has a nonzero imaginary part)."""
    with mp.workdps(wp):
        if not isinstance(zv, mp.mpc) and abs(zv - mp.nint(zv)) < mp.mpf(10) ** (-(wp - 5)):
            raise DomainError("multitangent functions have poles at integer z")


@lru_cache(maxsize=256)
def _monotangent(s: int, zv, wp: int) -> Approx:
    """Psi_s(z) at wp digits, computed once per (s, point, wp)."""
    _check_no_integer_pole(zv, wp)
    with mp.workdps(wp):
        x = mp.cot(mp.pi * zv)
        poly = _mono_poly(s)
        acc = mp.mpf(0)
        for ci in reversed(poly):
            acc = acc * x + _fraction_to_mp(ci)
        val = mp.pi**s * acc
        return Approx(val, mp.mpf(10) ** (-(wp - 6)) * (1 + abs(val)))


_DIRECT_CUTOFF = 100_000  # symmetric cutoff M of the direct sums
# Entries of -M < m <= M per block of the direct sums: a level's block
# arrays (64 KiB real, 128 KiB complex) stay in cache.
_DIRECT_BLOCK = 8192


def _inverse(z: complex, m: np.ndarray) -> np.ndarray:
    """1/(z+m) over the float64 integers m: real at a real z, and at a
    complex z built from the real arrays x/|z+m|^2 and -y/|z+m|^2."""
    if not z.imag:
        return 1.0 / (z.real + m)
    x = z.real + m
    d = x * x + z.imag * z.imag
    inv = np.empty(len(m), dtype=np.complex128)
    inv.real = x / d
    inv.imag = -z.imag / d
    return inv


@np.errstate(all="ignore")  # a sum that leaves the double range is returned as it is
def eval_multitangent_direct(c, z, ctx: PrecisionContext) -> Approx:
    """Truncated doubly infinite nested sum over -M < m_1 < ... < m_d <= M,
    with M = :data:`_DIRECT_CUTOFF`.

    Requires first and last part >= 2 (absolute convergence), and z off
    the integers by the monotangents' rule.  float64 precision with a
    stated O(M^(1-min(k_1,k_d))) tail estimate, infinite or NaN where it
    leaves the double range; for low-precision cross-checks only.  The
    range of m is walked in blocks of :data:`_DIRECT_BLOCK` entries, with
    float64 arithmetic at a real z and complex128 otherwise.  Level j's
    partial sums are
    S_j(m) = S_j(m - 1) + S_{j-1}(m - 1) (z+m)^(-k_j), with S_0 = 1: each
    level carries its running sum from block to block, added into the
    block's first term before the cumulative sum, so the sums are
    accumulated in order, m by m, and only a few block arrays are live.
    """
    c = as_composition(c)
    if not c or c[0] < 2 or c[-1] < 2:
        raise DomainError(
            "direct multitangent sums need first and last part >= 2"
        )
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    _check_no_integer_pole(zv, wp)
    zc = complex(zv)
    M = _DIRECT_CUTOFF
    running = [0.0] * len(c)  # S_j at the last m of the previous block
    for start in range(-M + 1, M + 1, _DIRECT_BLOCK):
        inv = _inverse(zc, np.arange(start, min(start + _DIRECT_BLOCK, M + 1), dtype=np.float64))
        # (z+m)^(-k) once per distinct part k of the index
        powers, pk = {}, 1.0
        for k in range(1, max(c) + 1):
            pk = pk * inv
            if k in c:
                powers[k] = pk
        prev = None  # level j - 1's sums S_{j-1}(m) over the block
        for j, k in enumerate(c):
            p = powers[k]
            if prev is None:  # S_0 = 1
                term = p.copy()
            else:  # S_{j-1}(m - 1) (z+m)^(-k), the first from the carried sum
                term = np.empty_like(p)
                term[0] = carried * p[0]
                np.multiply(prev[:-1], p[1:], out=term[1:])
            carried = running[j]
            term[0] += carried
            np.cumsum(term, out=term)
            running[j] = term[-1]
            prev = term
    value = complex(running[-1])

    # Chains escape past +-M through the first or the last slot; the
    # complementary chain factor is estimated by the full one-slot sums,
    # which can be as large as |z|^(-k) near m = 0 plus a log factor for
    # slots with exponent 1.
    logf = 4.0 * log(2 * M + 1)
    zabs = abs(zc)

    def _side_estimate(k_escape: int, others: tuple) -> float:
        prod = 1.0
        for k in others:
            prod *= zabs ** (-k) + logf
        return (M - zabs) ** (1 - k_escape) / (k_escape - 1) * prod

    try:
        est = _side_estimate(c[0], c[1:]) + _side_estimate(c[-1], c[:-1])
        bound = est + 1e-11 * (1 + abs(value))
    except OverflowError:  # |z|^(-k) or |value| beyond the double range
        bound = inf
    return Approx(mp.mpmathify(value), mp.mpf(bound))


def eval_multitangent_regularized(c, z, T_value, ctx: PrecisionContext) -> Approx:
    """Regularized multitangent via the split-at-zero decomposition.

    Splits the summation chain at the sign change: negative indices give a
    reversed-index generating value at -z, positive indices one at z, and
    a chain passing through a single gap contributes z^(-k_j).  All factors
    are regularized Hurwitz generating values, so no admissibility is
    required; defined for 0 < |z| <= 1/2, which the first of them checks.
    """
    c = as_composition(c)
    if not c:
        raise ValueError("multitangent needs a nonempty index")
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        if zv == 0:
            raise DomainError("z = 0 is a pole of the multitangent")
        total = mp.mpc(0)
        bound = mp.mpf(0)

        # the 2d + 1 splits share d + 1 heads at -z and d + 1 tails at z
        heads = [eval_hurwitz_star(c[:i][::-1], -zv, T_value, ctx) for i in range(len(c) + 1)]
        tails = [eval_hurwitz_star(c[i:], zv, T_value, ctx) for i in range(len(c) + 1)]
        # a cut (k = 0) has the exact gap factor z^0 = 1
        for rev_head, k, tail, sign in splits(c):
            left = heads[len(rev_head)]
            right = tails[len(c) - len(tail)]
            gap = zv ** (-k)
            total += sign * left.value * right.value * gap
            bound += abs(gap) * (
                abs(left.value) * right.bound + abs(right.value) * left.bound
            )
        if total.imag == 0:  # total is an mpc
            total = total.real
        return Approx(total, bound + mp.mpf(10) ** (-(wp - 8)))
