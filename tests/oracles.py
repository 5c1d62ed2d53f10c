"""Independent cross-check routes ("oracles") for the production evaluators.

Each function here computes a value that the package also computes along a
production route, by a different method, and returns it as an
:class:`Approx` with its own error bound or estimate.  The tests compare
the two routes.  The module lives with the tests, outside the package:
the test modules import it as ``oracles``.

Multiple zeta values.  Two independent oracles accompany the Hoelder kernel
of :mod:`mzvparity.mzv`: a direct-truncation nested sum in float64 with an
explicit tail bound (:func:`mzv_truncation_oracle`), and an
Euler-Maclaurin corrected depth-1 sum at working precision
(:func:`mzv_em_oracle`).

Hurwitz values.  :func:`eval_hurwitz_taylor` is the literal term-by-term
Taylor route sum_a z^a (shifted value of order a) that cross-checks
``hurwitz.eval_hurwitz_star``; its per-order precision falls with a, and
``mzv`` computes every request below ``mzv._MIN_DPS`` digits at that
precision.  :func:`tau_series` is the series route for the depth-1 generating
value of ``hurwitz.tau_value``.

Multitangents.  :func:`monotangent_symmetric_oracle` sums the monotangent
symmetrically in float64, against the cotangent closed form of
``multitangent.eval_monotangent``, and :func:`multitangent_regularized_series`
is the literal truncated double-sum form of
``multitangent.eval_multitangent_regularized``.

Reductions.  :func:`triple_terms_by_suffix` is exact, not an
:class:`Approx`: it expands the double-index correction sum of
``reduction._triple_terms`` suffix by suffix, the slot sum of each suffix
times its star head, without leaving out the terms that cancel.
"""

from __future__ import annotations

import math
from math import ceil

import numpy as np
from mpmath import mp

from mzvparity.errors import DomainError, NonAdmissibleError
from mzvparity.harmonic import _add_stuffle, _star_ints, as_composition, is_admissible
from mzvparity.hurwitz import _normalize_z, eval_shifted, shifted_tpoly
from mzvparity.mzv import eval_admissible_mzv, eval_tpoly
from mzvparity.precision import Approx, PrecisionContext
from mzvparity.reduction import _slot_sum
from mzvparity.special import bernoulli

__all__ = [
    "eval_hurwitz_taylor",
    "monotangent_symmetric_oracle",
    "multitangent_regularized_series",
    "mzv_em_oracle",
    "mzv_truncation_oracle",
    "tau_series",
    "triple_terms_by_suffix",
]


# ---------------------------------------------------------------------------
# multiple zeta values
# ---------------------------------------------------------------------------


def mzv_truncation_oracle(c, cutoff: int = 1_000_000) -> Approx:
    """Direct nested-sum truncation with an explicit tail bound.

    Sums all chains with the outer index <= cutoff in float64 and bounds
    the tail by ``integral_N^inf (1+ln x)^(d-1) x^(-k_d) dx / (d-1)!``,
    a valid upper bound since the inner chain factor is at most
    ``H_x^(d-1)/(d-1)!``.  Intended for cross-checks, not production use.
    """
    c = as_composition(c)
    if not c or not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible")
    d = len(c)
    n = np.arange(0, cutoff + 1, dtype=np.float64)
    prev = np.ones(cutoff + 1)
    for k in c[:-1]:
        term = np.zeros(cutoff + 1)
        term[1:] = n[1:] ** (-float(k)) * prev[:-1]
        prev = np.cumsum(term)
    term = np.zeros(cutoff + 1)
    term[1:] = n[1:] ** (-float(c[-1])) * prev[:-1]
    value = float(np.sum(term))

    s = c[-1] - 1
    L = math.log(cutoff)
    p = d - 1
    tail = 0.0
    for i in range(p + 1):
        tail += (s * (1.0 + L)) ** i / math.factorial(i)
    tail *= math.exp(-s * L) / s ** (p + 1)
    fp_slack = 1e-12 * (1.0 + abs(value)) * math.sqrt(d)
    return Approx(mp.mpf(value), mp.mpf(tail + fp_slack))


def mzv_em_oracle(k: int, ctx: PrecisionContext, cutoff: int = 0) -> Approx:
    """Depth-1 zeta via direct summation plus Euler-Maclaurin tail.

    Independent high-precision oracle for zeta(k), k >= 2: sums to the
    cutoff and corrects with the standard Bernoulli tail; the returned
    bound is the first omitted correction term.
    """
    if k < 2:
        raise NonAdmissibleError("depth-1 oracle needs k >= 2")
    wp = ctx.working_dps + 10
    with mp.workdps(wp):
        N = cutoff if cutoff else max(80, ctx.working_dps)
        total = mp.mpf(0)
        for n in range(1, N):
            total += mp.mpf(n) ** (-k)
        Nf = mp.mpf(N)
        total += Nf ** (1 - k) / (k - 1) + Nf ** (-k) / 2
        rising = mp.mpf(k)  # (k)_1
        term = mp.mpf(0)
        j = 1
        while True:
            b = bernoulli(2 * j)
            term = (
                mp.mpf(b.numerator)
                / b.denominator
                / mp.factorial(2 * j)
                * rising
                * Nf ** (-(k + 2 * j - 1))
            )
            if abs(term) < mp.mpf(10) ** (-(wp + 5)) or j > 60:
                break
            total += term
            rising *= (k + 2 * j - 1) * (k + 2 * j)
            j += 1
        return Approx(+total, abs(term) + mp.mpf(10) ** (-(wp - 2)))


# ---------------------------------------------------------------------------
# Hurwitz values
# ---------------------------------------------------------------------------


def tau_series(z, T_value, ctx: PrecisionContext) -> Approx:
    """Series route for the same value: T + sum_{a>=1} (-z)^a zeta(a+1)."""
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        zabs = abs(zv)
        if zabs >= 1:
            raise DomainError("the depth-1 generating series needs |z| < 1")
        if zabs == 0:
            return Approx(mp.mpmathify(T_value), mp.mpf(0))
        A = int(mp.ceil((wp + 4) / -mp.log10(zabs))) + 4
        total = mp.mpmathify(T_value)
        zp = mp.mpf(1)
        for a in range(1, A + 1):
            zp = zp * (-zv)
            total += zp * eval_admissible_mzv((a + 1,), ctx, dps=wp).value
        tail = mp.zeta(2) * zabs ** (A + 1) / (1 - zabs)
        return Approx(total, tail + mp.mpf(10) ** (-(wp - 4)))


_TAYLOR_SLACK = 10  # extra digits asked of the Taylor route's truncation order


def eval_hurwitz_taylor(c, z, ctx: PrecisionContext, T_value=None) -> Approx:
    """Term-by-term Taylor route: sum_a z^a (shifted value of order a).

    Enforced radius |z| <= 1/2; for non-admissible indices a T value is
    required.  The truncation order adapts to the observed coefficient
    sizes, capped by the context policy, and the returned bound is the
    geometric tail estimate C |z|^(A+1) / (1 - |z|) with an empirical C.
    """
    c = as_composition(c)
    if not c:
        raise NonAdmissibleError("empty index")
    if not is_admissible(c) and T_value is None:
        raise NonAdmissibleError(
            f"{c!r} is not admissible: the Taylor route needs an explicit T value"
        )
    T = 0 if T_value is None else T_value
    wp = ctx.working_dps + 6
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        zabs = abs(zv)
        if zabs > mp.mpf("0.5") * (1 + mp.mpf(10) ** -12):
            raise DomainError("the Taylor route is restricted to |z| <= 1/2")
        if zabs == 0:
            return eval_shifted(c, 0, T, ctx)
        log10_inv = float(-mp.log10(zabs))
        A = ceil((ctx.digits + _TAYLOR_SLACK) / log10_inv)
        target = mp.mpf(10) ** (-(ctx.digits + 2))
        total = mp.mpf(0) if isinstance(zv, mp.mpf) else mp.mpc(0)
        coeff_bound_acc = mp.mpf(0)
        zp = mp.mpf(1)
        recent: list = []
        a_stop = A
        for a in range(A + 1):
            dps_a = max(8, ctx.digits + 4 - int(a * log10_inv))
            cv = eval_tpoly(shifted_tpoly(c, a), T, ctx, dps=dps_a)
            total = total + zp * cv.value
            coeff_bound_acc += abs(zp) * cv.bound
            zp = zp * zv
            recent.append(abs(cv.value))
            if len(recent) > 3:
                recent.pop(0)
            if a >= 6 and max(recent) * zabs ** (a + 1) / (1 - zabs) < target:
                a_stop = a
                break
        C = max(max(recent), mp.mpf(1)) * 4
        tail = C * zabs ** (a_stop + 1) / (1 - zabs)
        return Approx(total, tail + coeff_bound_acc)


# ---------------------------------------------------------------------------
# multitangents
# ---------------------------------------------------------------------------


def monotangent_symmetric_oracle(s: int, z, cutoff: int = 100_000) -> Approx:
    """Symmetric partial sums of Psi_s plus midpoint-integral tail estimates.

    Convergent for s >= 2; float64 precision, intended as an independent
    cross-check of the closed form.
    """
    if s < 2:
        raise ValueError("the symmetric series oracle needs s >= 2")
    zc = complex(z)
    if abs(zc.imag) == 0 and abs(zc.real - round(zc.real)) < 1e-12:
        raise DomainError("multitangent functions have poles at integer z")
    M = cutoff
    m = np.arange(-M, M + 1, dtype=np.float64)
    vals = (zc + m) ** (-s)
    total = complex(np.sum(vals))
    # one-sided tails by the midpoint rule
    total += (zc + M + 0.5) ** (1 - s) / (s - 1)
    total += (-1) ** s * (M + 0.5 - zc) ** (1 - s) / (s - 1)
    err = s / 12.0 * (M - abs(zc)) ** (-s - 1) * 2 + 5e-13 * abs(zc) ** (-s)
    return Approx(mp.mpmathify(total), mp.mpf(err))


def multitangent_regularized_series(
    c, z, T_value, ctx: PrecisionContext, order: int = 16
) -> Approx:
    """Literal truncated double-sum form of the regularized multitangent.

    Sums z^(a+b) (and z^(a+b-k_j) for the gap terms) against numeric shifted
    values, truncated at a + b <= order with a geometric tail estimate.
    Slow; used to cross-check the production evaluator on small indices.
    """
    c = as_composition(c)
    if not c:
        raise ValueError("multitangent needs a nonempty index")
    wp = ctx.working_dps + 6
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        zabs = abs(zv)
        if zabs == 0 or zabs > mp.mpf("0.5") * (1 + mp.mpf(10) ** -12):
            raise DomainError("the series form is evaluated for 0 < |z| <= 1/2")
        d = len(c)
        prefix = [0] * (d + 1)
        for i in range(d):
            prefix[i + 1] = prefix[i] + c[i]
        total = mp.mpc(0)
        max_coeff = mp.mpf(1)
        for j in range(d + 1):
            rev_head = c[:j][::-1]
            tail = c[j:]
            base_sign = -1 if prefix[j] % 2 else 1
            for a in range(order + 1):
                va = eval_shifted(rev_head, a, T_value, ctx)
                if va.value == 0:
                    continue
                for b in range(order + 1 - a):
                    vb = eval_shifted(tail, b, T_value, ctx)
                    if vb.value == 0:
                        continue
                    sign = base_sign if a % 2 == 0 else -base_sign
                    total += sign * zv ** (a + b) * va.value * vb.value
                    max_coeff = max(max_coeff, abs(va.value * vb.value))
        for j in range(1, d + 1):
            rev_head = c[: j - 1][::-1]
            tail = c[j:]
            base_sign = -1 if prefix[j - 1] % 2 else 1
            for a in range(order + 1):
                va = eval_shifted(rev_head, a, T_value, ctx)
                if va.value == 0:
                    continue
                for b in range(order + 1 - a):
                    vb = eval_shifted(tail, b, T_value, ctx)
                    if vb.value == 0:
                        continue
                    sign = base_sign if a % 2 == 0 else -base_sign
                    total += sign * zv ** (a + b - c[j - 1]) * va.value * vb.value
                    max_coeff = max(max_coeff, abs(va.value * vb.value))
        tail_est = 4 * max_coeff * (order + 2) * zabs ** (order + 1) / (1 - zabs)
        if (not isinstance(total, mp.mpc)) or total.imag == 0:
            total = total.real if isinstance(total, mp.mpc) else total
        return Approx(total, tail_est)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def triple_terms_by_suffix(w: int, grades: dict) -> None:
    """The per-suffix form of ``reduction._triple_terms(w, grades)``.

    For every suffix c[i:] of the index w, 0 <= i < d, adds its even slot
    sum (``reduction._slot_sum``) times the star head star(c[:i]) and the
    sign (-1)^(i + k_1 + ... + k_i) to ``grades[s]``.  The suffix is
    w below its (i+1)-th highest 1 bit, that bit included, and the head is
    w above it.  Every product is computed, also the a = 0 terms of the
    slots after the first, whose sum over i cancels.
    """
    suffix = w
    for i in range(w.bit_count()):
        n = suffix.bit_length()
        h = -1 if (i + w.bit_length() - n) % 2 else 1
        head = _star_ints(w >> n)
        for s, words in _slot_sum(suffix).items():
            _add_stuffle(grades.setdefault(s, {}), head, words, h)
        suffix ^= 1 << (n - 1)
