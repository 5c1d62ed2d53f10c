"""Numeric evaluation of multiple zeta values and of exact expressions.

The production evaluator rewrites an admissible index as an iterated
integral over words in two letters and splits the integration path at 1/2;
both halves become nested power series at 1/2 whose terms shrink like
2^(-n), so a few hundred terms give dozens of digits for any weight.  Two
independent oracles accompany it: a direct-truncation nested sum with an
explicit tail bound, and an Euler-Maclaurin corrected depth-1 sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp

from .errors import NonAdmissibleError
from .harmonic import Composition, as_composition, is_admissible
from .precision import Approx, PrecisionContext
from .reduction import PiGradedExpr
from .regularization import TPoly
from .special import PiTerm, bernoulli

__all__ = [
    "eval_admissible_mzv",
    "eval_pigraded",
    "eval_piterm",
    "eval_tpoly",
    "eval_word_combo",
    "mzv_em_oracle",
    "mzv_truncation_oracle",
]

_LOG2_10 = math.log(10.0) / math.log(2.0)

# best value computed so far per composition: comp -> (dps, mpf)
_MZV_CACHE: dict = {}
_FLOAT_DPS = 14


def _word_bits(c: Composition) -> tuple:
    """Two-letter word of an index, bottom (innermost summation) first."""
    bits = []
    for k in c:
        bits.append(1)
        bits.extend([0] * (k - 1))
    return tuple(bits)


def _bits_to_blocks(bits: tuple) -> Composition:
    """Parse a word (starting with letter 1) into a nested-series index."""
    parts = []
    for b in bits:
        if b:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


_POLYLOG_MP_CACHE: dict = {}
_POW_TABLE_CACHE: dict = {}


def _pow_table(expo: int, M: int, prec: int):
    key = (expo, M, prec)
    tab = _POW_TABLE_CACHE.get(key)
    if tab is None:
        tab = [mp.mpf(0)] * (M + 1)
        for n in range(1, M + 1):
            tab[n] = mp.mpf(n) ** (-expo)
        _POW_TABLE_CACHE[key] = tab
    return tab


def _polylog_half_mp(blocks: Composition, M: int):
    """sum over m_1 < ... < m_r <= M of 2^(-m_r) prod m_i^(-c_i)."""
    key = (blocks, M, mp.prec)
    val = _POLYLOG_MP_CACHE.get(key)
    if val is not None:
        return val
    r = len(blocks)
    prev = [mp.mpf(1)] * (M + 1)
    for ci in blocks[:-1]:
        pw = _pow_table(ci, M, mp.prec)
        cur = [mp.mpf(0)] * (M + 1)
        acc = mp.mpf(0)
        for n in range(1, M + 1):
            acc += pw[n] * prev[n - 1]
            cur[n] = acc
        prev = cur
    pw = _pow_table(blocks[-1], M, mp.prec)
    half = mp.mpf(1) / 2
    x = mp.mpf(1)
    total = mp.mpf(0)
    for n in range(1, M + 1):
        x *= half
        total += x * pw[n] * prev[n - 1]
    _POLYLOG_MP_CACHE[key] = total
    return total


def _holder_mp(c: Composition, dps: int):
    """Path-splitting evaluation at working precision dps."""
    with mp.workdps(dps + 8):
        bits = _word_bits(c)
        n = len(bits)
        M = int((dps + 6) * _LOG2_10) + 8
        total = mp.mpf(0)
        for k in range(n + 1):
            left = bits[:k]
            right = tuple(1 - b for b in reversed(bits[k:]))
            lval = _polylog_half_mp(_bits_to_blocks(left), M) if left else mp.mpf(1)
            rval = _polylog_half_mp(_bits_to_blocks(right), M) if right else mp.mpf(1)
            total += lval * rval
        return +total


_POLYLOG_F_CACHE: dict = {}
_POW_F_CACHE: dict = {}


def _pow_table_float(expo: int, M: int) -> list:
    key = (expo, M)
    tab = _POW_F_CACHE.get(key)
    if tab is None:
        tab = [0.0] + [float(n) ** (-expo) for n in range(1, M + 1)]
        _POW_F_CACHE[key] = tab
    return tab


def _polylog_half_float(blocks: Composition, M: int = 56) -> float:
    key = (blocks, M)
    val = _POLYLOG_F_CACHE.get(key)
    if val is not None:
        return val
    prev = [1.0] * (M + 1)
    for ci in blocks[:-1]:
        pw = _pow_table_float(ci, M)
        cur = [0.0] * (M + 1)
        acc = 0.0
        for n in range(1, M + 1):
            acc += pw[n] * prev[n - 1]
            cur[n] = acc
        prev = cur
    pw = _pow_table_float(blocks[-1], M)
    x = 1.0
    total = 0.0
    for n in range(1, M + 1):
        x *= 0.5
        total += x * pw[n] * prev[n - 1]
    _POLYLOG_F_CACHE[key] = total
    return total


def _holder_float(c: Composition) -> float:
    bits = _word_bits(c)
    total = 0.0
    for k in range(len(bits) + 1):
        left = bits[:k]
        right = tuple(1 - b for b in reversed(bits[k:]))
        lval = _polylog_half_float(_bits_to_blocks(left)) if left else 1.0
        rval = _polylog_half_float(_bits_to_blocks(right)) if right else 1.0
        total += lval * rval
    return total


def eval_admissible_mzv(c, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Evaluate an admissible nonempty index to ``dps`` significant digits.

    ``dps`` defaults to the context working precision.  Values are cached
    per index at the best precision computed so far.
    """
    c = as_composition(c)
    if not c:
        raise NonAdmissibleError("the empty index has no series; use eval_word_combo")
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible (last part must be >= 2)")
    dps_req = dps if dps is not None else ctx.working_dps
    cached = _MZV_CACHE.get(c)
    if cached is None or cached[0] < dps_req:
        if dps_req <= _FLOAT_DPS:
            value = mp.mpf(_holder_float(c))
            cached = (_FLOAT_DPS, value)
        else:
            value = _holder_mp(c, dps_req)
            cached = (dps_req, value)
        prev = _MZV_CACHE.get(c)
        if prev is None or prev[0] < cached[0]:
            _MZV_CACHE[c] = cached
    bound = mp.mpf(10) ** (-(min(cached[0], dps_req) - 2))
    return Approx(cached[1], bound)


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


def _fraction_to_mp(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def eval_word_combo(combo, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Evaluate a Q-combination of admissible words (empty word = 1)."""
    dps_eff = dps if dps is not None else ctx.working_dps
    with mp.workdps(dps_eff + 8):
        total = mp.mpf(0)
        bound = mp.mpf(0)
        for w, q in combo.items():
            qm = _fraction_to_mp(q)
            if w:
                v = eval_admissible_mzv(w, ctx, dps=dps_eff)
                total += qm * v.value
                bound += abs(qm) * v.bound
            else:
                total += qm
        return Approx(+total, bound + mp.mpf(10) ** (-(dps_eff - 2)))


def eval_tpoly(p: TPoly, T_value, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Substitute a numeric T into a T-polynomial and evaluate all words."""
    dps_eff = dps if dps is not None else ctx.working_dps
    with mp.workdps(dps_eff + 8):
        T = mp.mpmathify(T_value)
        total = mp.mpf(0)
        bound = mp.mpf(0)
        for t, combo in p.items():
            v = eval_word_combo(combo, ctx, dps=dps_eff)
            Tp = T**t if t else mp.mpf(1)
            total = total + Tp * v.value
            bound += abs(Tp) * v.bound
        return Approx(total, bound)


def eval_pigraded(e: PiGradedExpr, T_value, ctx: PrecisionContext) -> Approx:
    """Substitute numeric pi and T into a pi-graded expression."""
    with mp.workdps(ctx.working_dps + 8):
        pi = +mp.pi
        total = mp.mpf(0)
        bound = mp.mpf(0)
        for p, tp in e.items():
            v = eval_tpoly(tp, T_value, ctx)
            pip = pi**p if p else mp.mpf(1)
            total = total + pip * v.value
            bound += pip * v.bound
        return Approx(total, bound + mp.mpf(10) ** (-(ctx.working_dps - 2)))


def eval_piterm(term: PiTerm, ctx: PrecisionContext) -> Approx:
    """Numeric value of an exact rational multiple of a pi power."""
    with mp.workdps(ctx.working_dps + 8):
        val = _fraction_to_mp(term.coeff) * (+mp.pi) ** term.pi_exp
        return Approx(val, mp.mpf(10) ** (-(ctx.working_dps - 2)) * (1 + abs(val)))
