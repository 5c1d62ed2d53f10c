"""Numeric evaluation of multiple zeta values and of exact expressions.

The production evaluator rewrites an admissible index as an iterated
integral over words in two letters and splits the integration path at 1/2;
both halves become nested power series at 1/2 whose terms shrink like
2^(-n), so a few hundred terms give dozens of digits for any weight
(Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 353, 2001).

The series are summed by one kernel in Python-int fixed point with P
fraction bits, at every precision: each level of nested prefix sums adds
``prev[m-1] // m^e``, and the 2^(-n) weight of the last level is a shift
``>> n``, made before the last block's division by n^c, so that one shift
serves every c: nested floors compose, so ``(x >> n) // n^c`` is
``(x // n^c) >> n`` bit for bit.  Every floor rounds down by under one
unit 2^-P.  A level inherits the error of the level below divided by
m^e >= m, which cancels that error's growth in the index m, so the errors
of the levels add up instead of multiplying: the guard bits of P above
dps + 8 digits grow only with log2 M (M terms) and log2 of the length of
the word, as :func:`_fraction_bits` derives.  Up to weight 12, P does not
depend on the word.

The kernel walks each word once from the left and its dual once from the
right: every cut of the path needs the series of one prefix on each side.
The walk reads the word's int key as it is: the first L - k of its L
letters are ``w >> k``, and a letter 1 starts a block.  Prefix values are
cached by ``(prefix key, M, P)``, so words share them.  A prefix missing
from that cache is summed over the chain level (the nested sums) of its
completed blocks, which the walk shifts once per block, so that every
missing prefix of the block is one division pass.  The chain levels of
every depth are held in one cache by ``(completed-blocks key, M, P)``, each
built from the level one block below it, so a level is built once while it
stays among the 64 last used.  A value is returned as an mpf that carries
the guard bits.

The expression evaluators sum in integers, and read an expression's
storage, integer numerators n over one denominator D, as it is.  An mpf is
an exact dyadic man * 2^exp, so D times a word combination (one grade of
an expression) is the exact integer sum of n man 2^(exp - E), with E the
smallest exponent; it is rounded once, by one division by D at the
kernel's precision, so that the guard bits the values carry are kept.
One walker, :func:`_walk`, substitutes numbers for the grade levels of
every expression class, pi and then T, multiplying whole grades by their
powers; a check at several T values walks each grade once and combines
the sums per T, and at T = 0 the grades t > 0 are not walked.
:func:`_eval_at` is the walk behind all three public expression
evaluators, and :mod:`mzvparity.hurwitz` walks with tau(z) in place of T.
The bound stays the per-word estimate 10^-(dps-2) times the sum of |q|,
plus that estimate once per grade, and once more for a pi-graded
expression.

Values are cached by the int key of the word (:mod:`mzvparity.harmonic`),
which is the word's letters as binary digits, together with the precision
the kernel ran at: a value is a function of the word and the requested
precision alone, whatever was computed before it.  The value, prefix and
power caches are bounded, with caps that no sweep reaches, and the chain
levels keep the 64 last used (about 1.9 MiB at 100 digits, 5.4 MiB at 200);
:func:`mzvparity.clear_caches` empties them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import floordiv, mul, rshift
from types import SimpleNamespace
from typing import Optional

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, mpf_div, round_nearest

from .errors import NonAdmissibleError
from .harmonic import WordCombo, _decode, _encode, _grades, as_composition, is_admissible
from .precision import Approx, PrecisionContext, _finite, _requested_dps
from .reduction import PiGradedExpr
from .regularization import TPoly
from .special import PiTerm

__all__ = [
    "eval_admissible_mzv",
    "eval_pigraded",
    "eval_piterm",
    "eval_tpoly",
    "eval_word_combo",
]

_LOG2_10 = math.log(10.0) / math.log(2.0)


class _BoundedCache(dict):
    """A dict that empties itself rather than grow past ``cap`` entries.

    Lookups are plain dict lookups; only a new key checks the size.  One
    ``clear``, where evicting single entries would take several steps,
    keeps the dict safe to share between threads.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        if len(self) >= self.cap and key not in self:
            self.clear()
        super().__setitem__(key, value)

    cache_clear = dict.clear

    def cache_info(self) -> SimpleNamespace:
        """Its size and cap, named as ``functools.lru_cache`` names them."""
        return SimpleNamespace(currsize=len(self), maxsize=self.cap)


# (int key, dps the kernel ran at) -> mpf, so that a value depends on the
# word and the requested precision alone.  The caps of this cache and the
# next are above the largest fills seen, about 97,000 and 430,000.
_MZV_CACHE = _BoundedCache(1 << 17)
# (prefix key, M, P) -> floor(2^P * nested series of the prefix at 1/2, cut
# at M), with P the fraction bits of the word that walks the prefix
_PREFIX_CACHE = _BoundedCache(1 << 19)
# Requests below this many digits are computed at it: the series cost little
# more, and requests that fall below it share one cache key.
_MIN_DPS = 14


def _terms(dps: int) -> int:
    """Terms M of every series: the tail after them is near 2^-M, about
    10^-(dps+6)."""
    return int((dps + 6) * _LOG2_10) + 8


@lru_cache(maxsize=1024)
def _fraction_bits(dps: int, v: int) -> int:
    """Fraction bits P of the series of a word of v letters at dps digits.

    P is dps + 8 digits (``prec`` bits) plus guard bits for the floors.  In
    units of 2^-P every ``//`` and ``>>`` is short by under one unit, and
    all values are nonnegative.  At index n, level j of the prefix sums is
    then short by under n j units: each term adds one unit of its own and
    the error of level j - 1 divided by m^e >= m, which cancels that
    error's growth in m.  So a series of r <= v blocks is short by under
    M + v units (M floors of the last level), and the guard bits make
    M + v + 1 units at most 2^-prec / (2 v (v + 1)).  A word has one prefix
    of each length on each side, and each cut is a product of two series
    below ln 2 < 1, so its value is short by under 2^-prec in all.  v is
    taken as at least 12, so that P is the same for every prefix of every
    word up to weight 12.
    """
    M = _terms(dps)
    v = max(v, 12)
    guard = (2 * v * (v + 1) * (M + v + 1)).bit_length()
    return dps_to_prec(dps + 8) + guard


@lru_cache(maxsize=4096)
def _powers(e: int, M: int) -> list:
    """[n^e for n = 1..M]."""
    return [n**e for n in range(1, M + 1)]


@lru_cache(maxsize=64)
def _level(u: int, M: int, P: int) -> list:
    """The chain level of the completed blocks (c_1, ..., c_j) with int key
    u: [floor(2^P sum over m_1 < ... < m_j <= n of prod m_i^(-c_i)) for
    n = 0..M].  The last block, u's lowest 1 bit and the zeros below it, has
    c_j = ``(u & -u).bit_length()`` letters; entry n adds below[m-1] // m^c_j
    over m <= n, with ``below`` the level of ``u >> c_j``, and u = 0 gives
    the constant level 2^P.  Callers must not change the list."""
    if not u:
        return [1 << P] * (M + 1)
    c = (u & -u).bit_length()
    below = _level(u >> c, M, P)
    return list(accumulate(map(floordiv, below, _powers(c, M)), initial=0))


def _prefix_values(w: int, dps: int) -> list:
    """Fixed-point values of the series of every prefix of the word with
    int key w, scaled by 2^P with P the fraction bits of the whole word.

    Read from its most significant bit, w starts with letter 1 and is the
    blocks (c_1, ..., c_r), each a 1 and c_i - 1 zeros; its series at 1/2
    is the sum over m_1 < ... < m_r <= M of 2^(-m_r) prod m_i^(-c_i).
    Entry i of the result belongs to the first i letters, whose key is
    ``w >> (L - i)`` for a word of L letters (entry 0, the empty word, is
    1).  A value missing from the cache is the last block's sum over the
    chain level of the completed blocks before it, read from
    :func:`_level`.  The walk shifts that level by n at its block's first
    missing prefix, and keeps it until the next letter 1 starts a block, so
    that each missing prefix of the block is one division pass: the sum
    over n of ``(level[n-1] >> n) // n^c``, which is
    ``(level[n-1] // n^c) >> n`` bit for bit, as nested floors compose.  A
    value is cached by its key and the P of the word that walks it, so that
    it is a function of its blocks, M and P alone; every word of up to 12
    letters has the same P at a given dps, and shares it.
    """
    L = w.bit_length()
    M = _terms(dps)
    P = _fraction_bits(dps, L)
    values = [1 << P]
    for k in range(L - 1, -1, -1):
        u = w >> k
        if u & 1:
            start, shifted = k, None
        key = (u, M, P)
        x = _PREFIX_CACHE.get(key)
        if x is None:
            if shifted is None:
                done = w >> (start + 1)  # the completed blocks
                if done.bit_count() > 256:
                    # levels 256 blocks apart first, so that _level recurses at
                    # most that deep after its cache has dropped the levels below
                    v, apart = done, []
                    for j in range(done.bit_count() - 1, 0, -1):  # drop a block, j are left
                        v >>= (v & -v).bit_length()
                        if j % 256 == 0:
                            apart.append(v)
                    for v in reversed(apart):
                        _level(v, M, P)
                shifted = list(map(rshift, _level(done, M, P), range(1, M + 1)))
            x = _PREFIX_CACHE[key] = sum(map(floordiv, shifted, _powers(start - k + 1, M)))
        values.append(x)
    return values


def _holder(w: int, dps: int):
    """Path-splitting evaluation: sum over the cuts k of the word of the
    series of its first k letters times the series of the dual of the rest,
    read from the right, whose key is w's L letters reversed and complemented."""
    L = w.bit_length()
    P = _fraction_bits(dps, L)
    left = _prefix_values(w, dps)
    right = _prefix_values(int(bin(w)[:1:-1], 2) ^ ((1 << L) - 1), dps)
    total = sum(map(mul, left, reversed(right)))
    with mp.workprec(P):
        return mp.mpf((total, -2 * P))


def _value(w: int, dps: int):
    """The kernel's value of the admissible word w asked for at dps digits,
    computed at ``max(dps, _MIN_DPS)`` and cached under that precision."""
    key = (w, dps if dps > _MIN_DPS else _MIN_DPS)  # max() costs a call per word
    v = _MZV_CACHE.get(key)
    if v is None:
        v = _MZV_CACHE[key] = _holder(*key)
    return v


def eval_admissible_mzv(c, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Evaluate an admissible nonempty index to ``dps`` significant digits.

    ``dps`` defaults to the context working precision.  Values are cached
    per (index, precision the kernel ran at), so they depend on both alone.
    """
    c = as_composition(c)
    if not c:
        raise NonAdmissibleError("the empty index has no series; use eval_word_combo")
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible (last part must be >= 2)")
    dps = _requested_dps(ctx, dps)
    return Approx(_value(_encode(c), dps), _estimate(dps))


def _fraction_to_mp(q: Fraction):
    """q at the current precision: its numerator rounded, then divided."""
    return mp.mpf(q.numerator) / q.denominator


def _piterm_to_mp(term: PiTerm):
    """q pi^p of a :class:`PiTerm` at the current precision."""
    return _fraction_to_mp(term.coeff) * mp.pi**term.pi_exp


def _sum_prec(dps: int) -> int:
    """Working precision of sums of MZV values requested at dps digits: the
    kernel's own, so that the guard bits the values carry are kept."""
    return _fraction_bits(max(dps, _MIN_DPS), 0)


@lru_cache(maxsize=256)
def _estimate(dps: int):
    """The error estimate 10^-(dps-2) of a value requested at dps digits."""
    with mp.workprec(_sum_prec(dps)):
        return mp.mpf(10) ** (2 - dps)


def _combo_sum(nums: dict, den: int, dps: int) -> tuple:
    """(value, sum of |q| over the nonempty words) of the Q-combination
    ``nums / den`` of admissible words ({word: int}, den > 0) at dps
    digits, both rounded once to the current precision.

    With E the smallest exponent of the values man 2^exp, den times the
    value is the integer sum of n man 2^(exp - E), times 2^E.  Each value
    is the one :func:`eval_admissible_mzv` returns at dps; a
    non-admissible (odd) word raises.
    """
    const = weight = 0
    mans, exps = [], []
    for w, n in nums.items():
        if not w:
            const = n
            continue
        if w & 1:
            raise NonAdmissibleError(f"{_decode(w)!r} is not admissible (last part must be >= 2)")
        weight += abs(n)
        sign, man, exp, _ = _value(w, dps)._mpf_
        mans.append(-n * man if sign else n * man)
        exps.append(exp)
    E = min([0, *exps])
    total = sum((m << (e - E) for m, e in zip(mans, exps)), const << -E)
    prec, d = mp.prec, from_int(den)
    value = mpf_div(from_man_exp(total, E), d, prec, round_nearest)
    return mp.make_mpf(value), mp.make_mpf(mpf_div(from_int(weight), d, prec, round_nearest))


def _walk(nums: dict, levels: list, leaf, n: int) -> tuple:
    """(totals, bounds) at n points of a {key: int} map with one grade
    level above the word per entry of ``levels``, outermost first: entry l
    holds the value x of level l at each point.

    A level adds x^g * value and |x^g| * bound over its grades g, each
    grade walked once for all points.  At a point where x = 0 the grades
    g > 0 are skipped: their terms are exactly 0, and a grade is not walked
    unless some point keeps it.  Below the last level, ``leaf(nums)`` is
    the (value, bound) of one word combination, the same at every point.
    """
    if not levels:
        value, bound = leaf(nums)
        return [value] * n, [bound] * n
    xs, below = levels[0], levels[1:]
    totals, bounds = [mp.zero] * n, [mp.zero] * n
    for g, sub in _grades(nums).items():
        at = [i for i, x in enumerate(xs) if x or not g]
        if not at:
            continue
        values, errs = _walk(sub, below, leaf, n)
        for i in at:
            xg = xs[i] ** g if g else mp.one
            totals[i] += xg * values[i]
            bounds[i] += abs(xg) * errs[i]
    return totals, bounds


def _eval_at(expr, T_values, ctx: PrecisionContext, dps: Optional[int] = None) -> list:
    """A ``WordCombo``, ``TPoly`` or ``PiGradedExpr`` at each of
    ``T_values``, as ``Approx``: one :func:`_walk` over its pi and T grades
    sums every word combination once for all T values.  A word combination
    is bounded by est times the sum of its |q| plus est, with est the
    per-word estimate; a pi-graded expression adds est once more."""
    if not isinstance(expr, (WordCombo, TPoly, PiGradedExpr)):
        hint = "; evaluate its .expanded" if hasattr(expr, "expanded") else ""
        raise TypeError(f"expected a WordCombo, TPoly or PiGradedExpr, got {type(expr).__name__}{hint}")
    dps = _requested_dps(ctx, dps)
    with mp.workprec(_sum_prec(dps)):
        est = _estimate(dps)
        Ts = [_finite(T, "T") for T in T_values]
        # the pi level, where there is one, sits above the T level
        levels = [[+mp.pi] * len(Ts), Ts] if expr._depth == 2 else [Ts][: expr._depth]

        def leaf(nums):
            value, weight = _combo_sum(nums, expr._den, dps)
            return value, weight * est + est

        totals, bounds = _walk(expr._nums, levels, leaf, len(Ts))
        if expr._depth == 2:
            bounds = [b + est for b in bounds]
        return list(map(Approx, totals, bounds))


def eval_word_combo(combo, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Evaluate a Q-combination of admissible words (empty word = 1)."""
    return _eval_at(combo, (0,), ctx, dps)[0]


def eval_tpoly(p: TPoly, T_value, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Substitute a numeric T into a T-polynomial and evaluate all words."""
    return _eval_at(p, (T_value,), ctx, dps)[0]


def eval_pigraded(e: PiGradedExpr, T_value, ctx: PrecisionContext) -> Approx:
    """Substitute numeric pi and T into a pi-graded expression."""
    return _eval_at(e, (T_value,), ctx)[0]


def eval_piterm(term: PiTerm, ctx: PrecisionContext) -> Approx:
    """Numeric value of an exact rational multiple of a pi power."""
    with mp.workdps(ctx.working_dps + 8):
        val = _piterm_to_mp(term)
        return Approx(val, mp.mpf(10) ** (-(ctx.working_dps - 2)) * (1 + abs(val)))
