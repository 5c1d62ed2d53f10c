"""Hurwitz multiple zeta values and their regularized generating values.

``eval_hurwitz_direct`` sums the nested series
sum_{0<n_1<...<n_r} prod (z+n_i)^(-k_i) exactly up to a cutoff N and
handles everything beyond N with Euler-Maclaurin summation applied level by
level.  Beyond N, the partial sum of each nesting level is an asymptotic
expansion in monomials u^(-p) log(u)^q, u = z + n, and the rules that carry
one level's expansion to the next are exact rational linear maps that do
not depend on z: the argument shift, read from the series of
log(1 - 1/u)^i; the antiderivative, in closed form per monomial; and the
Bernoulli corrections, from one chain of odd derivatives of the level's
summand.  So the expansion of level j is the sum over i < j of the
constant K_i of level i times the exact expansion of the segment
(k_{i+1}, ..., k_j), which is built once per segment, with integer
coefficients over one denominator.  The constants satisfy

    K_0 = 1,   K_j = S_j(N) + sum_{i<j} K_i d_ij,

with S_j(N) the exact partial sum of level j and d_ij the segment's
expansion of g - EM(g) (its summand minus its Euler-Maclaurin sum) at
u_A = z + N + 1.  The value is K_r.

Segments rather than one running expansion per level with fixed-point
coefficients: that design runs about as fast, but it floors every term of
every map application, and those errors reach later levels through map
entries up to about 1e8 (shift) and 1e18 (Euler-Maclaurin), so its guard
bits would need norms of every map weighted at u_A.  With exact segment
expansions the maps never round.

The numbers are Python ints in fixed point with P fraction bits, a pair of
ints (re, im) for complex z:

* the partial sums are ``accumulate`` loops over the products of the level
  below with a table of floor(2^P (z+n)^(-k)).  The entries are exact
  floors, since z is an mpf and so z + n a dyadic rational;
* each d_ij is a dot product of the segment's integer coefficients with a
  table of u_A^(-p) log(u_A)^q.  Row p of the table carries p lam extra
  bits, with 2^lam <= |u_A|, so that a unit of error in an entry weighs
  |u_A|^(-p) units however large its coefficient is.  d_ij belongs to the
  segment at u_A, not to the word, so it is computed once per (segment,
  point, N, P), as are the segment's size bounds (per segment, point and
  N).  The table's caps on p and q are the segment's rounded up to
  multiples of 64 and 8, so one table per (point, N, P) serves every
  segment up to weight 12 and depth 8.

Guard bits.  Every floor, product and table entry is off by under 2 units
2^-P, and :func:`_a_priori_bounds` carries these errors through the partial
sums, the dot products and the K_j recursion, from bounds on the sizes of
the sums (like ``mzv._fraction_bits``, before any sum is computed).  The
sizes are read from the exact Gaussian integer 2^e (z + m) and carried as
mpf, so a z closer to a pole than a double resolves, or a value beyond
the double range, still gets its guard bits.  P is the bits of dps + 10
digits plus the bits of that bound, rounded up to a multiple of 32 so that
words of similar size share P, and with it the table and the segment
constants at their point.

Bound.  The returned bound is that rounding bound plus an estimate of the
truncation: for every segment, the first omitted Euler-Maclaurin term (the
Bernoulli term J + 1) and the first omitted expansion order (the shift
re-expansion's order P_ord + 1), both at u_A, carried to K_r through the
same recursion with the computed |K_i|, and doubled.  It is an estimate,
not a proof: the Euler-Maclaurin remainder is below its first omitted term
for real summands whose derivatives keep one sign, and for a depth-1 word
at real z the undoubled estimate is within a few percent of the error.

Cutoff.  N comes from the precision, before any sum is computed: 300 if
its a-priori truncation estimate (the same omitted terms, carried by
:func:`_a_priori_bounds` with the bounds on |K_i| of the guard bits) is
below 10^-wp, as at 30 digits, and else the cap 900, as at 60 digits and
above.  :func:`_direct` grows every rung by the shift -floor(Re z) left
of the origin, so that Re u_A > rung.  So N and the value's bits depend
on the word, z and wp alone.  J = 12 and the expansion order 28 are fixed.

``eval_hurwitz_star`` extends the evaluation to divergent (non-admissible)
indices: regularization expresses any index as a T-polynomial in admissible
words, and substituting T -> T - psi(1+z) - euler_gamma (the regularized
depth-1 generating value) together with direct values of the admissible
words (read from :func:`_direct`, as by ``eval_hurwitz_direct``) yields
the generating value of the shifted-index Taylor series.  The value of a
word is cached per (word, z, T, working precision), so the heads and
tails that the multitangent splits share are computed once.

Every cache of the module is a bounded ``lru_cache``;
:func:`mzvparity.clear_caches` empties them all.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import ceil, comb, exp, factorial, fsum, gcd, lcm, log
from operator import add, mul, rshift, sub
from typing import NamedTuple, Optional

from mpmath import mp
from mpmath.libmp import dps_to_prec

from .errors import DomainError, NonAdmissibleError
from .harmonic import _decode, as_composition, is_admissible, shift_expand
from .mzv import _walk, eval_tpoly
from .precision import Approx, PrecisionContext, _finite, _requested_dps
from .regularization import TPoly, regularize
from .special import bernoulli

__all__ = [
    "eval_hurwitz_direct",
    "eval_hurwitz_star",
    "eval_shifted",
    "shifted_tpoly",
    "tau_value",
]


# ---------------------------------------------------------------------------
# exact monomial maps for the tail machinery
# ---------------------------------------------------------------------------

# Entries of the per-monomial map caches; monomials (p, q) stay below
# p ~ 60 and q ~ 12 for words up to weight 12.
_MAP_CACHE_SIZE = 4096


def _combine(parts) -> tuple:
    """The sum of n/d times items over parts (n, d, items), with items
    ((p, q), numerator) pairs, as a reduced (den, {(p, q): numerator})."""
    parts = list(parts)
    den = lcm(*(d for _, d, _ in parts))
    out: dict = {}
    for n, d, items in parts:
        n *= den // d
        for key, m in items:
            out[key] = out.get(key, 0) + n * m
    out = {k: v for k, v in out.items() if v}
    g = gcd(den, *out.values())
    return den // g, {k: v // g for k, v in out.items()}


def _apply(e: tuple, monomial_map):
    """An expansion (den, {(p, q): numerator}) pushed through a linear map
    given per monomial as (den, ((key, numerator), ...)), as parts of a
    :func:`_combine`."""
    den, nums = e
    for (p, q), c in nums.items():
        mden, items = monomial_map(p, q)
        yield c, den * mden, items


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _antider_map(p: int, q: int) -> tuple:
    """Antiderivative of u^(-p) log(u)^q, p >= 1, as (den, ((key,
    numerator), ...)): log(u)^(q+1) / (q+1) for p = 1, and
    -sum_{i<=q} q!/(q-i)! log(u)^(q-i) u^(1-p) / (p-1)^(i+1) for p >= 2."""
    if p == 1:
        return q + 1, (((0, q + 1), 1),)
    return (p - 1) ** (q + 1), tuple(
        ((p - 1, q - i), -(factorial(q) // factorial(q - i)) * (p - 1) ** (q - i))
        for i in range(q + 1)
    )


def _derivative(e: dict) -> dict:
    """d/du of an expansion; integer coefficients stay integers."""
    out: dict = {}
    for (p, q), c in e.items():
        if p:
            key = (p + 1, q)
            out[key] = out.get(key, 0) - c * p
        if q:
            key = (p + 1, q - 1)
            out[key] = out.get(key, 0) + c * q
    return out


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _log1m_pow(i: int, P: int) -> tuple:
    """The coefficients of x^t, t = 0..P, of log(1 - x)^i, as Fractions:
    the i-th power of -sum_{t>=1} x^t / t, truncated at order P."""
    if not i:
        return (Fraction(1),) + (Fraction(0),) * P
    prev = _log1m_pow(i - 1, P)
    return tuple(-sum((prev[t - s] / s for s in range(1, t + 1)), Fraction(0)) for t in range(P + 1))


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _shift_monomial_map(p: int, q: int, P: int) -> tuple:
    """(u-1)^(-p) log(u-1)^q re-expanded around u, truncated at order P, as
    (den, ((key, numerator), ...)).

    log(u-1)^q = sum_i C(q, i) log(u)^i log(1 - 1/u)^(q-i), and each
    factor (u-1)^(-1) = sum_{t>=1} u^(-t) turns the coefficients of every
    log power into their prefix sums over p, shifted by one.
    """
    if not p:
        den, nums = _combine(
            (c.numerator * comb(q, i), c.denominator, [((t, i), 1)])
            for i in range(q + 1) for t, c in enumerate(_log1m_pow(q - i, P)) if c
        )
        return den, tuple(sorted(nums.items()))
    den, items = _shift_monomial_map(p - 1, q, P)
    rows: dict = {}
    for (pp, qq), c in items:
        rows.setdefault(qq, {})[pp] = c
    out = {}
    for qq, row in rows.items():
        run = 0
        for pp in range(P + 1):
            if run:
                out[(pp, qq)] = run
            run += row.get(pp, 0)
    return den, tuple(sorted(out.items()))


class _Segment(NamedTuple):
    """The exact tail data of a segment (k_{i+1}, ..., k_j) of a word."""

    level: tuple  # (den, {(p, q): numerator}): level j beyond N, in u = z + n
    den: int  # denominator of ``rows``
    rows: tuple  # ((p, (numerator at q = 0, 1, ...)), ...) of g - EM(g)
    sizes: tuple  # ((p, q, |coefficient|), ...) of g - EM(g), floats
    omitted: tuple  # ((p, q, |coefficient|), ...): the truncation estimate


@lru_cache(maxsize=1024)
def _segment(s: tuple) -> _Segment:
    """Tail data of the segment s, from that of s[:-1].

    g = u^(-k) F(u - 1) is the summand of the segment's last level, with F
    the expansion of the level below re-expanded around u up to
    order = _EXPANSION_ORDER; the level's expansion beyond N is EM(g), its
    Euler-Maclaurin sum with J = _EM_TERMS Bernoulli terms: the
    antiderivative of g, plus g / 2, plus
    B_2j / (2j)! g^(2j-1) for j <= J, read from one chain of odd
    derivatives g', g''', ..., g^(2J+1).  ``omitted`` holds the sizes of
    what that leaves out, as monomials whose sum is the estimate at u_A:
    the Bernoulli term J + 1 of g (the chain's last link), and the first
    term of F(u - 1) beyond ``order`` of every monomial of F, summed over
    n > N (its antiderivative, u^(1-p) / (p-1)).
    """
    J, order = _EM_TERMS, _EXPANSION_ORDER
    prev = _segment(s[:-1]).level if len(s) > 1 else (1, {(0, 0): 1})
    k = s[-1]
    gden, shifted = _combine(_apply(prev, lambda p, q: _shift_monomial_map(p, q, order)))
    g = {(p + k, q): c for (p, q), c in shifted.items()}
    odd = [_derivative(g)]
    for _ in range(J):
        odd.append(_derivative(_derivative(odd[-1])))
    weights = (bernoulli(2 * j) / factorial(2 * j) for j in range(1, J + 1))
    level = _combine(chain(
        _apply((gden, g), _antider_map),
        [(1, 2 * gden, g.items())],
        ((w.numerator, w.denominator * gden, der.items()) for w, der in zip(weights, odd)),
    ))

    den, d = _combine([(1, gden, g.items()), (-1, level[0], level[1].items())])
    by_p: dict = {}
    for (p, q), c in d.items():
        by_p.setdefault(p, {})[q] = c
    rows = tuple((p, tuple(by_p[p].get(q, 0) for q in range(max(by_p[p]) + 1))) for p in sorted(by_p))
    sizes = tuple((p, q, abs(c) / den) for p, row in by_p.items() for q, c in row.items())

    scale = abs(bernoulli(2 * J + 2)) / factorial(2 * J + 2) / gden
    omitted = [(p, q, float(abs(c) * scale)) for (p, q), c in odd[J].items()]
    pden, pnums = prev
    for (p, q), c in pnums.items():
        if (p, q) == (0, 0):
            continue
        t = max(order + 1 - p, 0)
        first = comb(p - 1 + t, t) * (q + 1) if p else q + 1
        pg = p + t + k  # order of the omitted term of g
        omitted.append((pg - 1, q, abs(c) * first / (pden * (pg - 1))))
    return _Segment(level, den, rows, sizes, tuple(omitted))


# ---------------------------------------------------------------------------
# fixed-point tables
# ---------------------------------------------------------------------------

# Entries of the per-point table caches.
_TABLE_CACHE_SIZE = 128
_LN2 = log(2)


def _dyadic(zv) -> tuple:
    """z as integers (a, b, e) with z = (a + b i) / 2^e and e >= 0."""
    re, im = (zv.real, zv.imag) if isinstance(zv, mp.mpc) else (zv, mp.zero)
    (ma, ea), (mb, eb) = ((x.man if x >= 0 else -x.man, x.exp) for x in (re, im))
    e = max(0, -ea, -eb)
    return ma << (ea + e), mb << (eb + e), e


def _gauss_pow(x: int, y: int, k: int) -> tuple:
    rx, ry = x, y
    for _ in range(k - 1):
        rx, ry = rx * x - ry * y, rx * y + ry * x
    return rx, ry


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _inverse_powers(zkey: tuple, k: int, P: int, N: int):
    """floor(2^P (z+n)^(-k)) for n = 1..N: a tuple for real z, a pair of
    tuples (re, im) for complex z.  Exact, with z + n = w / 2^e and w the
    Gaussian integer a + n 2^e + b i."""
    a, b, e = zkey
    top = 1 << (P + e * k)
    if not b:
        return tuple(top // (a + (n << e)) ** k for n in range(1, N + 1))
    re, im = [], []
    for n in range(1, N + 1):
        x, y = _gauss_pow(a + (n << e), b, k)
        norm = x * x + y * y
        re.append(x * top // norm)
        im.append(-y * top // norm)
    return tuple(re), tuple(im)


def _row_shift(zkey: tuple, N: int) -> int:
    """lam with 2^lam <= |u_A|, u_A = z + N + 1."""
    a, _, e = zkey
    return max((abs(a + ((N + 1) << e)) >> e).bit_length() - 1, 0)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _monomials(zkey: tuple, N: int, P: int, pmax: int, qmax: int) -> tuple:
    """(lam, re rows, im rows or None): row p holds u_A^(-p) log(u_A)^q for
    q <= qmax, floored at 2^-(P + p lam).

    1/u_A and log(u_A) are read to Q bits, and their powers are products of
    pairs floored at 2^-Q: x^p is off by under 5 p units of 2^-Q and
    log^q by under 5 q L^q (|x| < 1, |log u_A| < L), so Q holds enough bits
    above P + p lam that every entry is off by under 1.25 units of its row
    (under 2 for complex u_A).
    """
    a, b, e = zkey
    re_u = a + ((N + 1) << e)
    lam = _row_shift(zkey, N)
    L = abs(cmath.log(complex(re_u / (1 << e), b / (1 << e))))
    Q = (P + pmax * lam + qmax * int(L + 1).bit_length()
         + (5 * (pmax + qmax) + 2).bit_length() + 4)
    with mp.workprec(Q + 8):
        u = mp.mpc(mp.mpf((re_u, -e)), mp.mpf((b, -e)))
        x, lg = 1 / u, mp.log(u)
        xr, xi, lr, li = (int(mp.ldexp(v, Q)) for v in (x.real, x.imag, lg.real, lg.imag))
    logs = [(1 << Q, 0)]
    for _ in range(qmax):
        r, i = logs[-1]
        logs.append(((r * lr - i * li) >> Q, (r * li + i * lr) >> Q))
    re_rows, im_rows = [], []
    pr, pi = 1 << Q, 0
    for p in range(pmax + 1):
        s = 2 * Q - P - p * lam
        re_rows.append(tuple((pr * r - pi * i) >> s for r, i in logs))
        im_rows.append(tuple((pr * i + pi * r) >> s for r, i in logs))
        pr, pi = (pr * xr - pi * xi) >> Q, (pr * xi + pi * xr) >> Q
    return lam, tuple(re_rows), tuple(im_rows) if b or re_u < 0 else None


@lru_cache(maxsize=4096)
def _segment_at(s: tuple, zkey: tuple, N: int, P: Optional[int]) -> tuple:
    """A constant of the segment s at u_A = z + N + 1, computed once per
    segment and point, whatever word the segment is part of.

    For P None: (bound on |d|, bound on the error of d in units 2^-P,
    truncation estimate of d), from the segment's coefficients weighted by
    |u_A|^(-p) |log u_A|^q, by the row units 2^(-p lam), and its omitted
    terms weighted as the first.  Else d = g - EM(g) at u_A in fixed point
    with P fraction bits, as (re, im), a dot product with the table whose
    caps are the segment's rounded up to multiples of 64 and 8.
    """
    seg = _segment(s)
    if P is None:
        a, b, e = zkey
        uA = complex(a / (1 << e) + N + 1, b / (1 << e))
        ua, L = abs(uA), abs(cmath.log(uA))
        lam = _row_shift(zkey, N)
        E = sum(x * 2.0 ** (-p * lam) for p, q, x in seg.sizes)
        return (
            sum(x * ua**-p * L**q for p, q, x in seg.sizes),
            2 * E + 2 * (len(seg.rows) + 1),
            sum(x * ua**-p * L**q for p, q, x in seg.omitted),
        )
    caps = 64 * ceil(seg.rows[-1][0] / 64), 8 * ceil(len(s) / 8)
    lam, re_rows, im_rows = _monomials(zkey, N, P, *caps)
    re = sum(sum(map(mul, nums, re_rows[p])) >> (p * lam) for p, nums in seg.rows)
    if im_rows is None:
        return re // seg.den, 0
    im = sum(sum(map(mul, nums, im_rows[p])) >> (p * lam) for p, nums in seg.rows)
    return re // seg.den, im // seg.den


def _partial_sums(c: tuple, zkey: tuple, P: int, N: int) -> list:
    """The exact partial sums S_j(N), j = 1..r, as fixed-point pairs."""
    out, prev = [], None
    for k in c:
        t = _inverse_powers(zkey, k, P, N)
        if not zkey[1]:
            terms = t if prev is None else map(rshift, map(mul, t, prev), repeat(P))
            prev = list(accumulate(terms, initial=0))
            out.append((prev[-1], 0))
            continue
        tr, ti = t
        if prev is None:
            re_terms, im_terms = tr, ti
        else:
            pr, pi = prev
            re_terms = map(rshift, map(sub, map(mul, tr, pr), map(mul, ti, pi)), repeat(P))
            im_terms = map(rshift, map(add, map(mul, tr, pi), map(mul, ti, pr)), repeat(P))
        prev = list(accumulate(re_terms, initial=0)), list(accumulate(im_terms, initial=0))
        out.append((prev[0][-1], prev[1][-1]))
    return out


@lru_cache(maxsize=256)
def _size_bounds(zkey: tuple, kmax: int, N: int) -> tuple:
    """(Lambda, rho) as mpf: the sum of tau_m = max(|z+m|^-1, |z+m|^-kmax)
    over m <= N, and the largest (m - 1) tau_m.

    log |z+m| is read from the Gaussian integer 2^e (z+m), so a z closer
    to a pole than a double resolves keeps its distance, and the sums are
    mpf, so a tau_m beyond the double range does not overflow.
    """
    a, b, e = zkey
    logs = []
    for m in range(1, N + 1):
        lx = log((a + (m << e)) ** 2 + b * b) / 2 - e * _LN2
        logs.append(max(-lx, -kmax * lx))
    top = max(logs)
    with mp.workprec(53):
        lam = mp.exp(top) * fsum(exp(t - top) for t in logs)
        rho = mp.exp(max(log(m) + t for m, t in enumerate(logs[1:], 1))) if N > 1 else mp.zero
    return lam, rho


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


def _normalize_z(z, wp: int):
    """z as an mpf, or an mpc with a nonzero imaginary part: an mpf or mpc
    as it is, anything else, a constant such as ``mp.pi`` too, at wp digits.
    A z that is not finite raises DomainError."""
    if type(z) in (mp.mpf, mp.mpc) and mp.isfinite(z):
        zv = z  # as _finite would return it, without entering a context
    else:
        with mp.workdps(wp):
            zv = _finite(+z if isinstance(z, mp.constant) else z, "z")
    if isinstance(zv, mp.mpc) and zv.imag == 0:
        zv = zv.real
    return zv


def _check_no_pole(zv) -> None:
    # zv is normalized: an mpc has a nonzero imaginary part
    if not isinstance(zv, mp.mpc) and zv <= -mp.mpf(1) / 2:
        near = mp.nint(zv)
        if near <= -1 and abs(zv - near) < mp.mpf(10) ** (-20):
            raise DomainError(f"z = {zv} hits a pole at a negative integer")


# direct evaluation: exact partial sums up to a cutoff N from the ladder
# _CUTOFFS, then tail expansions with _EM_TERMS Bernoulli corrections,
# truncated at order _EXPANSION_ORDER
_CUTOFFS = (300, 900)
_EM_TERMS = 12
_EXPANSION_ORDER = 28


def eval_hurwitz_direct(c, z, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Shifted nested sum sum_{0<n_1<...<n_r} prod (z+n_i)^(-l_i).

    Requires an admissible index and z away from the poles {-1, -2, ...};
    valid for any such z (no radius restriction).  The tail-expansion
    parameters are the module constants above.  The cutoff N is the first
    rung of the ladder ``_CUTOFFS`` = (300, 900) whose a-priori truncation
    estimate is below 10^-wp, wp = dps + 10, and the cap 900 where none is
    (at 60 digits and above); left of Re z = 0 every rung grows by
    -floor(Re z), so that the tail starts at Re u_A >= rung + 1 whatever z
    is.  The bound is the rounding bound of :func:`_a_priori_bounds` plus an
    estimate of the truncation (twice the first omitted Euler-Maclaurin term
    and expansion order).
    """
    c = as_composition(c)
    wp = _requested_dps(ctx, dps) + 10
    if not c:
        return Approx(mp.mpf(1), mp.mpf(0))
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible; use eval_hurwitz_star")
    zv = _normalize_z(z, wp)
    _check_no_pole(zv)
    return _direct(c, zv, wp, _CUTOFFS)


def _a_priori_bounds(c: tuple, zkey: tuple, N: int) -> tuple:
    """(units, truncation) at cutoff N, both mpf (near a pole they are far
    beyond the double range), from bounds on the sizes before any sum is
    computed: a bound on the rounding error of K_r in units 2^-P, for any
    P, and the truncation estimate of K_r, the omitted terms of every
    segment carried through the K_j recursion with the bounds on |K_i|,
    doubled as the returned bound doubles them.

    Every floor, product and table entry is off by under 2 units (under one
    per component).  Let tau_m = max_k |z+m|^(-k) over the parts k of the
    word.  Every partial sum is then below B = max_j Lambda^j / j!, with
    Lambda = sum_{m<=N} tau_m, and an error of level j - 1 at index m - 1
    reaches level j multiplied by |z+m|^(-k) <= tau_m.  So with
    rho = max (m-1) tau_m, level j is off by under n C_j units at index n,
    where C_1 = 2 (the table entries) and C_j = 2 B + 2 + 1 + rho C_{j-1}
    (an entry times a partial sum, the floor of the product, and the
    product of two errors).  A dot product d_ij is off by under
    2 E_ij + 2 (rows + 1) units: its entries, each row's floor and the
    final division.  Each term of the K_j recursion adds
    |K_i| err(d_ij) + |d_ij| err(K_i) + 3, with |d_ij| bounded by its
    coefficients at |u_A| and |K_j| by B + sum |K_i| |d_ij|.
    """
    r = len(c)
    Lam, rho = _size_bounds(zkey, max(c), N)
    with mp.workprec(53):
        B = max(Lam**j / factorial(j) for j in range(r + 1))
        C = mp.zero
        k_size, err, est = [mp.one], [mp.zero], [mp.zero]
        for j in range(1, r + 1):
            C = 2 if j == 1 else 2 * B + 3 + rho * C
            kb, e, t = B, N * C, mp.zero
            for i in range(j):
                d_size, d_err, trunc = _segment_at(c[i:j], zkey, N, None)
                e += k_size[i] * d_err + d_size * err[i] + 3
                t += k_size[i] * trunc + d_size * est[i]
                kb += k_size[i] * d_size
            k_size.append(kb)
            err.append(e)
            est.append(t)
        return err[r], 2 * est[r]


@lru_cache(maxsize=4096)
def _direct(c: tuple, zv, wp: int, cutoffs: tuple) -> Approx:
    """The value of a nonempty admissible word at a normalized z off the
    poles, at wp digits, with N the first rung of ``cutoffs`` (grown by the
    shift) whose truncation estimate is below 10^-wp, or the last."""
    r = len(c)
    zkey = _dyadic(zv)
    # past the poles left of the origin, so that Re u_A = Re z + N + 1 > rung
    shift = max(0, -int(mp.floor(zv.real)))
    for N in (n + shift for n in cutoffs):
        units, truncation = _a_priori_bounds(c, zkey, N)
        if float(truncation) < 10.0**-wp:
            break
    P = dps_to_prec(wp) + 32 * ceil(mp.mag(units) / 32)

    sums = _partial_sums(c, zkey, P, N)
    K = [(1 << P, 0)]
    est = [mp.zero]  # truncation estimate of K_j, an mpf like the units
    with mp.workprec(53):
        for j in range(1, r + 1):
            re, im = sums[j - 1]
            e = mp.zero
            for i in range(j):
                dr, di = _segment_at(c[i:j], zkey, N, P)
                kr, ki = K[i]
                re += (kr * dr - ki * di) >> P
                im += (kr * di + ki * dr) >> P
                d_size, _, trunc = _segment_at(c[i:j], zkey, N, None)
                e += mp.hypot(mp.mpf((kr, -P)), mp.mpf((ki, -P))) * trunc + d_size * est[i]
            K.append((re, im))
            est.append(e)

    # at P bits, or more for a value above 1, so that the conversion is exact
    with mp.workprec(max(P, *(abs(x).bit_length() for x in K[r]))):
        value = mp.mpf((K[r][0], -P))
        if zkey[1]:
            value = mp.mpc(value, mp.mpf((K[r][1], -P)))
        return Approx(value, mp.ldexp(units, -P) + 2 * est[r])


# ---------------------------------------------------------------------------
# regularized generating values
# ---------------------------------------------------------------------------


def tau_value(z, T_value, ctx: PrecisionContext):
    """Generating value assigned to the single part (1): T - psi(1+z) - gamma."""
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    _check_no_pole(zv)
    with mp.workdps(wp):
        return _finite(T_value, "T") - _psi_gamma(zv, wp)


@lru_cache(maxsize=256)
def _psi_gamma(zv, wp: int):
    """psi(1+z) + gamma at wp digits, computed once per point."""
    with mp.workdps(wp):
        return mp.digamma(1 + zv) + mp.euler


def eval_hurwitz_star(c, z, T_value, ctx: PrecisionContext) -> Approx:
    """Regularized generating value of a word, |z| <= 1/2.

    Computed through the regularization homomorphism: write the index as a
    T-polynomial in admissible words, evaluate those by the direct route
    and substitute the depth-1 generating value for T.  Agrees with the
    term-by-term Taylor route inside the radius.  ``c`` is a composition,
    admissible or not.  z and T are read once; a word's value is cached
    per (word, point, T, working precision).
    """
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        T = _finite(T_value, "T")
    return _star_word(as_composition(c), zv, T, ctx.working_dps)


@lru_cache(maxsize=1024)
def _star_word(c: tuple, zv, T, dps: int) -> Approx:
    """The value of a word at a normalized z, a finite T read at wp and
    working precision dps (see :func:`eval_hurwitz_star`), from
    :func:`_psi_gamma` and :func:`_direct` alone.  Values depend on a
    context only through its working precision.  The radius |z| <= 1/2 is
    checked here, on a cache miss only."""
    wp = dps + 10
    with mp.workdps(wp):
        if abs(zv) > mp.mpf("0.5") * (1 + mp.mpf(10) ** -12):
            raise DomainError("regularized Hurwitz values are evaluated for |z| <= 1/2")
        x = regularize(c)
        tau = T - _psi_gamma(zv, wp)

        def leaf(nums):
            part = pbound = mp.zero
            for w, n in nums.items():
                qm = mp.mpf(n) / x._den
                # the empty word (key 0) is exactly 1
                hv = _direct(_decode(w), zv, wp, _CUTOFFS) if w else Approx(mp.one, mp.zero)
                part += qm * hv.value
                pbound += abs(qm) * hv.bound
            return part, pbound

        (total,), (bound,) = _walk(x._nums, [[tau]], leaf, 1)
        return Approx(total, bound + mp.mpf(10) ** (-(wp - 6)))


def shifted_tpoly(c, a: int) -> TPoly:
    """Regularized expansion of the order-a shifted value of an index."""
    return regularize(shift_expand(a, c))


def eval_shifted(c, a: int, T_value, ctx: PrecisionContext) -> Approx:
    """Numeric order-a shifted value of an index at a given T."""
    return eval_tpoly(shifted_tpoly(c, a), T_value, ctx)
