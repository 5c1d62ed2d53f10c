"""Hurwitz multiple zeta values and their regularized generating values.

``eval_hurwitz_direct`` sums the nested series exactly up to a cutoff N and
handles everything beyond N with Euler-Maclaurin summation applied level by
level: the partial sum of each nesting level is carried as an asymptotic
expansion in monomials ``(z+n)^(-p) * log(z+n)^q`` whose transformation
rules (argument shift, antiderivative, derivatives, Bernoulli corrections)
are exact rational linear maps, cached once and applied per evaluation.

``eval_hurwitz_star`` extends the evaluation to divergent (non-admissible)
indices: regularization expresses any index as a T-polynomial in admissible
words, and substituting T -> T - psi(1+z) - euler_gamma (the regularized
depth-1 generating value) together with direct values of the admissible
words yields the generating value of the shifted-index Taylor series.
``eval_hurwitz_taylor`` is the literal term-by-term Taylor route used to
cross-check it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial
from typing import Optional

from mpmath import mp

from .errors import DomainError, NonAdmissibleError
from .harmonic import as_composition, is_admissible, shift_expand
from .mzv import eval_admissible_mzv, eval_tpoly
from .precision import Approx, PrecisionContext
from .regularization import TPoly, regularize
from .special import bernoulli

__all__ = [
    "eval_hurwitz_direct",
    "eval_hurwitz_star",
    "eval_hurwitz_taylor",
    "eval_shifted",
    "shifted_tpoly",
    "tau_series",
    "tau_value",
]


# ---------------------------------------------------------------------------
# exact monomial maps for the tail machinery
# ---------------------------------------------------------------------------


def _frac_items(d: dict) -> tuple:
    return tuple(sorted(d.items()))


@lru_cache(maxsize=None)
def _antider_monomial(p: int, q: int) -> tuple:
    """Antiderivative of u^(-p) log(u)^q as monomials; requires p >= 1."""
    if p < 1:
        raise ValueError("antiderivative only needed for p >= 1")
    if p == 1:
        return (((0, q + 1), Fraction(1, q + 1)),)
    acc = {(p - 1, q): Fraction(-1, p - 1)}
    if q:
        for (pp, qq), c in _antider_monomial(p, q - 1):
            key = (pp, qq)
            acc[key] = acc.get(key, Fraction(0)) + c * Fraction(q, p - 1)
    return _frac_items(acc)


def _derivative_frac(e: dict) -> dict:
    out: dict = {}
    for (p, q), c in e.items():
        if p:
            key = (p + 1, q)
            out[key] = out.get(key, Fraction(0)) - c * p
        if q:
            key = (p + 1, q - 1)
            out[key] = out.get(key, Fraction(0)) + c * q
    return out


@lru_cache(maxsize=None)
def _em_monomial_map(p: int, q: int, J: int) -> tuple:
    """n-dependent part of sum_{m=N+1..n} of the monomial u^(-p) log(u)^q.

    Euler-Maclaurin: antiderivative + half the monomial + Bernoulli times
    odd derivatives.  The matching constant part is recovered at run time
    as g(u_A) - n_part(u_A) with u_A = z + N + 1.
    """
    acc: dict = {}
    for key, c in _antider_monomial(p, q):
        acc[key] = acc.get(key, Fraction(0)) + c
    acc[(p, q)] = acc.get((p, q), Fraction(0)) + Fraction(1, 2)
    der = {(p, q): Fraction(1)}
    for j in range(1, J + 1):
        der = _derivative_frac(der) if j == 1 else _derivative_frac(_derivative_frac(der))
        coeff = bernoulli(2 * j) / factorial(2 * j)
        for key, c in der.items():
            acc[key] = acc.get(key, Fraction(0)) + c * coeff
    return _frac_items({k: v for k, v in acc.items() if v})


def _mul_frac(e1: dict, e2: dict, P: int) -> dict:
    out: dict = {}
    for (p1, q1), c1 in e1.items():
        for (p2, q2), c2 in e2.items():
            p = p1 + p2
            if p > P:
                continue
            key = (p, q1 + q2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _log_shift_pow(i: int, P: int) -> tuple:
    """(log(u-1) - log u)^i = (-sum_{t>=1} u^(-t)/t)^i truncated at order P."""
    if i == 0:
        return (((0, 0), Fraction(1)),)
    base = {(t, 0): Fraction(-1, t) for t in range(1, P + 1)}
    acc = dict(_log_shift_pow(i - 1, P))
    return _frac_items(_mul_frac(acc, base, P))


@lru_cache(maxsize=None)
def _shift_monomial_map(p: int, q: int, P: int) -> tuple:
    """(u-1)^(-p) log(u-1)^q re-expanded around u, truncated at order P."""
    if p:
        base = {(p + t, 0): Fraction(comb(p - 1 + t, t)) for t in range(P - p + 1)}
    else:
        base = {(0, 0): Fraction(1)}
    if not q:
        return _frac_items(base)
    acc: dict = {}
    for i in range(q + 1):
        part = _mul_frac(base, dict(_log_shift_pow(q - i, P)), P)
        binq = comb(q, i)
        for (pp, qq), c in part.items():
            key = (pp, qq + i)
            acc[key] = acc.get(key, Fraction(0)) + c * binq
    return _frac_items({k: v for k, v in acc.items() if v})


_MAP_MP_CACHE: dict = {}


def _map_as_mp(kind: str, key: tuple, prec: int):
    """Convert a cached Fraction monomial map to mpf at the current precision."""
    ck = (kind, key, prec)
    val = _MAP_MP_CACHE.get(ck)
    if val is None:
        if kind == "em":
            raw = _em_monomial_map(*key)
        else:
            raw = _shift_monomial_map(*key)
        val = tuple((k, mp.mpf(c.numerator) / c.denominator) for k, c in raw)
        _MAP_MP_CACHE[ck] = val
    return val


def _apply_map(e: dict, kind: str, extra: tuple, out: dict, scale=None) -> None:
    """out += (map applied to e), where the map is selected per monomial."""
    prec = mp.prec
    for (p, q), c in e.items():
        if scale is not None:
            c = c * scale
        for key, fr in _map_as_mp(kind, (p, q) + extra, prec):
            cur = out.get(key)
            out[key] = c * fr if cur is None else cur + c * fr


def _eval_expansion(e: dict, u, logu) -> object:
    uinv = 1 / u
    # group by p to reuse powers
    total = mp.mpf(0)
    pow_cache = {0: mp.mpf(1)}
    log_cache = {0: mp.mpf(1)}
    for (p, q), c in e.items():
        up = pow_cache.get(p)
        if up is None:
            up = uinv**p
            pow_cache[p] = up
        lq = log_cache.get(q)
        if lq is None:
            lq = logu**q
            log_cache[q] = lq
        total += c * up * lq
    return total


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


def _normalize_z(z, wp: int):
    with mp.workdps(wp):
        zv = mp.mpmathify(z)
        if isinstance(zv, mp.mpc) and zv.imag == 0:
            zv = zv.real
        return zv


def _check_no_pole(z, label: str = "z") -> None:
    if (not isinstance(z, mp.mpc)) or z.imag == 0:
        zr = z.real if isinstance(z, mp.mpc) else z
        if zr <= -mp.mpf(1) / 2:
            near = mp.nint(zr)
            if near <= -1 and abs(zr - near) < mp.mpf(10) ** (-20):
                raise DomainError(f"{label} = {zr} hits a pole at a negative integer")


# direct evaluation: exact partial sums up to _CUTOFF, then tail expansions
# with _EM_TERMS Bernoulli corrections, truncated at order _EXPANSION_ORDER
_CUTOFF = 900
_EM_TERMS = 12
_EXPANSION_ORDER = 28

_HURWITZ_CACHE: dict = {}


def eval_hurwitz_direct(c, z, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Shifted nested sum sum_{0<n_1<...<n_r} prod (z+n_i)^(-l_i).

    Requires an admissible index and z away from the poles {-1, -2, ...};
    valid for any such z (no radius restriction).  Cutoff and tail-expansion
    parameters are the module constants above.
    """
    c = as_composition(c)
    if not c:
        return Approx(mp.mpf(1), mp.mpf(0))
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible; use eval_hurwitz_star")
    wp = (dps if dps is not None else ctx.working_dps) + 10
    zv = _normalize_z(z, wp)
    _check_no_pole(zv)
    key = (c, zv, wp)
    cached = _HURWITZ_CACHE.get(key)
    if cached is not None:
        return cached

    N, J, P = _CUTOFF, _EM_TERMS, _EXPANSION_ORDER
    with mp.workdps(wp):
        one = mp.mpf(1)
        # exact partial sums S_i(n) for n <= N
        invs = [None] * (N + 1)
        for n in range(1, N + 1):
            invs[n] = one / (zv + n)
        prev = [one] * (N + 1)
        partial_at_N = []
        for k in c:
            acc = mp.mpf(0)
            cur = [mp.mpf(0)] * (N + 1)
            for n in range(1, N + 1):
                acc = acc + invs[n] ** k * prev[n - 1]
                cur[n] = acc
            prev = cur
            partial_at_N.append(acc)

        uA = zv + (N + 1)
        logA = mp.log(uA)
        # asymptotic expansion of each level's partial sum beyond N
        F: dict = {(0, 0): one}
        for idx, k in enumerate(c):
            # g(m) = (z+m)^(-k) * F(z+m-1), re-expanded at u = z+m
            shifted: dict = {}
            _apply_map(F, "shift", (P,), shifted)
            g = {(p + k, q): coeff for (p, q), coeff in shifted.items()}
            n_part: dict = {}
            _apply_map(g, "em", (J,), n_part)
            const = _eval_expansion(g, uA, logA) - _eval_expansion(n_part, uA, logA)
            F = n_part
            F[(0, 0)] = F.get((0, 0), mp.mpf(0)) + partial_at_N[idx] + const

        value = F.get((0, 0), mp.mpf(0))
        leftover = sum(
            (abs(coeff) for (p, q), coeff in F.items() if p == 0 and q > 0),
            mp.mpf(0),
        )
        bound = mp.mpf(10) ** (-(wp - 8)) * (1 + abs(value)) + leftover * 100
        result = Approx(value, bound)
    _HURWITZ_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# regularized generating values
# ---------------------------------------------------------------------------


def tau_value(z, T_value, ctx: PrecisionContext):
    """Generating value assigned to the single part (1): T - psi(1+z) - gamma."""
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        return mp.mpmathify(T_value) - mp.digamma(1 + zv) - mp.euler


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


def eval_hurwitz_star(x, z, T_value, ctx: PrecisionContext) -> Approx:
    """Regularized generating value of a word or combination, |z| <= 1/2.

    Computed through the regularization homomorphism: write the index as a
    T-polynomial in admissible words, evaluate admissible words with
    :func:`eval_hurwitz_direct` and substitute the depth-1 generating value
    for T.  Agrees with the term-by-term Taylor route inside the radius.
    """
    wp = ctx.working_dps + 10
    zv = _normalize_z(z, wp)
    with mp.workdps(wp):
        if abs(zv) > mp.mpf("0.5") * (1 + mp.mpf(10) ** -12):
            raise DomainError("regularized Hurwitz values are evaluated for |z| <= 1/2")
        tp = x if isinstance(x, TPoly) else regularize(x)
        tau = tau_value(zv, T_value, ctx)
        total = mp.mpf(0)
        bound = mp.mpf(0)
        for t, combo in tp.items():
            part = mp.mpf(0)
            pbound = mp.mpf(0)
            for w, q in combo.items():
                qm = mp.mpf(q.numerator) / q.denominator
                hv = eval_hurwitz_direct(w, zv, ctx)
                part += qm * hv.value
                pbound += abs(qm) * hv.bound
            tpow = tau**t if t else mp.mpf(1)
            total = total + tpow * part
            bound += abs(tpow) * pbound
        return Approx(total, bound + mp.mpf(10) ** (-(wp - 6)))


# ---------------------------------------------------------------------------
# literal Taylor route
# ---------------------------------------------------------------------------

_SHIFT_TPOLY_CACHE: dict = {}
_TAYLOR_SLACK = 10  # extra digits asked of the Taylor route's truncation order


def shifted_tpoly(c, a: int) -> TPoly:
    """Regularized expansion of the order-a shifted value of an index."""
    c = as_composition(c)
    key = (c, a)
    tp = _SHIFT_TPOLY_CACHE.get(key)
    if tp is None:
        tp = regularize(shift_expand(a, c))
        _SHIFT_TPOLY_CACHE[key] = tp
    return tp


def eval_shifted(c, a: int, T_value, ctx: PrecisionContext, dps: Optional[int] = None) -> Approx:
    """Numeric order-a shifted value of an index at a given T."""
    return eval_tpoly(shifted_tpoly(c, a), T_value, ctx, dps=dps)


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
            cv = eval_shifted(c, a, T, ctx, dps=dps_a)
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
