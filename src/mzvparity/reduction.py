"""Parity reduction: rewrite opposite-parity zeta indices in lower depth.

The central objects are pi^2-graded combinations of T-polynomials
(:class:`PiGradedExpr`, the outer level of the nested sparse maps:
pi-exponent -> ``TPoly``, sharing its linear operations with ``TPoly`` and
``WordCombo``).  Reductions accumulate their terms in one flat
``{(pi_exp, t, word): coeff}`` dict and build the expression once at the
end.

:func:`reduce_main` produces, for an admissible
index whose weight and depth have opposite parity, an exact expression in
words of depth at most d-1 with coefficients in Q[pi^2] that evaluates to
the same real number; :func:`reduce_main3` is the variant for regularized
(not necessarily admissible) indices, which needs an extra correction sum
supported on all-ones tails; :func:`build_main2_identity` builds the
underlying star/plain alternating identity as a residual expression that
must evaluate to zero for every index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import NonAdmissibleError, ParityError
from .harmonic import (
    Composition,
    WordCombo,
    _iadd,
    _SparseMap,
    as_composition,
    depth,
    is_admissible,
    shift_expand,
    splits,
    star_expand,
    stuffle,
    weight,
)
from .regularization import TPoly, regularize
from .special import bernoulli, delta

__all__ = [
    "DisplayTerm",
    "PiGradedExpr",
    "ReductionResult",
    "build_main2_identity",
    "expand_depth_certificate",
    "reduce_main",
    "reduce_main3",
]


class PiGradedExpr(_SparseMap):
    """Finite map from even pi-exponents to T-polynomials, exact and pruned."""

    __slots__ = ()

    def __init__(self, grades=None):
        data: dict = {}
        if grades:
            for p, tp in grades.items():
                if p < 0 or p % 2:
                    raise ValueError(f"pi exponent must be even and >= 0, got {p}")
                if not isinstance(tp, TPoly):
                    tp = TPoly(tp)
                if not tp.is_zero:
                    data[p] = tp
        self._data = data

    @classmethod
    def _from_flat(cls, flat: dict) -> "PiGradedExpr":
        """Build from a flat {(pi_exp, t, word): coeff} accumulator."""
        grades: dict = {}
        for (p, t, w), q in flat.items():
            if not q:
                continue
            grades.setdefault(p, {}).setdefault(t, {})[w] = q
        data = {}
        for p, by_t in grades.items():
            tp = TPoly._raw(
                {t: WordCombo._raw(terms) for t, terms in by_t.items() if terms}
            )
            if not tp.is_zero:
                data[p] = tp
        return cls._raw(data)

    @property
    def t_degree(self):
        """Largest T-exponent in any grade: 0 when T-free, None when zero."""
        degs = [tp.t_degree for tp in self._data.values() if tp.t_degree]
        return max(degs) if degs else (0 if self._data else None)

    def pi_exponents(self):
        return sorted(self._data)

    def words(self) -> Iterator[Composition]:
        for tp in self._data.values():
            yield from tp.words()

    def __repr__(self) -> str:
        if not self._data:
            return "0"
        parts = []
        for p in sorted(self._data):
            head = "" if p == 0 else f"pi^{p}*"
            parts.append(f"{head}({self._data[p]!r})")
        return " + ".join(parts)


@dataclass(frozen=True)
class DisplayTerm:
    """Unexpanded product term of a reduction, for human-readable output.

    ``factors`` is a tuple of tagged factors: ``("word", comp)`` for a plain
    regularized value, ``("star", comp)`` for a star value, ``("shift", a,
    comp)`` for an order-a shifted value, and ``("delta", comp)`` for the
    all-ones correction symbol.
    """

    coeff: Fraction
    pi_exp: int
    factors: tuple


@dataclass(frozen=True)
class ReductionResult:
    """A reduction in both expanded (canonical) and display form."""

    composition: Composition
    expanded: PiGradedExpr
    display: tuple


def _acc_tpoly(flat: dict, pi_exp: int, tpoly: TPoly, coeff: Fraction) -> None:
    """flat += coeff * pi^pi_exp * tpoly over (pi_exp, t, word) keys."""
    if coeff:
        _iadd(
            flat,
            (((pi_exp, t, w), q) for t, combo in tpoly.items() for w, q in combo.items()),
            coeff,
        )


def _triple_terms(c: Composition):
    """Yield the expanded product terms of the double-index correction sum.

    For every 0 <= i < d, every slot ``c[i:] = rev(mid) + (k_j,) + tail``
    and every split a + 2m + b of k_j, yields
    ``(i, mid, tail, a, m, b, coeff, tpoly)`` where ``coeff`` carries the
    sign (-1)^(m+i+b+k_1+...+k_j) together with the rational part
    2^(2m) B_{2m} / (2m)! of the (2 pi)^(2m) prefactor, and ``tpoly`` is the
    regularized stuffle expansion of
    star(k_1..k_i) * shift_a(mid) * shift_b(tail).
    """
    for i in range(len(c)):
        head = star_expand(c[:i])
        head_parity = i + weight(c[:i])
        for mid, kj, tail, sign in splits(c[i:]):
            if not kj:
                continue  # a cut: only slots carry a part to split
            shifted_tails = {}
            for b in range(kj + 1):
                tl = shift_expand(b, tail)
                if not tl.is_zero:
                    shifted_tails[b] = tl
            for a in range(kj + 1):
                shifted_mid = shift_expand(a, mid)
                if shifted_mid.is_zero:
                    continue
                head_mid = stuffle(head, shifted_mid)
                for b in range(kj - a + 1):
                    if (kj - a - b) % 2:
                        continue
                    tl = shifted_tails.get(b)
                    if tl is None:
                        continue
                    m = (kj - a - b) // 2
                    tp = regularize(stuffle(head_mid, tl))
                    if tp.is_zero:
                        continue
                    term_sign = -sign if (head_parity + kj + m + b) % 2 else sign
                    coeff = Fraction(term_sign * 4**m) * bernoulli(2 * m) / factorial(2 * m)
                    yield i, mid, tail, a, m, b, coeff, tp


def _require_opposite_parity(c: Composition) -> None:
    if weight(c) % 2 == depth(c) % 2:
        raise ParityError(
            f"weight {weight(c)} and depth {depth(c)} of {c!r} have the same parity"
        )


def _reduce_expansion(c: Composition, with_all_ones: bool) -> ReductionResult:
    d = len(c)
    flat: dict = {}
    display = []

    # (plain - star)/2: the depth-d words cancel, leaving the proper
    # contractions with coefficient -1/2.
    contractions = star_expand(c) - WordCombo.word(c)
    _acc_tpoly(flat, 0, regularize(contractions), Fraction(-1, 2))
    display.append(DisplayTerm(Fraction(1, 2), 0, (("word", c),)))
    display.append(DisplayTerm(Fraction(-1, 2), 0, (("star", c),)))

    if with_all_ones:
        for i in range(d):
            dl = delta(c[i:])
            if dl.is_zero:
                continue
            sign = -1 if (d - i) % 2 else 1
            coeff = Fraction(-1, 2) * sign
            _acc_tpoly(
                flat, dl.pi_exp, regularize(star_expand(c[:i])), coeff * dl.coeff
            )
            display.append(DisplayTerm(coeff, 0, (("star", c[:i]), ("delta", c[i:]))))

    # double-index correction sum, scaled by -1/2
    for i, mid, tail, a, m, b, coeff, tp in _triple_terms(c):
        _acc_tpoly(flat, 2 * m, tp, Fraction(-1, 2) * coeff)
        factors = []
        if i > 0:
            factors.append(("star", c[:i]))
        if mid or a > 0:
            factors.append(("shift", a, mid))
        if tail or b > 0:
            factors.append(("shift", b, tail))
        display.append(DisplayTerm(Fraction(-1, 2) * coeff, 2 * m, tuple(factors)))

    return ReductionResult(c, PiGradedExpr._from_flat(flat), tuple(display))


def reduce_main3(c) -> ReductionResult:
    """Reduce a regularized opposite-parity index to depth <= d-1 words.

    Returns the exact right-hand side of the regularized reduction: the
    halved difference of the plain and star values (whose depth-d words
    cancel), the correction sum over all-ones tails, and the double-index
    correction sum with (2 pi)^(2m) Bernoulli coefficients.
    """
    c = as_composition(c)
    if not c:
        raise ValueError("the empty composition cannot be reduced")
    _require_opposite_parity(c)
    return _reduce_expansion(c, with_all_ones=True)


def reduce_main(c) -> ReductionResult:
    """Reduce an admissible opposite-parity index to depth <= d-1 words.

    Same expansion as :func:`reduce_main3` with the all-ones correction sum
    omitted (it vanishes term by term when the last part is >= 2); the
    result is T-free and every word has depth at most d-1.
    """
    c = as_composition(c)
    if not c:
        raise ValueError("the empty composition cannot be reduced")
    _require_opposite_parity(c)
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible (last part must be >= 2)")
    return _reduce_expansion(c, with_all_ones=False)


def build_main2_identity(c) -> PiGradedExpr:
    """Left minus right side of the star/plain alternating identity.

    The returned expression must evaluate to zero numerically for every
    nonempty index (at any value of T); it is not the symbolic zero because
    that would require stuffle relations between distinct words.
    """
    c = as_composition(c)
    if not c:
        raise ValueError("the identity needs a nonempty composition")
    d = len(c)
    w = weight(c)
    sign_d = -1 if d % 2 else 1
    sign_w = -1 if w % 2 else 1
    flat: dict = {}

    # LHS: (-1)^d star(c) - (-1)^w plain(c)
    lhs = star_expand(c) * Fraction(sign_d) - WordCombo.word(c, Fraction(sign_w))
    _acc_tpoly(flat, 0, regularize(lhs), Fraction(1))

    # minus RHS all-ones part: RHS contains -sum_i (-1)^i star(head) delta(tail)
    for i in range(d):
        dl = delta(c[i:])
        if dl.is_zero:
            continue
        sign_i = -1 if i % 2 else 1
        _acc_tpoly(flat, dl.pi_exp, regularize(star_expand(c[:i])), sign_i * dl.coeff)

    # minus RHS double-index sum: RHS contains (-1)^w * sum of base terms
    for *_, m, _, coeff, tp in _triple_terms(c):
        _acc_tpoly(flat, 2 * m, tp, Fraction(-sign_w) * coeff)

    return PiGradedExpr._from_flat(flat)


def expand_depth_certificate(e: PiGradedExpr, d: int) -> bool:
    """True iff every word occurring in the expansion has depth <= d-1."""
    return all(len(w) <= d - 1 for w in e.words())
