"""Parity reduction: rewrite opposite-parity zeta indices in lower depth.

The central objects are pi^2-graded combinations of T-polynomials
(:class:`PiGradedExpr`: terms under keys ``(pi_exp, t, word)`` in the
integer sparse map that ``TPoly`` and ``WordCombo`` share, read as
pi-exponent -> ``TPoly``).  Within one pi-grade s every term of the
double-index correction sum has the same rational weight, a multiple of
the middle factor 2 zeta(s) / pi^s (:func:`_two_zeta`), and star, shift
and stuffle expansions have integer coefficients.
So reductions add the unregularized stuffle words of each grade to an
integer accumulator ``{s: {word: int}}`` and regularize each grade once
(regularization is linear), in integers over the grade's largest r!.
Every word of the build, in the accumulators and in the cache keys and
values, is the int key of :mod:`mzvparity.harmonic`.
The correction sum is summed slot by slot: for a slot j and a split
a + s + b of its part, the sum over the cuts i <= j of the head c[:j] is
A_a(c[:j]) * shift_b(c[j+1:]), and A_a(h) depends only on the head and
a.  It is cached per (head, a), so that a sweep computes it once per
process; the shift expansions are cached too, and
:func:`mzvparity.clear_caches` empties both.  A_0(h) is the antipode sum
of the quasi-shuffle algebra, zero for every nonempty head, so those
terms are not computed.  The sum of every slot term of the whole index
(:func:`_slot_sum`), over every middle order s >= 1, is the right-hand
side of the multitangent identity, with Psi_s(z) in the middle.
The regularized grades are summed in one flat ``{(pi_exp, t, word): int}``
map over the common denominator of their rational weights, which is the
expression's storage.  The unexpanded display form of a reduction is
not built with it: :attr:`ReductionResult.display` derives it on read.

:func:`reduce_main` produces, for an admissible index whose weight and
depth have opposite parity, an exact expression in words of depth at most
d-1 with coefficients in Q[pi^2] that evaluates to the same real number.
:func:`reduce_main3` is the variant for regularized indices, with an extra
correction sum on all-ones tails, and :func:`build_main2_identity` the
star/plain alternating identity, a residual expression that must evaluate
to zero; both are built by :func:`_alternating`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from .errors import NonAdmissibleError, ParityError
from .harmonic import (
    Composition,
    WordCombo,
    _add_stuffle,
    _decode,
    _encode,
    _iadd,
    _is_int,
    _shift_ints,
    _SparseMap,
    _star_ints,
    as_composition,
    depth,
    is_admissible,
    slot_splits,
    splits,
    weight,
)
from .regularization import TPoly, _regularize_ints, regularize
from .special import delta, even_zeta

__all__ = [
    "DisplayTerm",
    "PiGradedExpr",
    "ReductionResult",
    "antipode_combo",
    "build_main2_identity",
    "expand_depth_certificate",
    "reduce_main",
    "reduce_main3",
]


class PiGradedExpr(_SparseMap):
    """Finite map from even pi-exponents to T-polynomials, exact and pruned."""

    __slots__ = ()
    _view = TPoly
    _depth = 2

    def __init__(self, grades=None):
        terms = []
        for p, tp in (grades or {}).items():
            if not _is_int(p, 0) or p % 2:
                raise ValueError(f"pi exponent must be an even integer >= 0, got {p!r}")
            if not isinstance(tp, TPoly):
                tp = TPoly(tp)
            terms += (((p, t, _encode(w)), q) for t, combo in tp.items() for w, q in combo.items())
        super().__init__(terms)

    @classmethod
    def _from_flat(cls, flat: dict) -> "PiGradedExpr":
        """Build from a flat {(pi_exp, t, word): Fraction} map."""
        self = object.__new__(cls)
        _SparseMap.__init__(self, (((p, t, _encode(w)), q) for (p, t, w), q in flat.items()))
        return self

    @property
    def t_degree(self):
        """Largest T-exponent in any grade: 0 when T-free, None when zero."""
        return max((k[1] for k in self._nums), default=None)

    def _format(self, p, tp) -> str:
        return ("" if p == 0 else f"pi^{p}*") + f"({tp!r})"


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
    """A reduction ``(composition, expanded)``: the exact expansion, with
    the unexpanded display form derived from the composition on read."""

    composition: Composition
    expanded: PiGradedExpr

    @property
    def display(self) -> tuple:
        """The :class:`DisplayTerm` of every term, in expansion order: the
        halved plain and star values, then the all-ones corrections and the
        double-index correction sum, scaled by -1/2."""
        c, half = self.composition, Fraction(1, 2)
        terms = [DisplayTerm(half, 0, (("word", c),)), DisplayTerm(-half, 0, (("star", c),))]
        terms += (
            DisplayTerm(-half, 0, (("star", c[:i]), ("delta", c[i:])))
            for i in range(len(c))
            if not delta(c[i:]).is_zero
        )
        for i in range(len(c)):
            h = -1 if (i + weight(c[:i])) % 2 else 1
            head = (("star", c[:i]),) if i else ()
            for mid, a, s, b, tail, sign in _slots(c[i:], even=True):
                shifts = tuple(("shift", e, w) for e, w in ((a, mid), (b, tail)) if w)
                terms.append(DisplayTerm(half * _two_zeta(s) * sign * h, s, head + shifts))
        return tuple(terms)


# Called per grade of a build and per term of a display form; s <= 12 at the sweep cap.
@lru_cache(maxsize=64)
def _two_zeta(s: int) -> Fraction:
    """2 zeta(s) / pi^s for an even s >= 0, the middle factor of an even
    slot term (the z^0 coefficient of Psi_s); -1 at s = 0, as zeta(0) = -1/2."""
    return 2 * even_zeta(s // 2).coeff if s else Fraction(-1)


# Mids and tails recur across the suffixes of an index and across indices.
# There are 8,191 pairs (a, word) with a + weight(word) <= 12, the sweep cap.
_shift = lru_cache(maxsize=1 << 13)(_shift_ints)


def _slots(c: Composition, even: bool):
    """The nonzero terms ``(mid, a, s, b, tail, sign)`` of the slot sum of c.

    These are the entries of :func:`slot_splits`, in its order and with its
    sign (-1)^(a + weight of the parts of c before the slot), whose middle
    order s is even if ``even`` (the pi^s of the correction sums) and
    s >= 1 otherwise (Psi_s(z), with Psi_0 = 0).  A shift of the empty word
    is zero unless its order is 0, so such terms are left out.
    """
    for mid, a, s, b, tail, sign in slot_splits(c):
        if (s % 2 if even else not s) or (a and not mid) or (b and not tail):
            continue
        yield mid, a, s, b, tail, sign


def _slot_sum(w: int, even: bool = True) -> dict:
    """``{s: {word: int}}``: the slot sum of the index w, by middle order s.

    For every term of :func:`_slots` adds ``sign * shift_a(mid) *
    shift_b(tail)`` to grade s, as unregularized stuffle words.
    """
    by_s: dict = {}
    for mid, a, s, b, tail, sign in _slots(_decode(w), even):
        shift_mid, shift_tail = _shift(a, _encode(mid)), _shift(b, _encode(tail))
        _add_stuffle(by_s.setdefault(s, {}), shift_mid, shift_tail, sign)
    return by_s


# Every index with the head h reads A_a(h).  There are 4,083 pairs (h, a)
# with h nonempty, a >= 1 and weight(h) + a <= 12, the sweep cap, and
# A_0(()) is one more.  The cached dicts are shared: callers only read them.
@lru_cache(maxsize=1 << 12)
def _head_sum(h: int, a: int) -> dict:
    """A_a(h) = sum_i (-1)^i star(h[:i]) * shift_a(rev h[i:]), 0 <= i <= |h|.

    A {word: int} map without zeros.  A_0(h) is the antipode sum of the
    quasi-shuffle algebra, zero for every nonempty h (:func:`antipode_combo`
    regularizes it), and A_0(()) = 1; A_a(()) = 0 for a >= 1.
    """
    c = _decode(h)
    acc: dict = {}
    for i in range(len(c) + 1):
        rev_tail = _encode(c[i:][::-1])
        _add_stuffle(acc, _star_ints(_encode(c[:i])), _shift(a, rev_tail), -1 if i % 2 else 1)
    return {w: n for w, n in acc.items() if n}


def _triple_terms(w: int, grades: dict) -> None:
    """Add the double-index correction sum to ``grades``.

    The term of a cut i <= j, a slot j and a split a + s + b of k_j, s even,
    is ``sign * star(c[:i]) * shift_a(rev c[i:j]) * shift_b(c[j+1:])`` in
    grade s, with sign = (-1)^(i+a+k_1+...+k_j).  Summed over i it is
    ``(-1)^(a+k_1+...+k_j) * A_a(c[:j]) * shift_b(c[j+1:])``
    (:func:`_head_sum`), which is added as stuffle words to the integer
    accumulator ``grades[s]`` ({word: int}); the caller applies a multiple
    of the middle factor :func:`_two_zeta`.  The terms are read from
    :func:`_slots`, with its sign; the a = 0 terms of a nonempty head are
    left out, as A_0(h) = 0.  Every grade is added when :func:`_slots`
    first reaches it, which is the order of the pi-grades of the expression.
    """
    for mid, a, s, b, tail, sign in _slots(_decode(w), even=True):
        terms = grades.setdefault(s, {})
        if a or not mid:
            _add_stuffle(terms, _head_sum(_encode(mid[::-1]), a), _shift(b, _encode(tail)), sign)


def antipode_combo(j: int, c) -> TPoly:
    """Alternating star/reversed-plain convolution, regularized.

    Returns the regularized expansion of
    ``sum_{i=0..j} (-1)^i  star(k_1..k_i) * (k_j, ..., k_{i+1})``, which is
    A_0(c[:j]) (:func:`_head_sum`).  The result is exactly zero for every
    j >= 1 and the unit for j = 0.
    """
    c = as_composition(c)
    if not _is_int(j, 0) or j > len(c):
        raise ValueError(f"j must be an int with 0 <= j <= depth, got j={j!r} for {c!r}")
    return regularize(WordCombo._raw(1, _head_sum(_encode(c[:j]), 0)))


def _all_ones(c: Composition, coeff):
    """Yield the parts of coeff * sum_i star(c[:i]) delta(c[i:]).

    delta(c[i:]) is zero unless c[i:] is an even number d - i of ones, and
    its pi-exponent d - i gives each term a grade of its own.
    """
    for i in range(len(c)):
        dl = delta(c[i:])
        if not dl.is_zero:
            yield dl.pi_exp, coeff * dl.coeff, _star_ints(_encode(c[:i]))


def _alternating(w: int, seed: dict, scale) -> list:
    """The parts of the alternating identity of the index w: the grade-0
    ``seed`` ({word: int}) joined to the grades of :func:`_triple_terms`,
    grade s scaled by ``scale * 2 zeta(s)`` (2 zeta(0) = -1)."""
    grades = {0: seed}
    _triple_terms(w, grades)
    return [(s, scale * _two_zeta(s), words) for s, words in grades.items()]


def _sum_regularized(parts: list) -> PiGradedExpr:
    """The sum of q pi^p reg(words) over parts (p, q, {word: int}).

    Regularization is linear, so each part's integer combination is
    regularized once, in integers over its largest r! R.  The results are
    summed in one flat {(p, t, word): int} map over the common denominator
    of the q / R, which is the expression's storage.
    """
    regs = [(p, q / R, acc) for p, q, words in parts for R, acc in [_regularize_ints(words)]]
    D = lcm(*(q.denominator for _, q, _ in regs))
    flat: dict = {}
    for p, q, acc in regs:
        items = (((p, t, w), k) for t, terms in acc.items() for w, k in terms.items())
        _iadd(flat, items, q.numerator * (D // q.denominator))
    return PiGradedExpr._raw(D, flat)


def _nonempty(c) -> Composition:
    """c, refused if empty: no identity has a case at the empty index."""
    c = as_composition(c)
    if not c:
        raise ValueError("the identities and reductions need a nonempty composition")
    return c


def _opposite_parity(c) -> Composition:
    """c, refused unless nonempty with weight and depth of opposite parity."""
    c = _nonempty(c)
    if weight(c) % 2 == depth(c) % 2:
        raise ParityError(
            f"weight {weight(c)} and depth {depth(c)} of {c!r} have the same parity"
        )
    return c


def reduce_main3(c) -> ReductionResult:
    """Reduce a regularized opposite-parity index to depth <= d-1 words.

    Returns the exact right-hand side of the regularized reduction: the
    correction sum over all-ones tails, then the alternating identity at
    scale 1/2 with the seed star(c) - c, whose depth-d word cancels.  That
    is regularize(c) + (-1)^w / 2 times :func:`build_main2_identity`.
    """
    c = _opposite_parity(c)
    # an admissible c has no all-ones tail, so delta is not called on its cuts
    parts = () if is_admissible(c) else _all_ones(c, Fraction(-1, 2))
    w = _encode(c)
    seed = _star_ints(w)
    del seed[w]
    return ReductionResult(c, _sum_regularized([*parts, *_alternating(w, seed, Fraction(1, 2))]))


def reduce_main(c) -> ReductionResult:
    """Reduce an admissible opposite-parity index to depth <= d-1 words.

    :func:`reduce_main3` behind an admissibility check: its all-ones
    correction sum is empty when the last part is >= 2, so the result is
    T-free and every word has depth at most d-1.
    """
    c = _opposite_parity(c)
    if not is_admissible(c):
        raise NonAdmissibleError(f"{c!r} is not admissible (last part must be >= 2)")
    return reduce_main3(c)


def build_main2_identity(c) -> PiGradedExpr:
    """Left minus right side of the star/plain alternating identity.

    The returned expression must evaluate to zero numerically for every
    nonempty index (at any value of T); it is not the symbolic zero because
    that would require stuffle relations between distinct words.  It is the
    star convolution of :func:`_fund_eq2_sides` over the suffixes of c.
    """
    c = _nonempty(c)
    sign_d = -1 if len(c) % 2 else 1
    sign_w = -1 if weight(c) % 2 else 1
    # LHS - RHS: the alternating identity at scale (-1)^w, whose grade 0
    # (2 zeta(0) = -1) is the LHS (-1)^d star(c) - (-1)^w c, and minus the RHS
    # all-ones part -sum_i (-1)^i star(head) delta(tail), (-1)^i = (-1)^d.
    w = _encode(c)
    seed = {word: -sign_w * sign_d for word in _star_ints(w)}
    seed[w] += 1
    return _sum_regularized([*_alternating(w, seed, sign_w), *_all_ones(c, sign_d)])


def _fund_eq2_sides(c: Composition) -> tuple:
    """``(lhs, rhs)`` of the reflection identity for the z^0 coefficient.

    lhs sums sign * reg(rev_head * tail) over the d+1 cuts of :func:`splits`.
    rhs is delta(c) + sum_s 2 zeta(s) S_s: the slot sum of c with the
    middle 2 zeta(s) (:func:`_two_zeta`, with 2 zeta(0) = -1), S_s being
    the regularized grade s of :func:`_slot_sum`.
    """
    cuts: dict = {}
    for rev_head, _, tail, sign in islice(splits(c), len(c) + 1):
        _add_stuffle(cuts, {_encode(rev_head): 1}, {_encode(tail): 1}, sign)
    dl = delta(c)
    parts = [] if dl.is_zero else [(dl.pi_exp, dl.coeff, {0: 1})]
    for s, words in _slot_sum(_encode(c)).items():
        parts.append((s, _two_zeta(s), words))
    return _sum_regularized([(0, Fraction(1), cuts)]), _sum_regularized(parts)


def _bouillot_grades(c: Composition) -> dict:
    """``{s: R_s}``: the right-hand side of the multitangent identity is
    delta(c) + sum_s Psi_s(z) R_s(T), with R_s the regularized grade s of
    the slot sum of c over every middle order s >= 1 (:func:`_slot_sum`)."""
    slot_sum = _slot_sum(_encode(c), even=False)
    return {s: regularize(WordCombo._raw(1, words)) for s, words in slot_sum.items()}


def expand_depth_certificate(e: PiGradedExpr, d: int) -> bool:
    """True iff every word occurring in the expansion has depth <= d-1."""
    return all(k[-1].bit_count() <= d - 1 for k in e._nums)
