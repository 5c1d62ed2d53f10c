"""Parity reductions: exact forms, structural guarantees, identity residuals."""

import copy
import hashlib
from fractions import Fraction

import pytest
from mpmath import mp

from mzvparity import (
    NonAdmissibleError,
    ParityError,
    PiGradedExpr,
    TPoly,
    WordCombo,
    build_main2_identity,
    clear_caches,
    compositions_up_to,
    depth,
    eval_admissible_mzv,
    eval_pigraded,
    expand_depth_certificate,
    is_admissible,
    reduce_main,
    reduce_main3,
    regularize,
    shift_expand,
    star_expand,
    stuffle,
    sweep,
    weight,
)
from mzvparity import reduction, regularization
from mzvparity.harmonic import Composition, _add_stuffle, _decode, _encode, _star_ints
from mzvparity.render import latex_reduction, render_display_text, render_expanded_text
from mzvparity.special import delta

from oracles import triple_terms_by_suffix


def test_reduce_single_two_is_pi_squared_over_six():
    red = reduce_main((2,))
    expected = PiGradedExpr({2: TPoly({0: WordCombo.word((), Fraction(1, 6))})})
    assert red.expanded == expected


def test_reduce_one_two_is_zeta_three_exactly():
    # Euler: the depth-2 index (1,2) collapses to the single word (3); the
    # pi^2 T-terms cancel exactly within the expansion.
    red = reduce_main((1, 2))
    expected = PiGradedExpr({0: TPoly({0: WordCombo.word((3,))})})
    assert red.expanded == expected


def test_reduce_euler_numeric(ctx30):
    v = eval_pigraded(reduce_main((1, 2)).expanded, 0, ctx30).value
    z3 = eval_admissible_mzv((3,), ctx30).value
    assert abs(v - z3) < mp.mpf(10) ** -30


def test_reduce_preconditions():
    with pytest.raises(ParityError):
        reduce_main((1, 1, 1))
    with pytest.raises(NonAdmissibleError):
        reduce_main((2, 1))
    with pytest.raises(ParityError):
        reduce_main((2, 2))
    with pytest.raises(ParityError):
        reduce_main3((1, 3))
    with pytest.raises(ValueError):
        reduce_main(())


def test_reduce_main_equals_main3_on_admissible():
    for c in compositions_up_to(7):
        if not is_admissible(c) or weight(c) % 2 == depth(c) % 2:
            continue
        assert reduce_main(c).expanded == reduce_main3(c).expanded, c
        assert reduce_main(c).display == reduce_main3(c).display, c


def test_exact_builds_make_no_display_terms(monkeypatch, ctx30):
    """The display form is derived on read: the verifiers never build it."""
    def refuse(*args):
        raise AssertionError("a display term was built")

    monkeypatch.setattr(reduction, "DisplayTerm", refuse)
    for identity in ("main", "main2", "main3"):
        assert all(r.status != "fail" for r in sweep(6, identity, ctx30)), identity
    for c in compositions_up_to(6):
        build_main2_identity(c)


def test_reduce_main_structural_guarantees():
    for c in compositions_up_to(8):
        if not is_admissible(c) or weight(c) % 2 == depth(c) % 2:
            continue
        red = reduce_main(c)
        assert red.expanded.t_degree in (None, 0), c
        assert expand_depth_certificate(red.expanded, depth(c)), c
        assert all(p % 2 == 0 and p <= weight(c) for p, _ in red.expanded.items())


def _pinned_rows(indices, build, ordered=False):
    """Sorted (c, p, t, word, numerator, denominator) rows of every term,
    or ``ordered``: in the order in which the expressions store them."""
    rows = []
    for c in indices:
        for p, tp in build(c).items():
            for t, combo in tp.items():
                for word, q in combo.items():
                    rows.append((c, p, t, word, q.numerator, q.denominator))
    if not ordered:
        rows.sort()
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


# (rows, sha256) of every term of every reduction up to weight 8 and of
# every main2 identity up to weight 7
_PINNED_MAIN = (980, "15fbccd58dd95b7ab9a0d1df2b87ab89ce03c1daca8bfc41b7659a98703e1197")
_PINNED_MAIN2 = (1963, "f8b251349ac816dee1025fd3640fa4d8a692e1206a752690865c56f5eccb2e65")


def _opposite_admissible(max_weight):
    return [
        c
        for c in compositions_up_to(max_weight)
        if is_admissible(c) and weight(c) % 2 != depth(c) % 2
    ]


def test_exact_output_pinned():
    """Every term of every reduction up to weight 8 (main2: weight 7) is pinned.

    The digests were recorded from the original per-class ring
    implementation; any change to the exact output of the symbolic layer,
    not only to its value, shows up here.
    """
    assert _pinned_rows(_opposite_admissible(8), lambda c: reduce_main(c).expanded) == _PINNED_MAIN
    assert _pinned_rows(compositions_up_to(7), build_main2_identity) == _PINNED_MAIN2


# (rows, sha256) of the terms in stored order: reduce_main3 on every
# opposite-parity index up to weight 8 and main2 up to weight 7, recorded
# when the correction sum came to be summed slot by slot (_head_sum).
_ORDER_MAIN3 = (3644, "3d78ac044f05269393c9c80300183515473c99c01b46ca320fc0d489206ed8ef")
_ORDER_MAIN2 = (1963, "e772de9a97027a10bc48c58ae2a7542ce7543ddde5109ff0e1e5517f2b149d4d")


def test_term_order_pinned():
    """The terms are stored in the order in which the accumulators first
    reach them: the pi-grades in the order of the slot splits, and within
    a pi-grade the T-grades and words in the order of the slot-by-slot
    sum.  That order within a pi-grade decides the order in which the
    evaluators add the T-grades up in floating point; this test holds it,
    and :func:`test_pi_grade_order_pinned` holds the pi-grades alone."""
    indices = [c for c in compositions_up_to(8) if weight(c) % 2 != depth(c) % 2]
    assert _pinned_rows(indices, lambda c: reduce_main3(c).expanded, ordered=True) == _ORDER_MAIN3
    assert _pinned_rows(compositions_up_to(7), build_main2_identity, ordered=True) == _ORDER_MAIN2


# (expressions, sha256) of the pi-exponents of every main, main2 and main3
# expression of weight <= 10, each in stored order; recorded while the
# correction sum was still summed suffix by suffix.
_PI_GRADE_ORDER = (1790, "a755441562e52d1f875b3e0b71c6c1ff06b176ec6005abfdb73a484a9268ada2")


def test_pi_grade_order_pinned():
    """The evaluators add the pi-grades up in their stored order, so this
    order is what the floats of a report see beyond the T-grades."""
    odd = [c for c in compositions_up_to(10) if weight(c) % 2 != depth(c) % 2]
    builds = {
        "main": ([c for c in odd if is_admissible(c)], lambda c: reduce_main(c).expanded),
        "main2": (list(compositions_up_to(10)), build_main2_identity),
        "main3": (odd, lambda c: reduce_main3(c).expanded),
    }
    rows = [
        (kind, c, tuple(p for p, _ in build(c).items()))
        for kind, (indices, build) in builds.items()
        for c in indices
    ]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == _PI_GRADE_ORDER


def _nonzero(grades: dict) -> dict:
    """``grades`` without zero coefficients and without empty grades."""
    nonzero = {s: {w: n for w, n in words.items() if n} for s, words in grades.items()}
    return {s: words for s, words in nonzero.items() if words}


def test_triple_terms_match_the_per_suffix_oracle(monkeypatch):
    """Slot by slot, with the a = 0 terms that the antipode cancels left
    out, the correction sum has the nonzero grades of the per-suffix sum,
    in the same order, from the grade-0 seeds of both builders."""
    calls = []
    triple_terms = reduction._triple_terms

    def both(w, grades):
        expected = copy.deepcopy(grades)
        triple_terms(w, grades)
        triple_terms_by_suffix(w, expected)
        assert list(grades) == list(expected), _decode(w)
        assert _nonzero(grades) == _nonzero(expected), _decode(w)
        calls.append(w)

    monkeypatch.setattr(reduction, "_triple_terms", both)
    for c in compositions_up_to(9):
        build_main2_identity(c)
        if weight(c) % 2 != depth(c) % 2:
            reduce_main3(c)
    assert len(calls) == 511 + 255


def test_correction_sum_reads_the_slot_enumerator(monkeypatch):
    """The correction sum has no slot walk of its own: with :func:`_slots`
    yielding nothing, only the grade-0 contractions (plain - star)/2 stay."""
    c = (2, 1, 3)
    full = reduce_main3(c).expanded
    monkeypatch.setattr(reduction, "_slots", lambda c, even: iter(()))
    contractions = (regularize(c) - regularize(star_expand(c))) * Fraction(1, 2)
    assert reduce_main3(c).expanded == PiGradedExpr({0: contractions}) != full


def _antipode_ints(h: Composition, flip: int = -1) -> dict:
    """sum_i (-1)^i star(h[:i]) * rev(h[i:]), 0 <= i <= |h|, through the
    int-key stuffle, with the sign of the term i = ``flip`` reversed."""
    acc: dict = {}
    for i in range(len(h) + 1):
        sign = (-1 if i % 2 else 1) * (-1 if i == flip else 1)
        _add_stuffle(acc, _star_ints(_encode(h[:i])), {_encode(h[i:][::-1]): 1}, sign)
    return {w: n for w, n in acc.items() if n}


def test_antipode_sum_is_zero_before_regularization():
    """The a = 0 terms of every slot after the first sum to the antipode
    sum of the head, which is zero as a combination of words, before any
    regularization; reversing the sign of any one term leaves it nonzero."""
    heads = list(compositions_up_to(8))
    assert len(heads) == 255
    for h in heads:
        assert _antipode_ints(h) == {}, h
        public = sum(
            (stuffle(star_expand(h[:i]), h[i:][::-1]) * (-1) ** i for i in range(len(h) + 1)),
            WordCombo.zero(),
        )
        assert public.is_zero, h
        for i in range(len(h) + 1):
            assert _antipode_ints(h, flip=i), (h, i)


def test_clear_caches_rebuilds_the_pinned_output():
    clear_caches()
    for cached in (reduction._head_sum, reduction._shift, reduction._two_zeta):
        info = cached.cache_info()
        assert info.currsize == 0 and info.maxsize is not None
    # reversed, so that the head sums are cached in another order
    indices = _opposite_admissible(8)[::-1]
    assert _pinned_rows(indices, lambda c: reduce_main(c).expanded) == _PINNED_MAIN
    assert _pinned_rows(list(compositions_up_to(7))[::-1], build_main2_identity) == _PINNED_MAIN2


def test_sweep_leaves_shared_cache_entries_unchanged(ctx30):
    """The cached head sums, shift expansions and regularized words are
    shared dicts: a sweep that reads them must not change them."""
    def entries():
        heads = [
            reduction._head_sum(_encode(h), a)
            for h in compositions_up_to(6)
            for a in range(1, 8 - weight(h))
        ]
        shifts = [
            reduction._shift(a, _encode(w))
            for w in [(), *compositions_up_to(7)]
            for a in range(8 - weight(w))
        ]
        divergent = [
            regularization._regularize_divergent(_encode(w))
            for w in compositions_up_to(7)
            if not is_admissible(w)
        ]
        return heads + shifts + divergent

    clear_caches()
    sweep(7, "main2", ctx30)
    live = entries()
    before = copy.deepcopy(live)
    assert all(r.status == "pass" for r in sweep(7, "main2", ctx30))
    after = entries()
    assert all(x is y for x, y in zip(after, live))  # still the cached objects
    assert after == before


def _display_sum(display) -> PiGradedExpr:
    """Sum of the display terms, each regularized factor by factor.

    This is the per-term path (regularize every factor, multiply the
    T-polynomials, scale by the term's coefficient), kept here as an oracle
    for the per-grade accumulation in the reduction module.
    """
    total = PiGradedExpr.zero()
    for term in display:
        tp, coeff, pi_exp = TPoly.one(), term.coeff, term.pi_exp
        for kind, *args in term.factors:
            if kind == "word":
                tp = tp * regularize(args[0])
            elif kind == "star":
                tp = tp * regularize(star_expand(args[0]))
            elif kind == "shift":
                tp = tp * regularize(shift_expand(*args))
            else:
                dl = delta(args[0])
                coeff, pi_exp = coeff * dl.coeff, pi_exp + dl.pi_exp
        total = total + PiGradedExpr({pi_exp: tp * coeff})
    return total


def test_expansion_equals_sum_of_display_terms():
    cases = [(reduce_main, c) for c in compositions_up_to(7) if is_admissible(c)]
    cases += [(reduce_main3, c) for c in compositions_up_to(6)]
    for reduce, c in cases:
        if weight(c) % 2 == depth(c) % 2:
            continue
        red = reduce(c)
        assert red.expanded == _display_sum(red.display), (reduce.__name__, c)
        # no int coefficient leaks out of the integer accumulator
        for _, tp in red.expanded.items():
            for _, combo in tp.items():
                assert all(type(q) is Fraction for _, q in combo.items()), c


def test_depth_certificate_examples():
    assert expand_depth_certificate(reduce_main((1, 2)).expanded, 2)
    assert expand_depth_certificate(reduce_main((2,)).expanded, 1)
    depth2 = PiGradedExpr({0: TPoly({0: WordCombo.word((3, 2))})})
    assert not expand_depth_certificate(depth2, 2)
    assert expand_depth_certificate(depth2, 4)


def test_main2_identity_one_one_exact_form():
    # LHS - RHS collapses to 3 zeta(2) - pi^2/2, which vanishes numerically
    expr = build_main2_identity((1, 1))
    expected = PiGradedExpr(
        {
            0: TPoly({0: WordCombo.word((2,), 3)}),
            2: TPoly({0: WordCombo.word((), Fraction(-1, 2))}),
        }
    )
    assert expr == expected


def test_main2_identity_numeric_zero(ctx30):
    for c in [(2,), (1,), (1, 1), (2, 1), (1, 1, 1)]:
        expr = build_main2_identity(c)
        for T in (0, 1):
            v = eval_pigraded(expr, T, ctx30).value
            assert abs(v) < mp.mpf(10) ** -25, (c, T)


def test_main2_rejects_empty():
    with pytest.raises(ValueError):
        build_main2_identity(())


def test_reduce_main3_value_matches_regularized(ctx30):
    from mzvparity import eval_tpoly, regularize

    red = reduce_main3((2, 1))
    for T in (0, 1):
        lhs = eval_tpoly(regularize((2, 1)), T, ctx30).value
        rhs = eval_pigraded(red.expanded, T, ctx30).value
        assert abs(lhs - rhs) < mp.mpf(10) ** -25


def test_display_terms_well_formed():
    red = reduce_main3((1, 2))
    kinds = {"word", "star", "shift", "delta"}
    for term in red.display:
        assert term.pi_exp % 2 == 0
        for f in term.factors:
            assert f[0] in kinds
    text = render_display_text(red)
    assert "zeta" in text
    assert render_expanded_text(red.expanded) == "zeta(3)"


def test_render_signs_and_unit_coefficients():
    """A negative term follows a minus sign, a unit coefficient is left out
    before a factor, and a bare constant keeps its number."""
    e = PiGradedExpr({0: {0: {(3,): -1, (): Fraction(-1, 2)}, 1: {(2,): 1}}, 2: {0: {(): 1}}})
    assert render_expanded_text(e) == "-1/2\n  - zeta(3)\n  + T * zeta(2)\n  + pi^2"
    latex = latex_reduction(reduce_main((1, 2)))
    assert latex.endswith(r"&= \zeta(3)") and r" - \frac{1}{2}\,\zeta^{\star,*}(1,2)" in latex
    assert "+ -" not in latex and "+ -" not in render_display_text(reduce_main((1, 2)))


def test_unknown_display_factor_is_refused(monkeypatch):
    red = reduce_main((1, 2))
    bogus = reduction.DisplayTerm(Fraction(1), 0, (("bogus", (1,)),))
    monkeypatch.setattr(reduction.ReductionResult, "display", (bogus,))
    for render in (render_display_text, latex_reduction):
        with pytest.raises(ValueError, match="unknown factor kind"):
            render(red)
