"""T-polynomials, the regularization homomorphism, and the antipode sum."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvparity import (
    PiGradedExpr,
    PiTerm,
    TPoly,
    WordCombo,
    antipode_combo,
    build_main2_identity,
    clear_caches,
    compositions_up_to,
    is_admissible,
    reduce_main,
    reduce_main3,
    regularize,
    shift_expand,
    star_expand,
    stuffle,
)
from mzvparity import reduction, regularization
from mzvparity.harmonic import _decode, _encode


@st.composite
def compositions(draw, max_weight=6):
    w = draw(st.integers(min_value=1, max_value=max_weight))
    parts = []
    while w > 0:
        p = draw(st.integers(min_value=1, max_value=w))
        parts.append(p)
        w -= p
    return tuple(parts)


def test_tpoly_rejects_divergent_words():
    with pytest.raises(ValueError):
        TPoly({0: WordCombo.word((2, 1))})
    with pytest.raises(ValueError):
        TPoly({-1: WordCombo.word((2,))})


def test_tpoly_ring_ops():
    one = TPoly.one()
    T = regularize((1,))
    z2 = TPoly({0: {(2,): 1}})
    assert one * z2 == z2
    assert (z2 - z2).is_zero
    assert T * T * z2 == TPoly({2: WordCombo.word((2,))})
    assert (T * T * z2).t_degree == 2
    prod = z2 * z2
    assert prod == TPoly({0: WordCombo({(2, 2): 2, (4,): 1})})
    assert -(-z2) == z2
    assert 2 * z2 - z2 == z2
    assert hash(z2 + z2) == hash(z2 * 2)
    assert (one + T * z2) * z2 == z2 + T * (z2 * z2)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_admissible = compositions(5).map(lambda c: c if is_admissible(c) else c + (2,))
_combos = st.dictionaries(compositions(5), _fractions, max_size=4).map(WordCombo)
_tpolys = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.dictionaries(_admissible, _fractions, max_size=3).map(WordCombo),
    max_size=3,
).map(TPoly)
_pigradeds = st.dictionaries(st.sampled_from([0, 2, 4]), _tpolys, max_size=3).map(
    PiGradedExpr
)
_same_class_pairs = st.one_of(*(st.tuples(s, s) for s in (_combos, _tpolys, _pigradeds)))


@settings(max_examples=60, deadline=None)
@given(_same_class_pairs, _fractions.filter(bool))
def test_sparse_map_linear_laws(pair, q):
    """WordCombo, TPoly and PiGradedExpr share one Q-vector-space core."""
    x, y = pair
    x2 = (x + y) - y
    assert x2 == x
    assert hash(x2) == hash(x)
    assert not (x - x) and (x - x).is_zero
    assert -(-x) == x
    assert x + (-x) == x - x
    assert (x * q) * (1 / q) == x
    assert q * x == x * q
    assert (x * 0).is_zero
    assert len(x * q) == len(x)


def _assert_canonical(m) -> None:
    """One positive int denominator and int numerators without zeros, in
    lowest terms: the storage that makes equal maps store equal data."""
    assert type(m._den) is int and m._den > 0
    assert all(type(n) is int and n for n in m._nums.values())
    assert gcd(m._den, *m._nums.values()) == 1


@settings(max_examples=60, deadline=None)
@given(_same_class_pairs, _fractions)
def test_sparse_map_storage_is_canonical(pair, q):
    x, y = pair
    for m in (x, y, x + y, x - y, x * q, -x, x + x):
        _assert_canonical(m)
    # equal maps built by different routes store the same data
    for a, b in [
        ((x + y) - y, x),
        (x + x, 2 * x),
        (type(x)(dict(x.items())), x),
        ((x * 3) * Fraction(1, 3), x),
    ]:
        assert (a._den, a._nums) == (b._den, b._nums)
        assert a == b and hash(a) == hash(b)
    # len counts the terms of a WordCombo, and the grades of the others
    assert len(x) == len(x.items())
    if isinstance(x, WordCombo):
        assert len(x) == len(list(x.words()))


def test_len_counts_terms_of_a_combination_and_grades_of_the_rest():
    tp = TPoly({0: {(2,): 1, (3,): 1, (2, 2): 1}, 1: {(2,): 1}})
    assert len(tp.coeff(0)) == 3
    assert len(tp) == 2
    assert len(PiGradedExpr({0: tp, 2: tp})) == 2
    assert len(PiGradedExpr({4: tp})) == 1


def test_repr_of_each_expression_class():
    """Grades in sorted order, words as zeta(...) with their Fractions, and
    "0" for a zero expression."""
    combo = WordCombo({(2,): Fraction(1, 2), (1, 2): -1})
    assert repr(combo) == "(-1)*zeta(1,2) + (1/2)*zeta(2)"
    tp = TPoly({0: {(3,): 1}, 1: {(2,): Fraction(-1, 3)}})
    assert repr(tp) == "[(1)*zeta(3)] + T*[(-1/3)*zeta(2)]"
    e = PiGradedExpr({0: {0: {(3,): 2}}, 2: {1: {(): Fraction(1, 6)}}})
    assert repr(e) == "([(2)*zeta(3)]) + pi^2*(T*[(1/6)*zeta()])"
    assert [repr(PiTerm(q, p)) for q, p in ((Fraction(1, 6), 2), (Fraction(3, 4), 0))] == [
        "(1/6)*pi^2",
        "3/4",
    ]
    assert {repr(x) for x in (WordCombo(), TPoly(), PiGradedExpr(), PiTerm.zero())} == {"0"}


def test_sums_keep_the_grade_order_of_their_terms():
    """A grade whose terms all cancel but which gains new ones keeps its
    place: grades are summed in floating point in this order."""
    x = TPoly({0: {(2,): 1}, 1: {(3,): 1}})
    y = TPoly({0: {(2,): -1, (4,): 1}})
    assert [t for t, _ in (x + y).items()] == [0, 1]
    assert [p for p, _ in (PiGradedExpr({0: x, 2: x}) - PiGradedExpr({0: -y})).items()] == [0, 2]


def test_exact_layer_refuses_inexact_input():
    z2 = WordCombo.word((2,))
    for make in (
        lambda: z2 * 0.1,
        lambda: 0.1 * z2,
        lambda: TPoly.one() * 0.5,
        lambda: WordCombo({(2,): 0.5}),
        lambda: WordCombo.word((2,), 0.5),
        lambda: TPoly({0: {(2,): 0.5}}),
        lambda: PiGradedExpr({0: {0: {(2,): 0.25}}}),
        lambda: PiTerm(0.5, 2),
        lambda: PiTerm(Fraction(1, 2), 2) * 0.5,
    ):
        with pytest.raises(TypeError):
            make()
    for make in (
        lambda: TPoly({True: z2}),
        lambda: TPoly({1.0: z2}),
        lambda: PiGradedExpr({2.0: TPoly.one()}),
        lambda: PiGradedExpr({False: TPoly.one()}),
    ):
        with pytest.raises(ValueError):
            make()
    # exact scalars of any Rational type are taken
    assert z2 * Fraction(1, 2) == WordCombo({(2,): Fraction(1, 2)})
    assert PiTerm(1, 2) * Fraction(1, 2) == PiTerm(Fraction(1, 2), 2)


@settings(max_examples=30, deadline=None)
@given(_combos, _tpolys, _pigradeds)
def test_sparse_maps_of_different_classes_never_equal(a, b, c):
    assert a != b and b != c and a != c
    assert WordCombo.zero() != TPoly.zero() != PiGradedExpr.zero()


def test_regularize_admissible_is_identity():
    assert regularize((3, 2)) == TPoly({0: {(3, 2): 1}})
    assert regularize(()) == TPoly.one()


def test_regularize_single_one_is_T():
    assert regularize((1,)) == TPoly({1: WordCombo.word(())})


def test_regularize_peels_trailing_one():
    # (2,1) = (1)*(2) - (1,2) - (3) under the stuffle relation
    expected = TPoly(
        {0: WordCombo({(1, 2): -1, (3,): -1}), 1: WordCombo.word((2,))}
    )
    assert regularize((2, 1)) == expected
    # consistency with the product: reg((1)) * reg((2)) = reg((1)*(2))
    assert regularize((1,)) * regularize((2,)) == regularize(stuffle((1,), (2,)))


def test_regularize_linear_extension():
    combo = WordCombo({(2, 1): Fraction(1, 2), (3,): 1})
    assert regularize(combo) == regularize((2, 1)) * Fraction(1, 2) + regularize((3,))


@settings(max_examples=50, deadline=None)
@given(compositions(), compositions())
def test_regularize_is_homomorphism(u, v):
    assert regularize(stuffle(u, v)) == regularize(u) * regularize(v)


@settings(max_examples=50, deadline=None)
@given(compositions())
def test_regularize_t_degree_counts_trailing_ones(c):
    tp = regularize(c)
    if is_admissible(c):
        assert tp.t_degree == 0
    else:
        trailing = 0
        for k in reversed(c):
            if k != 1:
                break
            trailing += 1
        assert tp.t_degree == trailing


def test_antipode_j0_is_unit():
    assert antipode_combo(0, (4, 1, 2)) == TPoly.one()


def test_antipode_vanishes_examples():
    assert antipode_combo(1, (5, 3)).is_zero
    assert antipode_combo(2, (1, 2)).is_zero
    assert antipode_combo(3, (1, 1, 1)).is_zero


def test_antipode_rejects_bad_j():
    with pytest.raises(ValueError):
        antipode_combo(3, (1, 2))
    with pytest.raises(ValueError):
        antipode_combo(-1, (1, 2))
    for j in (True, 1.0):
        with pytest.raises(ValueError):
            antipode_combo(j, (1, 2))


def test_antipode_reads_the_head_sum_cache():
    """antipode_combo regularizes A_0 of the head as the correction sum
    caches it, so that one module computes the alternating cut sum."""
    clear_caches()
    assert antipode_combo(2, (1, 2, 3)).is_zero
    assert reduction._head_sum.cache_info().misses == 1


def test_antipode_exhaustive_small():
    for c in compositions_up_to(6):
        for j in range(1, len(c) + 1):
            assert antipode_combo(j, c).is_zero, (c, j)


def _shift_combo(a, combo):
    acc = WordCombo.zero()
    for w, q in combo.items():
        acc = acc + shift_expand(a, w) * q
    return acc


@settings(max_examples=40, deadline=None)
@given(compositions(4), compositions(4), st.integers(min_value=0, max_value=3))
def test_shift_expansion_is_multiplicative(u, v, order):
    """The Taylor-shift family is compatible with the stuffle product.

    sum_{a+b=order} shift_a(u) * shift_b(v) == shift_order(u * v); this is
    what lets generating values over shifted indices be evaluated through
    the regularization homomorphism.
    """
    lhs = WordCombo.zero()
    for a in range(order + 1):
        lhs = lhs + stuffle(shift_expand(a, u), shift_expand(order - a, v))
    rhs = _shift_combo(order, stuffle(u, v))
    assert lhs == rhs


def test_star_expand_of_admissible_regularizes_at_degree_zero():
    tp = regularize(star_expand((2, 3)))
    assert tp.t_degree == 0


# --- the integer layer against a Fraction reference -------------------------


@lru_cache(maxsize=None)
def _ref_stuffle(u: tuple, v: tuple) -> dict:
    """Stuffle product of two bare words, {word: int}, by the recursion on
    leading parts."""
    if not u or not v:
        return {u + v: 1}
    out = Counter()
    for w, n in _ref_stuffle(u[1:], v).items():
        out[(u[0],) + w] += n
    for w, n in _ref_stuffle(u, v[1:]).items():
        out[(v[0],) + w] += n
    for w, n in _ref_stuffle(u[1:], v[1:]).items():
        out[(u[0] + v[0],) + w] += n
    return dict(out)


@lru_cache(maxsize=None)
def _ref_reg(w: tuple) -> dict:
    """reg(w) as {(t, word): Fraction}, peeling one trailing 1 at a time in
    Fractions: reg(w) = (T reg(v) - sum n_u reg(u)) / mult for v = w[:-1]."""
    if is_admissible(w):
        return {(0, w): Fraction(1)}
    v = w[:-1]
    prod = dict(_ref_stuffle(v, (1,)))
    mult = prod.pop(w)
    acc = Counter()
    for (t, u), q in _ref_reg(v).items():
        acc[(t + 1, u)] += q / mult
    for word, n in prod.items():
        for key, q in _ref_reg(word).items():
            acc[key] -= q * n / mult
    return {key: q for key, q in acc.items() if q}


def _ref_reg_combo(combo) -> dict:
    acc = Counter()
    for w, q in combo.items():
        for key, p in _ref_reg(w).items():
            acc[key] += q * p
    return {key: q for key, q in acc.items() if q}


def _ref_stuffle_combo(x, y) -> dict:
    acc = Counter()
    for u, p in x.items():
        for v, q in y.items():
            for w, n in _ref_stuffle(u, v).items():
                acc[w] += p * q * n
    return {w: q for w, q in acc.items() if q}


def _flat_tpoly(tp: TPoly) -> dict:
    """{(t, word): coeff} of a TPoly, asserting every coefficient is a Fraction
    (an int would pass an equality check, and so would a digest)."""
    flat = {}
    for t, combo in tp.items():
        for w, q in combo.items():
            assert type(q) is Fraction, (t, w, q)
            flat[(t, w)] = q
    return flat


def _trailing_ones(w: tuple) -> int:
    r = 0
    while r < len(w) and w[-1 - r] == 1:
        r += 1
    return r


def test_integer_form_of_every_word_up_to_weight_10():
    """r! reg(w) is integral and r! is the exact denominator, weight <= 10."""
    words = list(compositions_up_to(10))
    assert len(words) == 1023
    for w in words:
        r = _trailing_ones(w)
        ref = _ref_reg(w)
        assert max(q.denominator for q in ref.values()) == factorial(r), w
        assert _flat_tpoly(regularize(w)) == ref, w
        if r:
            R, by_t = regularization._regularize_divergent(_encode(w))
            assert R == factorial(r), w
            ints = {(t, _decode(u)): n for t, terms in by_t.items() for u, n in terms.items()}
            assert all(type(n) is int and n for n in ints.values()), w
            assert {key: Fraction(n, R) for key, n in ints.items()} == ref, w


_odd_fractions = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40).filter(bool),
    st.sampled_from([1, 2, 3, 6, 7, 1009, 3 * 7 * 1009]),
)
_odd_combos = st.dictionaries(compositions(6), _odd_fractions, min_size=1, max_size=5).map(
    WordCombo
)


@settings(max_examples=60, deadline=None)
@given(_odd_combos, _odd_combos)
def test_integer_products_and_regularization_match_fractions(x, y):
    assert _flat_tpoly(regularize(x)) == _ref_reg_combo(x)
    prod = stuffle(x, y)
    assert all(type(q) is Fraction for _, q in prod.items())
    assert dict(prod.items()) == _ref_stuffle_combo(x, y)
    assert _flat_tpoly(regularize(prod)) == _ref_reg_combo(prod)
    expected = Counter()
    for (s, u), p in _ref_reg_combo(x).items():
        for (t, v), q in _ref_reg_combo(y).items():
            for w, n in _ref_stuffle(u, v).items():
                expected[(s + t, w)] += p * q * n
    assert _flat_tpoly(regularize(x) * regularize(y)) == {
        key: q for key, q in expected.items() if q
    }


def test_public_exact_results_carry_fractions_only():
    for c in compositions_up_to(6):
        combos = [star_expand(c), shift_expand(2, c), stuffle(c, c)]
        tpolys = [regularize(c), antipode_combo(len(c), c), regularize(shift_expand(1, c))]
        exprs = [build_main2_identity(c)]
        if sum(c) % 2 != len(c) % 2:
            exprs.append(reduce_main3(c).expanded)
            if is_admissible(c):
                exprs.append(reduce_main(c).expanded)
        tpolys += [tp for e in exprs for _, tp in e.items()]
        combos += [combo for tp in tpolys for _, combo in tp.items()]
        for combo in combos:
            assert all(type(q) is Fraction for _, q in combo.items()), c
        for m in combos + tpolys + exprs:
            _assert_canonical(m)
