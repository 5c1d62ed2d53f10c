"""T-polynomials, the regularization homomorphism, and the antipode sum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvparity import (
    PiGradedExpr,
    TPoly,
    WordCombo,
    antipode_combo,
    compositions_up_to,
    is_admissible,
    regularize,
    shift_expand,
    star_expand,
    stuffle,
)


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
    z2 = TPoly.from_word((2,))
    assert one * z2 == z2
    assert (z2 - z2).is_zero
    assert z2.shift_t(2).t_degree == 2
    prod = z2 * z2
    assert prod == TPoly({0: WordCombo({(2, 2): 2, (4,): 1})})
    assert -(-z2) == z2
    assert 2 * z2 - z2 == z2
    assert hash(z2 + z2) == hash(z2 * 2)
    assert (one + z2.shift_t(1)) * z2 == z2 + (z2 * z2).shift_t(1)


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


@settings(max_examples=30, deadline=None)
@given(_combos, _tpolys, _pigradeds)
def test_sparse_maps_of_different_classes_never_equal(a, b, c):
    assert a != b and b != c and a != c
    assert WordCombo.zero() != TPoly.zero() != PiGradedExpr.zero()


def test_regularize_admissible_is_identity():
    assert regularize((3, 2)) == TPoly.from_word((3, 2))
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
