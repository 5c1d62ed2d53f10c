"""Compositions, word combinations, and the stuffle/star/shift expansions."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mzvparity import (
    WordCombo,
    as_composition,
    compositions_of,
    compositions_up_to,
    depth,
    eval_admissible_mzv,
    eval_word_combo,
    is_admissible,
    shift_expand,
    star_expand,
    stuffle,
    weight,
)
from mzvparity.harmonic import (
    _decode,
    _encode,
    _shift_ints,
    _star_ints,
    _stuffle_words,
    slot_splits,
    splits,
)


@st.composite
def compositions(draw, max_weight=8):
    w = draw(st.integers(min_value=1, max_value=max_weight))
    parts = []
    while w > 0:
        p = draw(st.integers(min_value=1, max_value=w))
        parts.append(p)
        w -= p
    return tuple(parts)


def test_composition_validation():
    assert as_composition([3, 1, 2]) == (3, 1, 2)
    assert as_composition(()) == ()
    with pytest.raises(ValueError):
        as_composition((0, 2))
    with pytest.raises(ValueError):
        as_composition((2, -1))
    with pytest.raises(ValueError):
        as_composition((1.5, 2))


def test_weight_depth_admissibility():
    assert weight((5, 3, 1)) == 9
    assert depth((5, 3, 1)) == 3
    assert weight(()) == 0 and depth(()) == 0
    assert is_admissible(())
    assert is_admissible((1, 2))
    assert not is_admissible((2, 1))


def _lex_compositions(w: int):
    """The compositions of w in lexicographic order, by recursion on the
    first part."""
    if w == 0:
        yield ()
    for first in range(1, w + 1):
        for rest in _lex_compositions(w - first):
            yield (first,) + rest


def test_composition_enumeration_order():
    assert list(compositions_of(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for w in range(15):
        assert list(compositions_of(w)) == list(_lex_compositions(w)), w
    assert list(compositions_of(-1)) == [] == list(compositions_up_to(-1))
    # a weight that is not an int is refused, not read as another weight
    for bad in (1.5, True, "3", None):
        with pytest.raises(ValueError, match="weight must be an int"):
            list(compositions_of(bad))
    for bad in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="weight must be an int"):
            list(compositions_up_to(bad))
    ws = [weight(c) for c in compositions_up_to(4)]
    assert ws == sorted(ws)
    assert len(list(compositions_up_to(6))) == 63


def test_word_combo_algebra():
    a = WordCombo.word((2,), Fraction(1, 2))
    b = WordCombo.word((2,), Fraction(-1, 2))
    assert (a + b).is_zero
    assert a - a == WordCombo.zero()
    assert 2 * a == WordCombo.word((2,))
    assert (0 * a).is_zero
    combo = WordCombo({(2,): 1, (3,): Fraction(2, 3)})
    assert combo[(3,)] == Fraction(2, 3)
    assert combo[(5,)] == 0
    assert len(combo) == 2


def test_stuffle_identity_element():
    assert stuffle((), (3, 2)) == WordCombo.word((3, 2))
    assert stuffle((3, 2), ()) == WordCombo.word((3, 2))


def _stuffle_by_surjections(u, v):
    """The stuffle product from its definition as a sum over order-preserving
    surjections: the parts of u and the parts of v go to increasing places
    among 1..n, every place gets one part of u, one of v or one of each,
    and a place holds the sum of its parts."""
    out = Counter()
    for n in range(max(len(u), len(v)), len(u) + len(v) + 1):
        for places_u in combinations(range(n), len(u)):
            for places_v in combinations(range(n), len(v)):
                if len(set(places_u) | set(places_v)) < n:
                    continue
                w = [0] * n
                for place, k in [*zip(places_u, u), *zip(places_v, v)]:
                    w[place] += k
                out[tuple(w)] += 1
    return out


def test_int_key_round_trip_and_bit_identities():
    """The int key of every word of weight <= 12: its binary digits are the
    two-letter word, it decodes back, and the bit facts the exact layer
    relies on hold."""
    words = [(), *compositions_up_to(12)]
    keys = [_encode(c) for c in words]
    assert len(words) == len(set(keys)) == 4096
    assert (_encode(()), _encode((2,)), _encode((1, 2))) == (0, 0b10, 0b110)
    for c, w in zip(words, keys):
        assert _decode(w) == c
        assert w.bit_length() == weight(c) and w.bit_count() == depth(c)
        assert (w % 2 == 0) == is_admissible(c)
        ones = next((i for i, k in enumerate(reversed(c)) if k != 1), len(c))
        assert (w ^ (w + 1)).bit_length() - 1 == ones, c  # trailing 1 bits
        if c and c[-1] == 1:
            assert w >> 1 == _encode(c[:-1])
        if c:
            assert bin(w)[2:] == "".join("1" + "0" * (k - 1) for k in c)


def _star_by_masks(c: tuple) -> dict:
    """star_expand as tuples: bit i-1 of the mask merges part i into the
    part before it, masks in ascending order."""
    if not c:
        return {(): 1}
    out = {}
    for mask in range(1 << (len(c) - 1)):
        parts = [c[0]]
        for i in range(1, len(c)):
            if (mask >> (i - 1)) & 1:
                parts[-1] += c[i]
            else:
                parts.append(c[i])
        out[tuple(parts)] = 1
    return out


def _shift_by_extras(a: int, c: tuple) -> dict:
    """shift_expand as tuples, the shifts of the parts in lexicographic order."""
    out = {}
    for extra in product(range(a + 1), repeat=len(c)):
        if sum(extra) == a:
            coeff = (-1) ** a * prod(comb(k - 1 + e, e) for k, e in zip(c, extra))
            out[tuple(k + e for k, e in zip(c, extra))] = coeff
    return out


def test_star_and_shift_ints_match_the_tuple_definitions():
    """Same words, same coefficients and the same insertion order, for
    every word of weight <= 8 and every shift order a <= 4."""
    def encoded(terms: dict) -> list:
        return [(_encode(w), n) for w, n in terms.items()]

    for c in [(), *compositions_up_to(8)]:
        w = _encode(c)
        assert list(_star_ints(w).items()) == encoded(_star_by_masks(c)), c
        for a in range(5):
            assert list(_shift_ints(a, w).items()) == encoded(_shift_by_extras(a, c)), (a, c)


def test_stuffle_words_match_the_surjection_definition():
    words = [(), *compositions_up_to(7)]
    pairs = [(u, v) for u in words for v in words if weight(u) + weight(v) <= 7]
    assert len(pairs) == 576
    for u, v in pairs:
        got = {_decode(w): n for w, n in _stuffle_words(_encode(u), _encode(v))}
        assert got == _stuffle_by_surjections(u, v), (u, v)


def test_stuffle_2_3_exact():
    assert stuffle((2,), (3,)) == WordCombo({(2, 3): 1, (3, 2): 1, (5,): 1})


def test_stuffle_2_3_double_sum_oracle(ctx20):
    # splitting sum_{m,n} 1/(m^2 n^3) over m<n, m>n, m=n is the product rule
    with mp.workdps(ctx20.working_dps + 5):
        prod = (
            eval_admissible_mzv((2,), ctx20).value
            * eval_admissible_mzv((3,), ctx20).value
        )
        split = eval_word_combo(stuffle((2,), (3,)), ctx20).value
        assert abs(prod - split) < mp.mpf(10) ** -20


def test_stuffle_1_2_exact_and_partial_sums():
    assert stuffle((1,), (2,)) == WordCombo({(1, 2): 1, (2, 1): 1, (3,): 1})
    # finite-N split of the double sum: S1*S2 = S(1,2) + S(2,1) + S(3)
    N = 10_000
    n = np.arange(1, N + 1, dtype=np.float64)
    h1 = np.cumsum(1.0 / n)
    h2 = np.cumsum(1.0 / n**2)
    s12 = np.sum((1.0 / n**2) * np.concatenate(([0.0], h1[:-1])))
    s21 = np.sum((1.0 / n) * np.concatenate(([0.0], h2[:-1])))
    s3 = np.sum(1.0 / n**3)
    assert abs(h1[-1] * h2[-1] - (s12 + s21 + s3)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(compositions(), compositions())
def test_stuffle_commutative(u, v):
    assert stuffle(u, v) == stuffle(v, u)


@settings(max_examples=40, deadline=None)
@given(compositions(5), compositions(5), compositions(5))
def test_stuffle_associative(u, v, w):
    assert stuffle(stuffle(u, v), w) == stuffle(u, stuffle(v, w))


@settings(max_examples=60, deadline=None)
@given(compositions(), compositions())
def test_stuffle_weight_graded(u, v):
    total = weight(u) + weight(v)
    prod = stuffle(u, v)
    assert all(weight(w) == total for w in prod.words())
    assert all(depth(w) <= depth(u) + depth(v) for w in prod.words())


@settings(max_examples=60, deadline=None)
@given(compositions())
def test_splits_cuts_then_slots(c):
    d = len(c)
    entries = list(splits(c))
    assert len(entries) == 2 * d + 1
    cuts, slots = entries[: d + 1], entries[d + 1 :]
    assert [(len(h), k) for h, k, _, _ in cuts] == [(i, 0) for i in range(d + 1)]
    assert [(len(h), k) for h, k, _, _ in slots] == [(j, c[j]) for j in range(d)]
    for rev_head, k, tail, sign in entries:
        head = rev_head[::-1]
        assert head + ((k,) if k else ()) + tail == c
        assert sign == (-1) ** weight(head)


@settings(max_examples=60, deadline=None)
@given(compositions())
def test_slot_splits_every_split_of_every_slot(c):
    entries = list(slot_splits(c))
    assert len(entries) == sum((k + 1) * (k + 2) // 2 for k in c)
    for rev_head, a, s, b, tail, sign in entries:
        head = rev_head[::-1]
        k = a + s + b
        assert min(a, s, b) >= 0
        assert head + (k,) + tail == c
        assert sign == (-1) ** (weight(head) + a)
    # slots in order, then a outermost and b ascending
    expected = [
        (j, a, b)
        for j, k in enumerate(c)
        for a in range(k + 1)
        for b in range(k - a + 1)
    ]
    assert [(len(h), a, b) for h, a, _, b, _, _ in entries] == expected


def test_star_expand_depth_three():
    assert star_expand((5, 3, 1)) == WordCombo(
        {(5, 3, 1): 1, (5, 4): 1, (8, 1): 1, (9,): 1}
    )


def test_star_expand_small():
    assert star_expand((7,)) == WordCombo.word((7,))
    assert star_expand((1, 1)) == WordCombo({(1, 1): 1, (2,): 1})
    assert star_expand(()) == WordCombo.word(())


@settings(max_examples=60, deadline=None)
@given(compositions())
def test_star_expand_invariants(c):
    combo = star_expand(c)
    assert len(combo) == 2 ** (depth(c) - 1)
    assert all(q == 1 for _, q in combo.items())
    assert all(weight(w) == weight(c) for w in combo.words())


def test_shift_expand_order_zero():
    assert shift_expand(0, (1, 2)) == WordCombo.word((1, 2))
    assert shift_expand(0, ()) == WordCombo.word(())
    assert shift_expand(3, ()).is_zero


def test_shift_expand_examples():
    assert shift_expand(1, (2,)) == WordCombo.word((3,), -2)
    assert shift_expand(1, (1, 2)) == WordCombo({(2, 2): -1, (1, 3): -2})


def test_shift_expand_rejects_negative():
    with pytest.raises(ValueError):
        shift_expand(-1, (2,))


@pytest.mark.parametrize("a", [True, 2.0])
def test_shift_expand_rejects_a_non_int_order(a):
    # True would run as order 1, and 2.0 failed inside the expansion
    with pytest.raises(ValueError, match="shift order"):
        shift_expand(a, (1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4), compositions(6))
def test_shift_expand_invariants(a, c):
    combo = shift_expand(a, c)
    sign = (-1) ** a
    for w, q in combo.items():
        assert weight(w) == weight(c) + a
        assert depth(w) == depth(c)
        assert sign * q > 0
