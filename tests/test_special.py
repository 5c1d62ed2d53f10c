"""Bernoulli numbers, even zeta values, and the all-ones correction."""

from fractions import Fraction
from math import comb

import pytest
from mpmath import mp

from mzvparity import PiTerm, bernoulli, delta, even_zeta, eval_piterm

from oracles import mzv_em_oracle


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(5) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence():
    # the recurrence is the reference for the library values
    for n in range(1, 201):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 41, 2))


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize("make", [
    lambda: bernoulli(2.0),
    lambda: bernoulli(True),
    lambda: even_zeta(1.0),
    lambda: PiTerm(1, 2.0),
], ids=["bernoulli-float", "bernoulli-bool", "even_zeta-float", "PiTerm-float"])
def test_refuses_a_non_int_index(make):
    # a float raised a bare TypeError, a bool ran as 1, and PiTerm printed pi^2.0
    with pytest.raises(ValueError, match="an (even )?int"):
        make()


def test_even_zeta_exact():
    assert even_zeta(1) == PiTerm(Fraction(1, 6), 2)
    assert even_zeta(2) == PiTerm(Fraction(1, 90), 4)
    assert even_zeta(3) == PiTerm(Fraction(1, 945), 6)
    with pytest.raises(ValueError):
        even_zeta(0)


def test_even_zeta_matches_direct_summation(ctx30):
    for m in range(1, 9):
        lhs = eval_piterm(even_zeta(m), ctx30).value
        rhs = mzv_em_oracle(2 * m, ctx30)
        assert abs(lhs - rhs.value) < mp.mpf(10) ** (-ctx30.working_dps + 3)


def test_delta_values():
    assert delta((1, 1)) == PiTerm(Fraction(-1, 2), 2)
    assert delta(()) == PiTerm(Fraction(1), 0)
    assert delta((1, 1, 1)).is_zero
    assert delta((2,)).is_zero
    assert delta((1, 1, 1, 1)) == PiTerm(Fraction(1, 24), 4)


def test_delta_characterization():
    for c in [(1,), (1, 2), (2, 2), (1, 1, 2)]:
        assert delta(c).is_zero
    for n in range(4):
        assert not delta((1,) * (2 * n)).is_zero


def test_piterm_arithmetic():
    a = PiTerm(Fraction(1, 2), 2)
    b = PiTerm(Fraction(1, 3), 2)
    assert a + b == PiTerm(Fraction(5, 6), 2)
    assert a * b == PiTerm(Fraction(1, 6), 4)
    assert (a + PiTerm.zero()) == a
    assert (-a).coeff == Fraction(-1, 2)
    with pytest.raises(ValueError):
        PiTerm(Fraction(1), 3)
    with pytest.raises(ValueError):
        a + PiTerm(Fraction(1), 4)
