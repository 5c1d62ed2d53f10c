"""Fast multiple-zeta evaluation against the independent oracles."""

import time
from fractions import Fraction

import pytest
from mpmath import mp

from mzvparity import (
    NonAdmissibleError,
    PiGradedExpr,
    TPoly,
    WordCombo,
    compositions_up_to,
    eval_admissible_mzv,
    eval_pigraded,
    eval_tpoly,
    eval_word_combo,
    even_zeta,
    eval_piterm,
    is_admissible,
    mzv_em_oracle,
    mzv_truncation_oracle,
    weight,
)


def test_zeta_two_is_pi_squared_over_six(ctx30):
    v = eval_admissible_mzv((2,), ctx30)
    with mp.workdps(ctx30.working_dps + 5):
        assert abs(v.value - mp.pi**2 / 6) < mp.mpf(10) ** (-ctx30.working_dps + 2)
        assert v.bound < mp.mpf(10) ** (-ctx30.digits)


def test_depth_one_against_em_oracle(ctx30):
    for k in (2, 3, 4, 7):
        fast = eval_admissible_mzv((k,), ctx30)
        oracle = mzv_em_oracle(k, ctx30)
        assert abs(fast.value - oracle.value) < mp.mpf(10) ** (-ctx30.working_dps + 3)


def test_euler_identity_via_independent_routes(ctx30):
    # zeta(1,2) = zeta(3): the left side via the fast evaluator, the right
    # side via direct summation with an Euler-Maclaurin tail.
    v12 = eval_admissible_mzv((1, 2), ctx30)
    z3 = mzv_em_oracle(3, ctx30)
    assert abs(v12.value - z3.value) < mp.mpf(10) ** (-ctx30.digits - 3)


def test_fast_vs_truncation_oracle_weight_up_to_six(ctx20):
    for c in compositions_up_to(6):
        if not is_admissible(c):
            continue
        oracle = mzv_truncation_oracle(c, cutoff=100_000)
        fast = eval_admissible_mzv(c, ctx20)
        assert abs(fast.value - oracle.value) < oracle.bound, c


def test_truncation_oracle_bound_is_honest(ctx30):
    # higher cutoff must land within the lower cutoff's stated tail bound
    lo = mzv_truncation_oracle((1, 2), cutoff=20_000)
    hi = eval_admissible_mzv((1, 2), ctx30)
    assert abs(lo.value - hi.value) < lo.bound
    assert lo.bound < 1e-3


def test_rejects_divergent_and_empty(ctx30):
    with pytest.raises(NonAdmissibleError):
        eval_admissible_mzv((2, 1), ctx30)
    with pytest.raises(NonAdmissibleError):
        eval_admissible_mzv((), ctx30)
    with pytest.raises(NonAdmissibleError):
        mzv_truncation_oracle((1, 1))
    with pytest.raises(NonAdmissibleError):
        mzv_em_oracle(1, ctx30)


def test_even_zeta_matches_fast_evaluator(ctx30):
    for m in range(1, 7):
        fast = eval_admissible_mzv((2 * m,), ctx30).value
        closed = eval_piterm(even_zeta(m), ctx30).value
        assert abs(fast - closed) < mp.mpf(10) ** -30


def test_weight_twelve_in_seconds(ctx30):
    t0 = time.time()
    v = eval_admissible_mzv((2, 1, 3, 1, 3, 2), ctx30)
    assert time.time() - t0 < 5.0
    assert v.value > 0


def test_eval_word_combo_empty_word_is_one(ctx30):
    combo = WordCombo({(): Fraction(3, 2), (2,): 1})
    v = eval_word_combo(combo, ctx30)
    with mp.workdps(40):
        expected = mp.mpf(3) / 2 + mp.pi**2 / 6
        assert abs(v.value - expected) < mp.mpf(10) ** -30


def test_eval_tpoly_substitution(ctx30):
    tp = TPoly({0: WordCombo.word((2,))})
    assert abs(eval_tpoly(tp, 5, ctx30).value - eval_tpoly(tp, 0, ctx30).value) == 0
    t1 = TPoly({1: WordCombo.word(())})
    assert eval_tpoly(t1, 0, ctx30).value == 0
    assert abs(eval_tpoly(t1, 7, ctx30).value - 7) == 0


def test_eval_pigraded_pi_substitution(ctx30):
    e = PiGradedExpr({2: TPoly({0: WordCombo.word((), Fraction(1, 6))})})
    v = eval_pigraded(e, 0, ctx30)
    z2 = eval_admissible_mzv((2,), ctx30).value
    assert abs(v.value - z2) < mp.mpf(10) ** -30


def test_cache_upgrades_precision():
    from mzvparity import PrecisionContext

    lo = PrecisionContext(digits=10, guard_digits=10)
    hi = PrecisionContext(digits=35, guard_digits=15)
    v_lo = eval_admissible_mzv((3, 2), lo)
    v_hi = eval_admissible_mzv((3, 2), hi)
    assert abs(v_lo.value - v_hi.value) < mp.mpf(10) ** -15
    assert v_hi.bound < mp.mpf(10) ** -40


@pytest.mark.parametrize("dps", [8, 12, 14, 15, 30, 100])
def test_kernel_accuracy_across_precisions(ctx30, dps):
    # Requests below 14 digits are computed at 14, so every value must be
    # good to 4 digits beyond max(dps, 14), and within its own bound.
    tol = mp.mpf(10) ** (-(max(dps, 14) + 4))
    words = [c for c in compositions_up_to(8) if is_admissible(c)]
    values = {c: eval_admissible_mzv(c, ctx30, dps=dps) for c in words}
    with mp.workdps(dps + 20):
        for k in range(2, 11):
            v = eval_admissible_mzv((k,), ctx30, dps=dps)
            err = abs(v.value - mp.zeta(k))
            assert err <= v.bound and err <= tol, (k, err)
        # sum theorem: the admissible words of one weight and depth add up
        # to zeta(weight)
        for w in range(3, 9):
            for d in range(2, w):
                group = [c for c in words if weight(c) == w and len(c) == d]
                err = abs(mp.fsum(values[c].value for c in group) - mp.zeta(w))
                assert err <= mp.fsum(values[c].bound for c in group), (w, d, err)
                assert err <= tol, (w, d, err)
    # the expression evaluators keep the kernel's digits
    for c in words:
        combo = eval_word_combo(WordCombo.word(c), ctx30, dps=dps).value
        assert abs(combo - values[c].value) <= mp.mpf(10) ** (-(dps + 4)), c


def test_words_above_weight_twelve_share_prefix_values(ctx30):
    # Above weight 12 the fixed-point bits grow with the prefix length, and
    # each prefix value is cached at the bits of its own length: the values
    # that heavy words leave behind must serve lighter words.  33 digits is
    # a precision no other test asks for, so the heavy words come first.
    dps = 33
    with mp.workdps(dps + 20):
        for w, d in ((16, 2), (13, 3), (9, 3)):
            group = [c for c in compositions_up_to(w) if len(c) == d and weight(c) == w]
            total = mp.fsum(
                eval_admissible_mzv(c, ctx30, dps=dps).value for c in group if is_admissible(c)
            )
            assert abs(total - mp.zeta(w)) <= mp.mpf(10) ** (-(dps + 4)), (w, d)
