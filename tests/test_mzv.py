"""Fast multiple-zeta evaluation against the independent oracles."""

import hashlib
import time
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest
from mpmath import mp

from mzvparity import (
    NonAdmissibleError,
    PiGradedExpr,
    TPoly,
    WordCombo,
    build_main2_identity,
    clear_caches,
    compositions_up_to,
    depth,
    eval_admissible_mzv,
    eval_pigraded,
    eval_tpoly,
    eval_word_combo,
    even_zeta,
    eval_piterm,
    is_admissible,
    reduce_main,
    reduce_main3,
    regularize,
    weight,
)
from mzvparity import mzv, regularization
from mzvparity.harmonic import _decode, _encode

from oracles import mzv_em_oracle, mzv_truncation_oracle


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
        eval_word_combo(WordCombo.word((2, 1)), ctx30)
    with pytest.raises(NonAdmissibleError):
        mzv_truncation_oracle((1, 1))
    with pytest.raises(NonAdmissibleError):
        mzv_em_oracle(1, ctx30)


def test_expression_evaluators_refuse_other_objects(ctx30):
    # a ReductionResult is not its expansion, and a tuple is not a WordCombo
    result = reduce_main((1, 2))
    for evaluate in (lambda x: eval_pigraded(x, 0, ctx30), lambda x: eval_tpoly(x, 0, ctx30)):
        with pytest.raises(TypeError, match=r"PiGradedExpr, got ReductionResult; evaluate its \.expanded"):
            evaluate(result)
    with pytest.raises(TypeError, match="expected a WordCombo, TPoly or PiGradedExpr, got tuple$"):
        eval_word_combo((2, 3), ctx30)
    assert eval_pigraded(result.expanded, 0, ctx30).bound > 0


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


@pytest.mark.parametrize("T", [0, 1, Fraction(5, 2)])
def test_public_evaluators_are_one_evaluation(ctx30, T):
    """A word combination has the same value bits as a WordCombo, as grade 0
    of a TPoly and as grade (0, 0) of a PiGradedExpr; the pi-graded bound
    is the TPoly bound plus the per-word estimate."""
    est = mzv._estimate(ctx30.working_dps)
    for c in [
        WordCombo.word((2,)),
        WordCombo({(): Fraction(3, 2), (3, 2): Fraction(-1, 7), (2, 1, 2): 5}),
        regularize((1, 1, 2)).coeff(0),
    ]:
        combo = eval_word_combo(c, ctx30)
        tpoly = eval_tpoly(TPoly({0: c}), T, ctx30)
        pigraded = eval_pigraded(PiGradedExpr({0: {0: c}}), T, ctx30)
        assert combo.value._mpf_ == tpoly.value._mpf_ == pigraded.value._mpf_
        assert combo.bound._mpf_ == tpoly.bound._mpf_
        with mp.workprec(mzv._sum_prec(ctx30.working_dps)):
            assert pigraded.bound._mpf_ == (tpoly.bound + est)._mpf_


def test_eval_tpoly_substitution(ctx30):
    tp = TPoly({0: WordCombo.word((2,))})
    assert abs(eval_tpoly(tp, 5, ctx30).value - eval_tpoly(tp, 0, ctx30).value) == 0
    t1 = TPoly({1: WordCombo.word(())})
    assert eval_tpoly(t1, 0, ctx30).value == 0
    assert abs(eval_tpoly(t1, 7, ctx30).value - 7) == 0


@pytest.mark.parametrize("T", [0, mp.mpf(0), mp.mpc(0)], ids=["int", "mpf", "mpc"])
def test_t_grades_are_skipped_at_t_zero(ctx30, T):
    """At T = 0 the value and the bound are those of grade 0, bit for bit,
    and a word that occurs only at t > 0 is not evaluated."""
    tp = TPoly({
        0: WordCombo({(2,): 3, (3, 2): Fraction(-1, 7), (): 1}),
        1: WordCombo({(5, 3): 1, (2,): Fraction(1, 3)}),
        2: WordCombo({(4, 4): 2}),
    })
    main2 = build_main2_identity((2, 1, 1, 1))
    cases = [
        (eval_tpoly, tp, [tp], TPoly({0: tp.coeff(0)})),
        (eval_pigraded, main2, [g for _, g in main2.items()],
         PiGradedExpr({p: {0: g.coeff(0)} for p, g in main2.items()})),
    ]
    for evaluate, expr, tpolys, t_free in cases:
        grade0 = {w for g in tpolys for w in g.coeff(0).words()}
        only_t_positive = {w for g in tpolys for t, c in g.items() if t for w in c.words()} - grade0
        assert only_t_positive
        clear_caches()
        got = evaluate(expr, T, ctx30)
        assert not only_t_positive & {_decode(w) for w, _ in mzv._MZV_CACHE}
        want = evaluate(t_free, T, ctx30)
        assert got.value._mpf_ == want.value._mpf_ and got.bound._mpf_ == want.bound._mpf_


def test_eval_pigraded_pi_substitution(ctx30):
    e = PiGradedExpr({2: TPoly({0: WordCombo.word((), Fraction(1, 6))})})
    v = eval_pigraded(e, 0, ctx30)
    z2 = eval_admissible_mzv((2,), ctx30).value
    assert abs(v.value - z2) < mp.mpf(10) ** -30


def test_value_depends_on_the_word_and_precision_alone():
    from mzvparity import PrecisionContext

    lo = PrecisionContext(digits=10)
    hi = PrecisionContext(digits=35)
    v_hi = eval_admissible_mzv((3, 2), hi)
    v_lo = eval_admissible_mzv((3, 2), lo)
    assert abs(v_lo.value - v_hi.value) < mp.mpf(10) ** -15
    assert v_hi.bound < mp.mpf(10) ** -40
    # the 25-digit value is not read from the 50-digit one computed before it
    clear_caches()
    assert v_lo.value._mpf_ == eval_admissible_mzv((3, 2), lo).value._mpf_


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
    # Above weight 12 the fixed-point bits grow with the word's length, and
    # each prefix value is cached under the bits of the word that walks it:
    # lighter words that share prefixes with the heavy words walked before
    # them must still sum to zeta(w).  33 digits is a precision no other
    # test asks for, so the heavy words come first.
    dps = 33
    with mp.workdps(dps + 20):
        for w, d in ((16, 2), (13, 3), (9, 3)):
            group = [c for c in compositions_up_to(w) if len(c) == d and weight(c) == w]
            total = mp.fsum(
                eval_admissible_mzv(c, ctx30, dps=dps).value for c in group if is_admissible(c)
            )
            assert abs(total - mp.zeta(w)) <= mp.mpf(10) ** (-(dps + 4)), (w, d)


def test_value_above_weight_twelve_ignores_earlier_words(ctx30):
    # This weight-15 word has fewer fraction bits than the longer word that
    # shares its prefixes: its bits must not depend on which came first.
    c = (3, 1, 2, 1, 2, 1, 2, 1, 2)
    clear_caches()
    fresh = eval_admissible_mzv(c, ctx30).value
    clear_caches()
    eval_admissible_mzv(c + (1, 2), ctx30)
    assert eval_admissible_mzv(c, ctx30).value == fresh


def _reference_tpoly(tp, T, ctx):
    """(value, parent bound) of a T-polynomial: every coefficient converted
    to mpf and multiplied per word, at the caller's precision."""
    est = mp.mpf(10) ** (2 - ctx.working_dps)
    value = bound = mp.mpf(0)
    for t, combo in tp.items():
        part = mp.mpf(0)
        for w, q in combo.items():
            v = eval_admissible_mzv(w, ctx).value if w else 1
            part += mp.mpf(q.numerator) / q.denominator * v
        weight_sum = sum(abs(q) for w, q in combo.items() if w)
        value += T**t * part
        bound += abs(T) ** t * (mp.mpf(weight_sum.numerator) / weight_sum.denominator + 1) * est
    return value, bound


def test_integer_sums_match_per_word_reference(ctx30):
    # Every grade is summed as one integer dot product and rounded once;
    # the reference converts and multiplies per word at 30 more digits.
    # The bounds keep the per-word formula: the estimate times sum |q|,
    # plus the estimate once per grade (and once more for pi-graded sums).
    exprs = []
    for c in compositions_up_to(6):
        exprs.append(build_main2_identity(c))
        if weight(c) % 2 != depth(c) % 2:
            exprs.append(reduce_main3(c).expanded)
    for T in (0, 1, Fraction(5, 2)):
        for e in exprs:
            v = eval_pigraded(e, T, ctx30)
            with mp.workdps(ctx30.working_dps + 30):
                Tm = mp.mpf(T.numerator) / T.denominator if isinstance(T, Fraction) else mp.mpf(T)
                ref = bound = mp.mpf(0)
                for p, tp in e.items():
                    tv = eval_tpoly(tp, T, ctx30)
                    rv, rb = _reference_tpoly(tp, Tm, ctx30)
                    assert abs(tv.value - rv) <= tv.bound, (e, p, T)
                    assert abs(tv.bound - rb) <= rb * mp.mpf(10) ** -40, (e, p, T)
                    ref += mp.pi**p * rv
                    bound += mp.pi**p * rb
                bound += mp.mpf(10) ** (2 - ctx30.working_dps)
                assert abs(v.value - ref) <= v.bound, (e, T)
                assert abs(v.bound - bound) <= bound * mp.mpf(10) ** -40, (e, T)


def test_word_combo_with_large_coprime_denominators(ctx30):
    # Sum theorem: the admissible words of one weight and depth add up to
    # zeta(weight).  Each group minus zeta(weight) is scaled by its own
    # denominator, so the common denominator is their product, and the
    # constant 5/17 is the exact value of the whole combination.
    dps = ctx30.working_dps
    combo = WordCombo({(): Fraction(5, 17)})
    for (w, d), den in zip(((5, 2), (6, 3), (7, 2), (8, 4)), (3 * 7 * 11 * 13, 10007, 65537, 1009)):
        group = [c for c in compositions_up_to(w) if len(c) == d and weight(c) == w and is_admissible(c)]
        part = WordCombo({c: 1 for c in group}) - WordCombo.word((w,))
        combo = combo + part * Fraction(1, den)
    v = eval_word_combo(combo, ctx30)
    with mp.workdps(dps + 30):
        err = abs(v.value - mp.mpf(5) / 17)
        weight_sum = sum(abs(q) for w, q in combo.items() if w)
        est = mp.mpf(10) ** (2 - dps)
        expected_bound = (mp.mpf(weight_sum.numerator) / weight_sum.denominator + 1) * est
        assert abs(v.bound - expected_bound) <= expected_bound * mp.mpf(10) ** -40
        assert err <= v.bound
        assert err <= mp.mpf(10) ** -(dps + 3), err


def test_clear_caches_recomputes_bit_identical_values(ctx30):
    words = [c for c in compositions_up_to(9) if is_admissible(c)]
    clear_caches()
    before = [eval_admissible_mzv(c, ctx30).value for c in words]
    tp_before = regularize((2, 1, 1))
    clear_caches()
    assert not mzv._MZV_CACHE and not mzv._PREFIX_CACHE
    after = [eval_admissible_mzv(c, ctx30).value for c in words]
    assert [v._mpf_ for v in after] == [v._mpf_ for v in before]
    tp_after = regularize((2, 1, 1))
    assert tp_after == tp_before and tp_after is not tp_before


# sha256 of repr([(index, value._mpf_)]) over every admissible index of
# weight <= max_weight at dps digits, in the order of compositions_up_to
_PINNED_KERNEL_BITS = {
    (100, 10): "96a0d0f35a9b834766ea8811317fdfa7e1c6d5201547b6b4106ff229774fc54e",
    (30, 12): "b63a5ad581c9a0c9ee5fd884a161c8c062d6e6af1a251fa09b9c2aa687501cbf",
    (200, 8): "3e35f85991211ae09441e6c6d506a83e376fb29d7e5bb7b1b6964286c9731543",
    (14, 10): "5ad6836551b765547e76cd3d9a84b84977aa8039bd89a7a402a18c37c90a8cfd",
}


@pytest.mark.parametrize("dps, max_weight", sorted(_PINNED_KERNEL_BITS))
@pytest.mark.parametrize("order", [1, -1])
def test_kernel_bits_pinned(ctx30, dps, max_weight, order):
    # Words share prefix values and chain levels, so the values must not
    # depend on which words were evaluated before them.
    words = [c for c in compositions_up_to(max_weight) if is_admissible(c)]
    clear_caches()
    values = {c: eval_admissible_mzv(c, ctx30, dps=dps).value._mpf_ for c in words[::order]}
    rows = [(c, values[c]) for c in words]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _PINNED_KERNEL_BITS[dps, max_weight]


@pytest.mark.parametrize("dps", [14, 30, 100, 200])
def test_prefix_values_divide_then_shift(ctx30, dps):
    # The walk shifts a block's level once and divides the shifted terms;
    # every cached prefix must be the sum of the terms divided first and
    # shifted after, as nested floors compose.
    words = [c for c in compositions_up_to(8) if is_admissible(c)]
    clear_caches()
    for c in reversed(words):
        eval_admissible_mzv(c, ctx30, dps=dps)
    assert mzv._PREFIX_CACHE
    for (blocks, M, P), x in mzv._PREFIX_CACHE.items():
        L, c = mzv._level(blocks[:-1], M, P), blocks[-1]
        assert x == sum((L[n - 1] // n**c) >> n for n in range(1, M + 1)), blocks


def test_missing_prefixes_mid_block(ctx30):
    # After (2,), the prefixes (1,) and (2,) of (4,) are cached and (3,)
    # and (4,) are not: the walk meets the block's first missing prefix
    # after two cached ones, and must give the bits of a fresh walk.
    clear_caches()
    expected = eval_admissible_mzv((4,), ctx30, dps=100).value._mpf_
    clear_caches()
    eval_admissible_mzv((2,), ctx30, dps=100)
    cached = {blocks for blocks, _, _ in mzv._PREFIX_CACHE}
    assert {(1,), (2,)} <= cached and not {(3,), (4,)} & cached
    assert eval_admissible_mzv((4,), ctx30, dps=100).value._mpf_ == expected


def test_cached_blocks_build_no_level(ctx30, monkeypatch):
    # The dual of a word walks the word's two prefix chains the other way
    # round, so once the word's chain levels are cached the dual builds no
    # level, even with no prefix value cached; its value, equal by
    # duality, is the same sum and so the same bits.
    c = (3, 1, 2, 2)
    bits = mzv._word_bits(_encode(c))
    dual = _decode(int("".join(str(1 - b) for b in reversed(bits)), 2))
    assert dual != c
    builds = []  # one entry per level built, by whatever route
    monkeypatch.setattr(mzv, "accumulate", lambda *a, **kw: builds.append(a) or accumulate(*a, **kw))
    clear_caches()
    value = eval_admissible_mzv(c, ctx30, dps=100).value
    built = len(builds)
    assert built > 0
    mzv._MZV_CACHE.clear()
    mzv._PREFIX_CACHE.clear()
    assert eval_admissible_mzv(dual, ctx30, dps=100).value._mpf_ == value._mpf_
    assert len(builds) == built


@pytest.mark.parametrize("dps", [30, 100])
def test_evicted_levels_give_the_same_bits(ctx30, monkeypatch, dps):
    # With room for two chain levels every walk rebuilds the levels it
    # needs; the values must not depend on which levels were kept.
    words = [c for c in compositions_up_to(8) if is_admissible(c)]
    clear_caches()
    expected = [eval_admissible_mzv(c, ctx30, dps=dps).value._mpf_ for c in words]
    clear_caches()
    monkeypatch.setattr(mzv, "_level", lru_cache(maxsize=2)(mzv._level.__wrapped__))
    assert [eval_admissible_mzv(c, ctx30, dps=dps).value._mpf_ for c in words] == expected
    info = mzv._level.cache_info()
    assert info.currsize <= 2 < info.misses


def test_deep_word_with_dropped_levels(ctx30):
    # The prefixes of a word of 1,200 blocks are cached but its chain
    # levels are not, so its first missing prefix needs a level 1,200 blocks
    # deep at once; building it must not exhaust the interpreter's stack.
    deep = (1,) * 1200
    clear_caches()
    expected = eval_admissible_mzv(deep + (3,), ctx30, dps=15).value
    clear_caches()
    eval_admissible_mzv(deep + (2,), ctx30, dps=15)
    mzv._level.cache_clear()
    assert eval_admissible_mzv(deep + (3,), ctx30, dps=15).value._mpf_ == expected._mpf_


def test_caches_stay_within_their_caps(ctx30, monkeypatch):
    # The module caches are emptied when they reach their caps, and the
    # values computed meanwhile are unchanged.
    words = [c for c in compositions_up_to(8) if is_admissible(c)]
    clear_caches()
    expected = {c: eval_admissible_mzv(c, ctx30).value for c in words}
    clear_caches()
    monkeypatch.setattr(mzv._MZV_CACHE, "cap", 10)
    monkeypatch.setattr(mzv._PREFIX_CACHE, "cap", 50)
    for c in words:
        assert eval_admissible_mzv(c, ctx30).value == expected[c], c
        assert len(mzv._MZV_CACHE) <= 10 and len(mzv._PREFIX_CACHE) <= 50
    for cached in (mzv._powers, mzv._fraction_bits, mzv._estimate, mzv._level,
                   regularization._regularize_divergent):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
