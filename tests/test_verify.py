"""Verification harness: single identities, sweeps, report semantics."""

import hashlib
from fractions import Fraction

import pytest
from mpmath import mp

from mzvparity import (
    IDENTITIES,
    PrecisionContext,
    build_main2_identity,
    delta,
    eval_pigraded,
    eval_piterm,
    eval_shifted,
    eval_tpoly,
    even_zeta,
    reduce_main3,
    regularize,
    compositions_up_to,
    eval_admissible_mzv,
    eval_monotangent,
    is_admissible,
    reduce_main,
    stuffle,
    sweep,
    verify_bouillot,
    verify_fund_eq2,
    verify_main,
    verify_main2,
    verify_main3,
    weight,
)
from mzvparity import clear_caches, mzv, reduction, verify
from mzvparity.harmonic import slot_splits, splits


def test_fund_eq2_cases(ctx30):
    assert verify_fund_eq2((2,), ctx30).passed
    assert verify_fund_eq2((1,), ctx30, T_values=(0,)).passed
    assert verify_fund_eq2((1,), ctx30, T_values=(1,)).passed
    assert verify_fund_eq2((1, 1), ctx30).passed
    assert verify_fund_eq2((2, 3), ctx30, T_values=(1,)).passed
    for c in compositions_up_to(7):
        rep = verify_fund_eq2(c, ctx30, T_values=(0, 1))
        assert rep.passed, rep.describe()


def test_fund_eq2_sides_match_the_numeric_route(ctx30):
    """The exact sides of fundeq2 agree with the numeric route, kept here as
    a reference: the regularized cut products, and delta(c) plus the slot
    sum of sign * zeta_a(rev_head) * zeta_b(tail) * 2 zeta(s) over shifted
    values, with 2 zeta(s) = 0 for odd s and 2 zeta(0) = -1."""
    bound = ctx30.residual_bound()
    twice_zeta = [mp.mpf(-1)] + [
        0 if s % 2 else eval_piterm(2 * even_zeta(s // 2), ctx30).value for s in range(1, 6)
    ]
    for c in compositions_up_to(5):
        cuts = list(splits(c))[: len(c) + 1]
        for T in (0, 1):
            lhs, rhs = (eval_pigraded(e, T, ctx30).value for e in reduction._fund_eq2_sides(c))
            with mp.workdps(ctx30.working_dps + 5):
                want_lhs = sum(
                    sign * eval_tpoly(regularize(stuffle(rev_head, tail)), T, ctx30).value
                    for rev_head, _, tail, sign in cuts
                )
                want_rhs = eval_piterm(delta(c), ctx30).value
                for rev_head, a, s, b, tail, sign in slot_splits(c):
                    if twice_zeta[s]:
                        va = eval_shifted(rev_head, a, T, ctx30).value
                        vb = eval_shifted(tail, b, T, ctx30).value
                        want_rhs += sign * va * vb * twice_zeta[s]
            assert abs(lhs - want_lhs) <= bound, (c, T)
            assert abs(rhs - want_rhs) <= bound, (c, T)


def test_bouillot_rhs_matches_the_numeric_slot_sum(ctx30):
    """The exact right-hand side of bouillot agrees with the numeric route,
    kept here as a reference: delta(c) plus the slot sum of
    sign * zeta_a(rev_head) * zeta_b(tail) * Psi_s(z) over shifted values,
    with Psi_0 = 0.  The sides agree relative to the sum of the absolute
    values of the terms, since some sums cancel to 0: at T = 0 the
    right-hand side of (1, 2, 1, 1) is Psi_1(z) (zeta(4) - zeta(1, 1, 2))."""
    tol = mp.mpf(10) ** -ctx30.working_dps
    for z in (mp.mpf("0.3"), mp.mpc("0.25", "0.2")):
        for T in (0, 1, Fraction(5, 2)):
            for c in compositions_up_to(6):
                with mp.workdps(ctx30.working_dps + 5):
                    want = eval_piterm(delta(c), ctx30).value
                    size = abs(want)
                    for rev_head, a, s, b, tail, sign in slot_splits(c):
                        if s:
                            va = eval_shifted(rev_head, a, T, ctx30).value
                            vb = eval_shifted(tail, b, T, ctx30).value
                            term = sign * va * vb * eval_monotangent(s, z, ctx30).value
                            want, size = want + term, size + abs(term)
                rhs = verify_bouillot(c, z, ctx30, T_values=(T,)).rhs
                assert abs(rhs - want) <= tol * size, (c, z, T)


def test_main_euler_cases(ctx30):
    rep = verify_main((1, 2), ctx30)
    assert rep.passed
    z3 = eval_admissible_mzv((3,), ctx30).value
    assert abs(rep.rhs - z3) < mp.mpf(10) ** -30
    rep2 = verify_main((2,), ctx30)
    assert rep2.passed
    with mp.workdps(40):
        assert abs(rep2.rhs - mp.pi**2 / 6) < mp.mpf(10) ** -30


def test_main_lhs_is_the_walked_word(ctx30):
    """main's left side is the word c summed by the expression walk, at
    the precision its right side is summed at; at weight 13 it differs from
    the MZV evaluator's value in the last bits only."""
    c = (2, 2, 2, 2, 2, 3)
    rep = verify_main(c, ctx30)
    assert rep.passed, rep.describe()
    value = eval_admissible_mzv(c, ctx30).value
    assert abs(rep.lhs - value) <= mp.mpf(10) ** -(ctx30.working_dps + 8) * abs(value)


def test_main_skips_are_first_class(ctx30):
    rep = verify_main((2, 2), ctx30)
    assert rep.skipped and rep.status == "skip"
    assert "parity" in rep.reason
    rep2 = verify_main((2, 1), ctx30)
    assert rep2.skipped
    assert "admissible" in rep2.reason


def test_main_residual_t_invariant(ctx30):
    # the reduction is T-free, so its value cannot move with T
    from mzvparity import eval_pigraded, reduce_main

    red = reduce_main((1, 1, 4)).expanded
    v0 = eval_pigraded(red, 0, ctx30).value
    v1 = eval_pigraded(red, 1, ctx30).value
    assert abs(v0 - v1) < mp.mpf(10) ** (-ctx30.digits + 5)


def test_main2_and_main3(ctx30):
    assert verify_main2((1, 1, 1), ctx30).passed
    assert verify_main2((2, 1), ctx30).passed
    assert verify_main3((2, 1), ctx30).passed
    assert verify_main3((1, 1, 2, 1), ctx30).passed
    assert verify_main3((2, 2), ctx30).skipped


def test_bouillot_cases(ctx30):
    z = mp.mpf("0.3")
    rep = verify_bouillot((2,), z, ctx30)
    assert rep.passed and rep.residual < mp.mpf(10) ** -20
    rep11 = verify_bouillot((1, 1), mp.mpc("0.25", "0.2"), ctx30)
    assert rep11.passed
    rep33 = verify_bouillot((3, 3), z, ctx30)
    assert rep33.passed
    for T in (0, 1):
        assert verify_bouillot((1, 2), z, ctx30, T_values=(T,)).passed
    # off the integers by the monotangents' pole rule, so the direct sum runs
    near = verify_bouillot((2,), mp.mpf("1e-13"), ctx30)
    assert near.passed and near.reason is None
    # the float64 direct sum leaves the double range: the cross-check fails
    tiny = verify_bouillot((2, 2), mp.mpc(0, "1e-200"), ctx30)
    assert tiny.status == "fail" and "cross-check" in tiny.reason


def test_residual_is_max_over_T_values(ctx30):
    z = mp.mpf("0.3")
    for check in (
        lambda T: verify_fund_eq2((2, 3), ctx30, T_values=T),
        lambda T: verify_bouillot((1, 2), z, ctx30, T_values=T),
    ):
        both = check((0, 1))
        assert both.T == (0, 1)
        assert both.residual == max(check((0,)).residual, check((1,)).residual)


def _grades(expr) -> int:
    """The (pi-grade, T-grade) pairs of an expression: one integer sum each."""
    return sum(len(list(tp.items())) for _, tp in expr.items())


def test_checks_at_several_T_sum_each_grade_once(ctx30, monkeypatch):
    """main, main2, main3 and fundeq2 sum every grade of their expressions
    once for all T values, and report the values of one evaluation per T,
    bit for bit."""
    calls = []
    original = mzv._combo_sum

    def counting(*args):
        calls.append(args)
        return original(*args)

    Ts = (0, 1, Fraction(5, 2))
    for c in [(2, 1, 1, 1), (1, 2, 1), (3, 1, 2), (1, 1, 1, 2)]:
        main2, main3, reg = build_main2_identity(c), reduce_main3(c).expanded, regularize(c)
        fund_lhs, fund_rhs = reduction._fund_eq2_sides(c)
        cases = {
            "main2": (Ts, _grades(main2), lambda T: (eval_pigraded(main2, T, ctx30).value, mp.zero)),
            "main3": (Ts, _grades(main3) + len(list(reg.items())), lambda T: (
                eval_tpoly(reg, T, ctx30).value, eval_pigraded(main3, T, ctx30).value,
            )),
            "fundeq2": (Ts, _grades(fund_lhs) + _grades(fund_rhs), lambda T: (
                eval_pigraded(fund_lhs, T, ctx30).value, eval_pigraded(fund_rhs, T, ctx30).value,
            )),
        }
        if is_admissible(c):  # the reduction is T-free: its grades are summed once, not per T
            main, value = reduce_main(c).expanded, eval_admissible_mzv(c, ctx30).value
            cases["main"] = ((0, 2), _grades(main) + 1, lambda T: (value, eval_pigraded(main, T, ctx30).value))
        for identity, (T_values, grades, sides) in cases.items():
            rows = [(abs(lhs - rhs), lhs, rhs) for lhs, rhs in map(sides, T_values)]
            want = max(rows, key=lambda row: row[0])
            monkeypatch.setattr(mzv, "_combo_sum", counting)
            calls.clear()
            rep = IDENTITIES[identity](c, ctx=ctx30, T_values=T_values)
            monkeypatch.setattr(mzv, "_combo_sum", original)
            assert len(calls) == grades, (identity, c)
            assert (rep.residual, rep.lhs, rep.rhs) == want, (identity, c)


# sha256 of the (composition, status, residual, lhs, rhs, bound) rows of a
# sweep, every number as the _mpf_ tuple of its bits.  Recorded while
# expressions still stored Fraction coefficients; they pin the order in
# which the grade sums of an expression are added in floating point.
_PINNED_REPORT_BITS = {
    ("main", 7, (0,)): "c2031bc9eab0f415b49012771e13e06386449c678940f1887314c0881858cc29",
    ("main2", 6, (0, 1)): "04424f359da06ebf9b7a8400a1608b4f2c9aea1497ed286d1033ed36b573bc6f",
    ("main3", 6, (0, 1)): "87af5425530d3384e436a607045daf86b0106bb120cc3c43c1f8311285860743",
    # recorded when fundeq2 moved to the exact sides of reduction._fund_eq2_sides
    ("fundeq2", 6, (0, 1)): "8728bca70aaee0cb4d1bbcc9ae98d43e02a3a41d9ca2f45b5fb7a669dc1bcb5c",
}


def _report_bits(identity, max_weight, T_values, ctx) -> str:
    rows = [
        (r.composition, r.status,
         *(getattr(x, "_mpf_", x) for x in (r.residual, r.lhs, r.rhs, r.bound)))
        for r in sweep(max_weight, identity, ctx, T_values=T_values)
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_report_bits_pinned(ctx30):
    for key, digest in _PINNED_REPORT_BITS.items():
        assert _report_bits(*key, ctx30) == digest, key[0]


def test_report_bits_do_not_depend_on_earlier_precisions(ctx30):
    # values cached at 75 working digits are not read by a 45-digit sweep
    clear_caches()
    ctx60 = PrecisionContext(digits=60)
    for c in compositions_up_to(6):
        if c and is_admissible(c):
            eval_admissible_mzv(c, ctx60)
    for key, digest in _PINNED_REPORT_BITS.items():
        if key[0] in ("main", "main2"):
            assert _report_bits(*key, ctx30) == digest, key[0]


# The same digest for bouillot over weight <= 5 at T = 0, 1, at both points
# z in turn, a complex number as the _mpc_ pair of its parts' bits.
_PINNED_BOUILLOT_BITS = "3069537a2515e76be4541441690f6ec651a1754cccc3d05f2b8551402a7fba4e"


def _bouillot_bits(ctx) -> str:
    rows = [
        (r.composition, r.status,
         *(getattr(x, "_mpc_", getattr(x, "_mpf_", x)) for x in (r.residual, r.lhs, r.rhs, r.bound)))
        for z in (mp.mpf("0.3"), mp.mpc("0.25", "0.2"))
        for r in sweep(5, "bouillot", ctx, z=z, T_values=(0, 1))
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_bouillot_report_bits_pinned(ctx30):
    clear_caches()  # no value of an earlier test at a higher precision is read
    assert _bouillot_bits(ctx30) == _PINNED_BOUILLOT_BITS


def test_bouillot_bits_do_not_depend_on_earlier_precisions(ctx30):
    # Hurwitz, star and monotangent values cached at 75 working digits are
    # not read by a 45-digit sweep
    clear_caches()
    _bouillot_bits(PrecisionContext(digits=60))
    assert _bouillot_bits(ctx30) == _PINNED_BOUILLOT_BITS


def test_report_sides_are_those_of_the_residual(ctx30):
    """lhs and rhs come from the T value with the largest residual, so
    |lhs - rhs| is the reported residual."""
    for identity in ("main", "main2", "main3", "fundeq2"):
        for c in compositions_up_to(5):
            rep = IDENTITIES[identity](c, ctx=ctx30, T_values=(0, 1))
            if rep.skipped:
                continue
            with mp.workdps(ctx30.working_dps + 20):
                gap = abs(rep.lhs - rep.rhs)
            assert abs(gap - rep.residual) <= mp.mpf("1e-10") * rep.residual, (identity, c)


def test_empty_T_values_is_refused(ctx30):
    # a check over no T values would pass vacuously with residual 0
    z = mp.mpf("0.3")
    for fn in IDENTITIES.values():
        with pytest.raises(ValueError, match="T_values"):
            fn((2,), ctx=ctx30, z=z, T_values=())
    with pytest.raises(ValueError, match="T_values"):
        sweep(2, "main3", ctx30, T_values=())


def test_empty_index_is_refused(ctx30):
    # no identity has a case at the empty index: a skip would hide the error
    z = mp.mpf("0.3")
    for name, fn in IDENTITIES.items():
        with pytest.raises(ValueError, match="empty composition"):
            fn((), ctx=ctx30, z=z)
            pytest.fail(f"{name} accepted the empty index")


@pytest.mark.parametrize("T_values", ["10", b"10", 5, mp.mpf(1)], ids=["str", "bytes", "int", "mpf"])
def test_T_values_that_are_not_a_collection_are_refused(ctx30, T_values):
    # "10" read one character at a time would check T = 1 and T = 0
    z = mp.mpf("0.3")
    for fn in IDENTITIES.values():
        with pytest.raises(ValueError, match="T_values must be a collection"):
            fn((2, 1), ctx=ctx30, z=z, T_values=T_values)
    with pytest.raises(ValueError, match="T_values must be a collection"):
        sweep(2, "main2", ctx30, T_values=T_values)


@pytest.mark.parametrize("T", [mp.nan, mp.inf, float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_T_values_is_refused(ctx30, T):
    z = mp.mpf("0.3")
    for fn in IDENTITIES.values():
        with pytest.raises(ValueError, match="not finite"):
            fn((2,), ctx=ctx30, z=z, T_values=(0, T))


def test_sweep_empty_and_order(ctx30):
    assert sweep(0, "main", ctx30) == []
    for max_weight in (True, 2.5, -1, "3", None):
        with pytest.raises(ValueError, match="max_weight must be an int >= 0"):
            sweep(max_weight, "main", ctx30)
    reps = sweep(3, "main", ctx30)
    comps = [r.composition for r in reps]
    assert comps == [(1,), (1, 1), (2,), (1, 1, 1), (1, 2), (2, 1), (3,)]
    weights = [weight(c) for c in comps]
    assert weights == sorted(weights)


def test_sweep_reads_a_one_shot_T_values_once(ctx30):
    def rows(reports):
        return [(r.composition, r.status, r.residual, r.T, r.lhs, r.rhs) for r in reports]

    once = sweep(3, "main2", ctx30, T_values=(t for t in (0, 1)))
    assert len(once) == 7
    assert rows(once) == rows(sweep(3, "main2", ctx30, T_values=(0, 1)))


def test_sweep_statuses(ctx30):
    reps = sweep(4, "main", ctx30)
    by_status = {s: [r for r in reps if r.status == s] for s in ("pass", "fail", "skip")}
    assert not by_status["fail"]
    assert by_status["pass"]
    assert by_status["skip"]


def test_sweep_requires_z_for_bouillot(ctx30):
    from mzvparity import DomainError

    with pytest.raises(DomainError):
        sweep(2, "bouillot", ctx30)


def test_sweep_unknown_identity(ctx30):
    with pytest.raises(ValueError):
        sweep(2, "nonsense", ctx30)


def test_pass_iff_residual_below_bound(ctx30):
    reps = sweep(5, "main2", ctx30)
    for r in reps:
        assert r.passed == (r.residual <= r.bound)


def test_reports_reproducible(ctx30):
    a = verify_fund_eq2((2, 3), ctx30)
    b = verify_fund_eq2((2, 3), ctx30)
    assert a.residual == b.residual
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_describe_formats(ctx30):
    rep = verify_main((1, 2), ctx30)
    text = rep.describe()
    assert "PASS" in text and "(1,2)" in text
    skip = verify_main((2, 2), ctx30)
    assert skip.describe().startswith("SKIP")


def test_describe_carries_the_point_of_a_bouillot_report(ctx30):
    rep = verify_bouillot((2, 2), mp.mpf("0.3"), ctx30)
    assert rep.describe().startswith("PASS bouillot  (2,2) z=0.3 T=0.0: residual ")


@pytest.mark.parametrize(
    "expansion, reason",
    [
        # a T term: the reduction of an admissible index must be T-free
        ({0: {0: {(3,): 1}, 1: {(2,): 1}}}, "reduction has T-degree 1"),
        # a word of depth 2 in the reduction of a depth-2 index
        ({0: {0: {(1, 2): 1}}}, "depth certificate failed"),
    ],
)
def test_main_fails_a_reduction_that_breaks_its_guarantees(ctx30, monkeypatch, expansion, reason):
    """The residual of (1, 2) against either expansion is 0 at T = 0, so
    the report fails on the structural guarantee alone."""
    fake = reduction.ReductionResult((1, 2), reduction.PiGradedExpr(expansion))
    monkeypatch.setattr(verify, "reduce_main", lambda c: fake)
    rep = verify_main((1, 2), ctx30)
    assert rep.status == "fail" and rep.reason == reason
    assert rep.residual <= rep.bound
