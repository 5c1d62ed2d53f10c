"""Hurwitz multiple zeta values: direct, Taylor, and regularized routes."""

import hashlib
from collections import Counter

import pytest
from mpmath import mp

from mzvparity import (
    DomainError,
    PrecisionContext,
    NonAdmissibleError,
    cache_info,
    clear_caches,
    compositions_up_to,
    eval_admissible_mzv,
    eval_hurwitz_direct,
    eval_hurwitz_star,
    eval_shifted,
    eval_tpoly,
    is_admissible,
    regularize,
    shift_expand,
    tau_value,
    verify_bouillot,
)
from mzvparity import hurwitz, regularization

from oracles import eval_hurwitz_taylor, tau_series


def test_direct_at_zero_matches_plain_mzv(ctx30):
    for c in [(2,), (3,), (1, 2), (2, 3), (1, 1, 2)]:
        h = eval_hurwitz_direct(c, 0, ctx30)
        m = eval_admissible_mzv(c, ctx30)
        assert abs(h.value - m.value) < mp.mpf(10) ** (-ctx30.working_dps + 4), c


def test_direct_depth_one_matches_hurwitz_zeta(ctx30):
    with mp.workdps(ctx30.working_dps + 10):
        for z in (mp.mpf("0.3"), mp.mpf("-0.4"), mp.mpc("0.25", "0.2"), mp.mpc(2, 5)):
            for k in (2, 3, 5):
                h = eval_hurwitz_direct((k,), z, ctx30)
                ref = mp.zeta(k, 1 + z)
                assert abs(h.value - ref) < mp.mpf(10) ** (-ctx30.working_dps + 4)


def test_direct_depth_one_bound_covers_hurwitz_zeta(ctx30):
    # the points above, values far above 1 (-0.999, -1.5) and points closer
    # to the pole at -1 than a double resolves, with values up to 1e360:
    # relative to the value, and the absolute bound must survive the
    # conversion of the fixed-point result
    with mp.workdps(ctx30.working_dps + 10):
        points = [(z, (2, 3, 5)) for z in (mp.mpf("0.3"), mp.mpf("-0.4"), mp.mpc("0.25", "0.2"),
                                           mp.mpc(2, 5), mp.mpf("-0.999"), mp.mpf("-1.5"))]
        points += [(-1 + mp.mpf("1e-18"), (2, 6)), (mp.mpc(-1, mp.mpf("1e-60")), (2, 6))]
    for z, ks in points:
        for k in ks:
            h = eval_hurwitz_direct((k,), z, ctx30)
            with mp.workdps(ctx30.working_dps + 30):
                ref = mp.zeta(k, 1 + z)
                err = abs(h.value - ref)
                assert err < mp.mpf(10) ** (-ctx30.working_dps + 4) * abs(ref), (z, k)
                assert err <= h.bound + mp.mpf(10) ** (-ctx30.working_dps - 25) * abs(ref), (z, k)


def test_direct_depth_one_far_left_of_the_origin(ctx30):
    # Every rung of the cutoff grows with -Re z, so that the tail starts at
    # Re u_A > rung, right of the poles.
    # mp.zeta(k, 1 + z) is no reference here (at z = -900.5 it returns
    # -0.00111, while the series is 9.868...), so the reference sums the
    # first N terms and adds the Hurwitz zeta value of the rest.
    with mp.workdps(ctx30.working_dps + 10):
        points = [mp.mpf("-900.5"), -901 + mp.mpf("1e-18"), mp.mpc(-901, mp.mpf("1e-30"))]
    for z in points:
        for k in (2, 3):
            h = eval_hurwitz_direct((k,), z, ctx30)
            with mp.workdps(ctx30.working_dps + 150):  # values up to 1e90
                N = 2000
                ref = mp.fsum((z + n) ** -k for n in range(1, N + 1)) + mp.zeta(k, z + N + 1)
                err = abs(h.value - ref)
            assert h.bound < mp.mpf(10) ** (-ctx30.working_dps + 4), (z, k)
            assert err <= h.bound, (z, k, err)


def test_direct_empty_index_is_one(ctx30):
    assert eval_hurwitz_direct((), mp.mpf("0.3"), ctx30).value == 1


def test_direct_rejects_divergent_and_poles(ctx30):
    with pytest.raises(NonAdmissibleError):
        eval_hurwitz_direct((2, 1), 0.3, ctx30)
    with pytest.raises(DomainError):
        eval_hurwitz_direct((2,), -2, ctx30)


def test_tau_value_refuses_a_pole(ctx30):
    # psi(1+z) has its poles at z = -1, -2, ...: a DomainError, as in
    # eval_hurwitz_direct, not mpmath's bare ValueError
    for z in (-1, mp.mpf(-2)):
        with pytest.raises(DomainError, match="pole"):
            tau_value(z, 0, ctx30)


def test_taylor_matches_direct_real(ctx10):
    z = mp.mpf("0.3")
    ty = eval_hurwitz_taylor((2,), z, ctx10)
    hd = eval_hurwitz_direct((2,), z, ctx10)
    assert abs(ty.value - hd.value) < mp.mpf(10) ** -8
    assert abs(ty.value - hd.value) < ty.bound + hd.bound


def test_taylor_matches_direct_complex(ctx10):
    z = mp.mpc("0.25", "0.2")
    ty = eval_hurwitz_taylor((1, 3), z, ctx10)
    hd = eval_hurwitz_direct((1, 3), z, ctx10)
    assert abs(ty.value - hd.value) < mp.mpf(10) ** -6


def test_taylor_at_zero_is_order_zero_coefficient(ctx30):
    v = eval_hurwitz_taylor((2,), 0, ctx30)
    m = eval_admissible_mzv((2,), ctx30)
    assert abs(v.value - m.value) < mp.mpf(10) ** -25


def test_taylor_preconditions(ctx10):
    with pytest.raises(DomainError):
        eval_hurwitz_taylor((2,), mp.mpf("0.7"), ctx10)
    with pytest.raises(NonAdmissibleError):
        eval_hurwitz_taylor((2, 1), mp.mpf("0.3"), ctx10)  # needs T
    # with T supplied the divergent index is fine
    v = eval_hurwitz_taylor((2, 1), mp.mpf("0.3"), ctx10, T_value=0)
    assert v.value != 0


def test_star_equals_direct_on_admissible(ctx30):
    z = mp.mpc("0.25", "0.2")
    s = eval_hurwitz_star((1, 3), z, 0, ctx30)
    d = eval_hurwitz_direct((1, 3), z, ctx30)
    assert abs(s.value - d.value) < mp.mpf(10) ** (-ctx30.digits)


def test_star_matches_literal_taylor_on_divergent(ctx10):
    # the homomorphism route must agree with the term-by-term Taylor sum
    z = mp.mpf("0.3")
    for T in (0, 1):
        s = eval_hurwitz_star((2, 1), z, T, ctx10)
        t = eval_hurwitz_taylor((2, 1), z, ctx10, T_value=T)
        assert abs(s.value - t.value) < mp.mpf(10) ** -8, T


def test_star_radius_enforced(ctx10):
    with pytest.raises(DomainError):
        eval_hurwitz_star((2,), mp.mpf("0.8"), 0, ctx10)


def test_tau_series_matches_digamma(ctx30):
    for z in (mp.mpf("0.3"), mp.mpc("0.25", "0.2"), mp.mpf("-0.45")):
        tv = tau_value(z, 0, ctx30)
        ts = tau_series(z, 0, ctx30)
        assert abs(tv - ts.value) < mp.mpf(10) ** (-ctx30.working_dps + 2)
    assert tau_value(0, 5, ctx30) == 5


def test_shifted_value_finite_difference_oracle(ctx30):
    # shift order 1 is the z-derivative of the shifted nested sum at z = 0
    with mp.workdps(60):
        h = mp.mpf(10) ** -15
        for c in [(2,), (1, 2)]:
            plus = eval_hurwitz_direct(c, h, ctx30).value
            minus = eval_hurwitz_direct(c, -h, ctx30).value
            derivative = (plus - minus) / (2 * h)
            symbolic = eval_shifted(c, 1, 0, ctx30).value
            assert abs(derivative - symbolic) < mp.mpf(10) ** -25, c


def test_shifted_value_is_regularized_shift_expansion(ctx30):
    v1 = eval_shifted((1, 2), 2, 0, ctx30).value
    v2 = eval_tpoly(regularize(shift_expand(2, (1, 2))), 0, ctx30).value
    assert v1 == v2


# the admissible words of weight <= 6 at the points of the bouillot sweeps
# and their negatives, where the multitangent side evaluates them
_WORDS = [c for c in compositions_up_to(6) if c and is_admissible(c)]
_POINTS = ("0.3", "-0.3", ("0.25", "0.2"), ("-0.25", "-0.2"))


def _points(ctx):
    with mp.workdps(ctx.working_dps + 10):
        return [mp.mpc(*z) if isinstance(z, tuple) else mp.mpf(z) for z in _POINTS]


@pytest.mark.parametrize("digits", [30, 60, 100])
def test_direct_bound_covers_truncation(digits, monkeypatch):
    # At 30 digits the cutoff comes from the ladder; at 60 and 100 digits
    # the cap, the Euler-Maclaurin order and the expansion order truncate
    # above the rounding error.  The bound must cover the distance to a
    # reference forced to the cutoff 4000.
    ctx = PrecisionContext(digits=digits)
    for z in _points(ctx):
        for c in _WORDS:
            value = eval_hurwitz_direct(c, z, ctx)
            monkeypatch.setattr(hurwitz, "_CUTOFFS", (4000,))
            ref = eval_hurwitz_direct(c, z, ctx, dps=ctx.working_dps + 10)
            same_key = eval_hurwitz_direct(c, z, ctx)
            monkeypatch.undo()
            with mp.workdps(ctx.working_dps + 20):
                err = abs(value.value - ref.value)
                assert err <= value.bound, (c, z, digits, err, value.bound)
                # the cutoffs are part of the cache key: no stale value (the
                # truncation estimate in the bound moves with the cutoff)
                assert same_key != value, (c, z, digits)
                if digits >= 60:  # there the truncation is far above the rounding
                    assert abs(same_key.value - ref.value) < err / 100, (c, z, digits)


def _cutoffs_and_bits(ctx, pairs, monkeypatch) -> dict:
    """(word, point) -> (cutoff N, value, bound) of eval_hurwitz_direct, N
    read from the partial sums that compute the value."""
    cutoffs = {}
    original = hurwitz._partial_sums

    def recording(c, zkey, P, N):
        cutoffs[c, zkey] = N
        return original(c, zkey, P, N)

    monkeypatch.setattr(hurwitz, "_partial_sums", recording)
    out = {}
    for c, z in pairs:
        h = eval_hurwitz_direct(c, z, ctx)
        key = c, hurwitz._dyadic(hurwitz._normalize_z(z, ctx.working_dps + 10))
        out[c, z] = cutoffs[key], h.value, h.bound
    monkeypatch.undo()
    return out


def test_cutoff_comes_from_the_precision(monkeypatch):
    # the rung 300 at 10 and 30 digits, and the cap 900 at 60 and 100
    # digits; every rung moves right past the poles, by 1 at Re z < 0
    for digits in (10, 30, 60, 100):
        clear_caches()
        ctx = PrecisionContext(digits=digits)
        pairs = [(c, z) for z in _points(ctx) for c in _WORDS]
        chosen = _cutoffs_and_bits(ctx, pairs, monkeypatch)
        rungs = {N - (z.real < 0) for (c, z), (N, _, _) in chosen.items()}
        assert rungs == {10: {300}, 30: {300}, 60: {900}, 100: {900}}[digits], digits
    # Near the pole at -1 the a-priori estimates of the 26 words of depth
    # >= 2 are far above 1, so at 30 digits only the 5 of depth 1 keep the
    # rung 301.  At 1e-60 i from the pole the size bounds of 24 words pass
    # the double range, and their rung still fails.
    rows = (
        (30, "1e-18", 0, {301: 5, 901: 26}),
        (30, 0, "1e-60", {301: 5, 901: 26}),
        (100, "1e-18", 0, {901: 31}),
    )
    for digits, re, im, counts in rows:
        clear_caches()
        ctx = PrecisionContext(digits=digits)
        with mp.workdps(ctx.working_dps + 10):
            z = mp.mpc(-1 + mp.mpf(re), im)
        chosen = _cutoffs_and_bits(ctx, [(c, z) for c in _WORDS], monkeypatch)
        assert Counter(N for N, _, _ in chosen.values()) == counts, (digits, z)


def test_cutoff_and_bits_do_not_depend_on_the_order(monkeypatch):
    # the same (N, value, bound) in reverse order, and after the tables and
    # segments were filled at other precisions
    ctx = PrecisionContext(digits=30)
    pairs = [(c, z) for z in _points(ctx) for c in _WORDS]
    clear_caches()
    first = _cutoffs_and_bits(ctx, pairs, monkeypatch)
    clear_caches()
    for digits in (60, 20):
        other = PrecisionContext(digits=digits)
        for c, z in pairs[::7]:
            eval_hurwitz_direct(c, z, other)
    again = _cutoffs_and_bits(ctx, pairs[::-1], monkeypatch)
    assert again == first


def test_stuffle_law_near_a_pole(ctx30):
    # depth 2 closer to the pole at -1 than a double resolves, with level
    # values up to 1e360: H(6) H(2) = H(6,2) + H(2,6) + H(8)
    wp = ctx30.working_dps + 10
    with mp.workdps(wp):
        points = (-1 + mp.mpf("1e-18"), mp.mpc(-1, mp.mpf("1e-60")))
    for z in points:
        rhs = [eval_hurwitz_direct(c, z, ctx30) for c in [(6, 2), (2, 6), (8,)]]
        with mp.workdps(wp + 30):
            lhs = mp.zeta(6, 1 + z) * mp.zeta(2, 1 + z)
            gap = abs(lhs - sum(h.value for h in rhs))
            slack = mp.mpf(10) ** -(wp + 20) * abs(lhs)
            assert gap <= slack + sum(h.bound for h in rhs), (z, gap)


def test_stuffle_law_against_mpmath_depth_one():
    # H(a) H(b) = H(a,b) + H(b,a) + H(a+b) for nested sums with a common
    # shift; the depth-1 factors come from mpmath.  H(1) and H(3,1)
    # diverge: their regularized values (tau_value at T = 0 and
    # eval_hurwitz_star) satisfy the same law.
    for digits in (10, 30, 60):
        ctx = PrecisionContext(digits=digits)
        wp = ctx.working_dps + 10
        with mp.workdps(wp):
            points = (mp.mpf("0.3"), -mp.mpf("0.3"), mp.mpc("0.25", "0.2"), -mp.mpc("0.25", "0.2"))
        for z in points:
            for a, b in [(2, 2), (2, 3), (3, 2), (1, 3)]:
                rhs = [eval_hurwitz_direct((a, b), z, ctx), eval_hurwitz_direct((a + b,), z, ctx)]
                if a == 1:
                    rhs.append(eval_hurwitz_star((b, a), z, 0, ctx))
                else:
                    rhs.append(eval_hurwitz_direct((b, a), z, ctx))
                with mp.workdps(wp + 20):
                    left = tau_value(z, 0, ctx) if a == 1 else mp.zeta(a, 1 + z)
                    lhs = left * mp.zeta(b, 1 + z)
                    # tau_value is read at wp digits, mpmath.zeta here at wp + 20
                    lhs_bound = mp.mpf(10) ** -(wp - 2) * abs(lhs)
                    gap = abs(lhs - sum(h.value for h in rhs))
                    assert gap <= lhs_bound + sum(h.bound for h in rhs), (a, b, z, digits, gap)


def test_segment_tail_data_pinned():
    # sha256 of the exact tail data of every segment of weight <= 7,
    # recorded from the recursive per-monomial antiderivative, shift and
    # Euler-Maclaurin maps that the closed forms replaced
    digest = hashlib.sha256()
    for c in compositions_up_to(7):
        s = hurwitz._segment(c)
        digest.update(repr((c, s.level[0], sorted(s.level[1].items()), s.den, s.rows)).encode())
    assert digest.hexdigest() == "92e5f741cf309716f072016a0732e79aa230647329fb82ed9803e92f6e30b14e"


def test_closed_form_antiderivative_is_exact():
    for p in range(1, 41):
        for q in range(13):
            den, items = hurwitz._antider_map(p, q)
            derivative = hurwitz._derivative(dict(items))
            assert {k: v for k, v in derivative.items() if v} == {(p, q): den}, (p, q)


def test_log1m_series_matches_mpmath():
    # -log(1 - x) / x = sum x^s / (s + 1) is below (1 - x)^(-1/2) coefficient
    # by coefficient, so the tail of log(1 - x)^i beyond x^28 is below that
    # of x^i (1 - x)^(-i/2); dropping the x^28 term exceeds it 14-fold
    with mp.workdps(80):
        x = mp.ldexp(1, -6)
        for i in range(13):
            series = mp.fsum(mp.mpf(c.numerator) / c.denominator * x**t
                             for t, c in enumerate(hurwitz._log1m_pow(i, 28)))
            head = mp.fsum(mp.binomial(m + mp.mpf(i) / 2 - 1, m) * x**m for m in range(29 - i))
            tail = x**i * ((1 - x) ** (-mp.mpf(i) / 2) - head)
            assert abs(series - mp.log(1 - x) ** i) <= tail, i


def test_star_regularizes_a_word_once(ctx30):
    # a word's divergent peel is cached by regularization and read once for
    # every T value: T = 1 adds no miss to those of T = 0
    misses = []
    clear_caches()
    for T in (0, 1):
        eval_hurwitz_star((2, 1), mp.mpf("0.3"), T, ctx30)
        misses.append(regularization._regularize_divergent.cache_info().misses)
    assert misses == [1, 1]


def _bouillot_rows(ctx):
    clear_caches()
    return [
        (c, r.status, *(getattr(x, "_mpc_", getattr(x, "_mpf_", x)) for x in (r.residual, r.lhs, r.rhs)))
        for z in (mp.mpf("0.3"), mp.mpc("0.25", "0.2"))
        for c in compositions_up_to(4)
        for r in [verify_bouillot(c, z, ctx, T_values=(0, 1))]
    ]


def test_star_walk_calls_no_public_evaluator(ctx30, monkeypatch):
    # the leaves read the private _direct, and tau(z) is formed in _star
    expected = _bouillot_rows(ctx30)

    def refuse(*args, **kwargs):
        raise AssertionError("the star walk called a public evaluator")

    monkeypatch.setattr(hurwitz, "eval_hurwitz_direct", refuse)
    monkeypatch.setattr(hurwitz, "tau_value", refuse)
    rows = _bouillot_rows(ctx30)
    assert all(status == "pass" for _, status, *_ in rows)
    assert rows == expected


def test_clear_caches_recomputes_the_same_value(ctx30):
    z = mp.mpc("0.25", "0.2")
    first = eval_hurwitz_direct((1, 3), z, ctx30)
    tau = tau_value(z, 0, ctx30)
    shifted = eval_shifted((1, 2), 2, 0, ctx30)
    clear_caches()
    assert all(size == 0 for size, _ in cache_info().values())
    again = eval_hurwitz_direct((1, 3), z, ctx30)
    assert again.value == first.value and again.bound == first.bound
    assert tau_value(z, 0, ctx30) == tau
    assert eval_shifted((1, 2), 2, 0, ctx30).value == shifted.value


def test_caches_are_bounded_and_psi_is_computed_once_per_point(ctx30):
    caps = [cap for name, (_, cap) in cache_info().items() if name.startswith("hurwitz.")]
    assert len(caps) == 11 and None not in caps
    clear_caches()
    z = mp.mpf("0.3")
    for T in (0, 1, 2):
        tau_value(z, T, ctx30)
    assert hurwitz._psi_gamma.cache_info().misses == 1


def test_a_point_shares_its_tail_data(ctx30):
    # one table of u_A monomials for every word at the point, and each
    # segment's constants once, whatever words it is part of: its triple of
    # size bounds (needed before P is known) and its d at P
    clear_caches()
    with mp.workdps(ctx30.working_dps + 10):
        z = mp.mpc("0.25", "0.2")
    for c in _WORDS:
        eval_hurwitz_direct(c, z, ctx30)
    segments = {c[i:j] for c in _WORDS for j in range(1, len(c) + 1) for i in range(j)}
    assert len(_WORDS) == 31 and len(segments) == 39
    assert hurwitz._monomials.cache_info().currsize == 1
    assert hurwitz._segment_at.cache_info().currsize == 2 * len(segments)


# sha256 of the (digits, word, value, bound) bits of eval_hurwitz_direct
# over the admissible words of weight <= 5 at the four bouillot points,
# recorded before the tables and segment constants were shared per point
_PINNED_DIRECT_BITS = "8e723b6d34b316faac98b515650c900d3335d6718d94f78873a54b395ab8a42b"


def test_direct_bits_pinned():
    clear_caches()
    rows = []
    for digits in (30, 60):
        ctx = PrecisionContext(digits=digits)
        for z in _points(ctx):
            for c in _WORDS:
                if sum(c) <= 5:
                    h = eval_hurwitz_direct(c, z, ctx)
                    rows.append((digits, c, *(getattr(x, "_mpc_", getattr(x, "_mpf_", x))
                                              for x in (h.value, h.bound))))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _PINNED_DIRECT_BITS


def test_constant_z_is_read_at_the_working_precision(ctx30):
    # mp.pi is a constant, evaluated wherever it is used; the value is that
    # at pi read to wp digits, not to the 53 bits current outside
    wp = ctx30.working_dps + 10
    with mp.workdps(wp):
        pi = +mp.pi
    assert eval_hurwitz_direct((1, 2), mp.pi, ctx30) == eval_hurwitz_direct((1, 2), pi, ctx30)
    z = mp.mpf("0.3")
    assert hurwitz._normalize_z(z, wp) is z
