"""Monotangents and multitangents: closed forms, direct sums, regularization."""

import tracemalloc
from math import log

import numpy as np
import pytest
from mpmath import mp

from mzvparity import (
    DomainError,
    clear_caches,
    eval_hurwitz_direct,
    eval_hurwitz_star,
    eval_monotangent,
    eval_multitangent_direct,
    eval_multitangent_regularized,
    PrecisionContext,
    eval_pigraded,
    eval_tpoly,
    reduce_main3,
    regularize,
    tau_value,
    verify_bouillot,
)
from mzvparity import multitangent
from mzvparity.harmonic import compositions_up_to

from oracles import monotangent_symmetric_oracle, multitangent_regularized_series


def test_monotangent_closed_values(ctx30):
    with mp.workdps(ctx30.working_dps + 5):
        v1 = eval_monotangent(1, mp.mpf("0.25"), ctx30)
        assert abs(v1.value - mp.pi) < mp.mpf(10) ** -35
        v2 = eval_monotangent(2, mp.mpf("0.5"), ctx30)
        assert abs(v2.value - mp.pi**2) < mp.mpf(10) ** -35


def test_monotangent_vs_symmetric_series(ctx30):
    for s in range(2, 7):
        for z in (mp.mpf("0.3"), mp.mpf("0.45"), mp.mpc("0.25", "0.2")):
            closed = eval_monotangent(s, z, ctx30)
            series = monotangent_symmetric_oracle(s, complex(z), cutoff=20_000)
            assert abs(closed.value - series.value) < 1e-8, (s, z)
            assert abs(closed.value - series.value) < series.bound + 1e-12


def test_monotangent_rejects_integers(ctx30):
    with pytest.raises(DomainError):
        eval_monotangent(2, 1, ctx30)
    with pytest.raises(DomainError):
        eval_monotangent(1, mp.mpf(-3), ctx30)
    with pytest.raises(ValueError):
        eval_monotangent(0, mp.mpf("0.3"), ctx30)


@pytest.mark.parametrize("order", [2.5, 2.0, "2", True, False])
def test_monotangent_refuses_a_non_int_order(ctx30, order):
    # True would be evaluated as order 1, and 2.5 fail on a list index
    with pytest.raises(ValueError, match="order"):
        eval_monotangent(order, mp.mpf("0.3"), ctx30)


def test_depth_one_multitangent_is_monotangent(ctx30):
    for k in (2, 3, 4, 5, 6):
        for z in (mp.mpf("0.3"), mp.mpf("0.5"), mp.mpc("0.25", "0.2")):
            reg = eval_multitangent_regularized((k,), z, 0, ctx30)
            mono = eval_monotangent(k, z, ctx30)
            assert abs(reg.value - mono.value) < mp.mpf(10) ** -20, (k, z)


def test_multitangent_direct_cross_checks(ctx30):
    z = mp.mpf("0.3")
    d = eval_multitangent_direct((2, 2), z, ctx30)
    r = eval_multitangent_regularized((2, 2), z, 0, ctx30)
    assert abs(d.value - r.value) < d.bound
    assert abs(d.value - r.value) < 1e-3
    zc = mp.mpc("0.25", "0.2")
    d33 = eval_multitangent_direct((3, 3), zc, ctx30)
    r33 = eval_multitangent_regularized((3, 3), zc, 0, ctx30)
    assert abs(d33.value - r33.value) < 1e-6
    assert abs(d33.value - r33.value) < d33.bound


def _direct_whole_array(c, z, M):
    """(value, tail estimate) of the direct sum with every level held as one
    complex array over all 2M values of m: the reference for the blocked
    kernel."""
    zc = complex(z)
    inv = 1.0 / (zc + np.arange(-M + 1, M + 1, dtype=np.float64))
    prev = np.ones(2 * M + 1, dtype=np.complex128)
    for k in c:
        term = np.zeros_like(prev)
        term[1:] = prev[:-1]
        for _ in range(k):
            term[1:] *= inv
        prev = np.cumsum(term)
    value = complex(prev[-1])
    logf = 4.0 * log(2 * M + 1)
    zabs = abs(zc)

    def side(k_escape, others):
        prod = 1.0
        for k in others:
            prod *= zabs ** (-k) + logf
        return (M - zabs) ** (1 - k_escape) / (k_escape - 1) * prod

    return value, side(c[0], c[1:]) + side(c[-1], c[:-1])


_BLOCK = multitangent._DIRECT_BLOCK


@pytest.mark.parametrize("z", [0.3, 0.25 + 0.2j, -0.45, 0.1 + 0.45j])
def test_direct_blocks_match_the_whole_array_sum(ctx30, z, monkeypatch):
    """Every index of weight <= 7 with first and last part >= 2, at cutoffs
    inside one block, on both sides of the block edges and at the default:
    the blocked sum agrees with the whole-array sum to float64 accuracy
    (the powers (z+m)^(-k) are rounded once instead of k times), its bound
    is the same tail estimate plus the same fp slack on its value, and its
    value is an mpc also at a real z."""
    indices = [c for c in compositions_up_to(7) if c[0] >= 2 and c[-1] >= 2]
    for M in (1, 7, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100_000):
        monkeypatch.setattr(multitangent, "_DIRECT_CUTOFF", M)
        for c in indices:
            got = eval_multitangent_direct(c, z, ctx30)
            value, est = _direct_whole_array(c, z, M)
            assert isinstance(got.value, mp.mpc), (c, M)
            assert abs(complex(got.value) - value) <= 1e-13 * (1 + abs(value)), (c, M)
            assert got.bound == mp.mpf(est + 1e-11 * (1 + abs(complex(got.value)))), (c, M)
            assert abs(got.bound - (est + 1e-11 * (1 + abs(value)))) <= 1e-15 * got.bound


def test_direct_memory_stays_within_blocks(ctx30):
    """Only block arrays are live: the whole-array sum peaked at 12.2 MiB."""
    for z in (mp.mpf("0.3"), mp.mpc("0.25", "0.2")):
        tracemalloc.start()
        try:
            eval_multitangent_direct((2, 1, 1, 2), z, ctx30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (z, peak)


def test_multitangent_direct_preconditions(ctx30):
    with pytest.raises(DomainError):
        eval_multitangent_direct((1, 2), 0.3, ctx30)
    with pytest.raises(DomainError):
        eval_multitangent_direct((2, 1), 0.3, ctx30)
    with pytest.raises(DomainError):
        eval_multitangent_direct((2, 2), 2, ctx30)


def test_multitangent_regularized_domain(ctx30):
    with pytest.raises(DomainError):
        eval_multitangent_regularized((2,), 0, 0, ctx30)
    with pytest.raises(DomainError):
        eval_multitangent_regularized((2,), mp.mpf("0.75"), 0, ctx30)
    with pytest.raises(ValueError):
        eval_multitangent_regularized((), mp.mpf("0.3"), 0, ctx30)


def test_non_finite_z_is_refused(ctx30):
    """Every numeric evaluator raises DomainError at a z with an infinite or
    NaN part, the last two among them instead of running for minutes in
    mpmath's digamma at z = 0.3 + nan i."""
    calls = [
        lambda z: eval_hurwitz_direct((2,), z, ctx30),
        lambda z: eval_monotangent(2, z, ctx30),
        lambda z: tau_value(z, 0, ctx30),
        lambda z: eval_hurwitz_direct((2, 3), z, ctx30),
        lambda z: eval_multitangent_direct((2, 2), z, ctx30),
        lambda z: eval_multitangent_regularized((2,), z, 0, ctx30),
        lambda z: eval_hurwitz_star((2,), z, 0, ctx30),
        lambda z: verify_bouillot((2, 2), z, ctx30),
    ]
    for call in calls:
        for z in (mp.mpc(0.3, mp.nan), mp.mpc(0.3, mp.inf), mp.nan, mp.inf, -mp.inf):
            with pytest.raises(DomainError, match="not finite"):
                call(z)


@pytest.mark.parametrize("T", [mp.nan, mp.inf, -mp.inf, mp.mpc(0, mp.nan)])
def test_non_finite_T_is_refused(T, ctx30):
    """The evaluators that substitute T raise DomainError at a T with an
    infinite or NaN part."""
    calls = [
        lambda: eval_tpoly(regularize((2, 1)), T, ctx30),
        lambda: eval_pigraded(reduce_main3((1, 2)).expanded, T, ctx30),
        lambda: tau_value(mp.mpf("0.3"), T, ctx30),
        lambda: eval_hurwitz_star((2, 1), mp.mpf("0.3"), T, ctx30),
        lambda: eval_multitangent_regularized((1, 2), mp.mpf("0.3"), T, ctx30),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="not finite"):
            call()


def test_regularized_matches_literal_series():
    ctx = PrecisionContext(digits=12)
    z = mp.mpf("0.3")
    for c in [(2,), (1, 2), (2, 1)]:
        prod = eval_multitangent_regularized(c, z, 0, ctx)
        lit = multitangent_regularized_series(c, z, 0, ctx, order=22)
        assert abs(prod.value - lit.value) < lit.bound + mp.mpf(10) ** -8, c


def test_regularized_computes_each_hurwitz_value_once(ctx30, monkeypatch):
    """The 2d + 1 splits of a depth-d index share d + 1 heads at -z and
    d + 1 tails at z: 2(d + 1) regularized Hurwitz values, not 2(2d + 1)."""
    calls = []
    original = multitangent.eval_hurwitz_star

    def counting(word, point, T_value, ctx):
        calls.append((word, point))
        return original(word, point, T_value, ctx)

    monkeypatch.setattr(multitangent, "eval_hurwitz_star", counting)
    eval_multitangent_regularized((2, 1, 3), mp.mpf("0.3"), 0, ctx30)
    assert len(calls) == 2 * (3 + 1)
    assert len(set(calls)) == len(calls)


def test_t_dependence_structure(ctx30):
    """T cancels when the ends converge; otherwise the T-slope is explicit.

    With first and last part >= 2 the regularized multitangent equals the
    honest doubly infinite sum, so its value cannot depend on T.  For
    (1, k) the expansion carries the single T-word at the reversed head,
    and the T-slope works out to -Psi_k(z); check both statements.
    """
    z = mp.mpf("0.3")
    with mp.workdps(ctx30.working_dps + 5):
        conv0 = eval_multitangent_regularized((2, 2), z, 0, ctx30)
        conv1 = eval_multitangent_regularized((2, 2), z, 1, ctx30)
        assert abs(conv0.value - conv1.value) < mp.mpf(10) ** -20

        for k in (2, 3):
            v0 = eval_multitangent_regularized((1, k), z, 0, ctx30)
            v1 = eval_multitangent_regularized((1, k), z, 1, ctx30)
            slope = v1.value - v0.value
            mono = eval_monotangent(k, z, ctx30)
            assert abs(slope + mono.value) < mp.mpf(10) ** -20, k


def test_monotangent_cache_is_bounded_and_clearable(ctx30):
    points = (mp.mpf("0.3"), mp.mpc("0.25", "0.2"))
    clear_caches()
    before = [eval_monotangent(s, z, ctx30) for s in range(1, 7) for z in points]
    info = multitangent._monotangent.cache_info()
    assert info.maxsize is not None and info.currsize == info.misses == 12
    again = [eval_monotangent(s, z, ctx30) for s in range(1, 7) for z in points]
    assert multitangent._monotangent.cache_info().misses == 12
    assert all(a is b for a, b in zip(again, before))
    clear_caches()
    assert multitangent._monotangent.cache_info().currsize == 0
    after = [eval_monotangent(s, z, ctx30) for s in range(1, 7) for z in points]
    assert all(a is not b for a, b in zip(after, before))
    for a, b in zip(after, before):
        assert type(a.value) is type(b.value)
        assert a.value == b.value and a.bound == b.bound
