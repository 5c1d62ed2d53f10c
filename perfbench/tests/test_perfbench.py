"""Tests of the benchmark's own machinery: tracing, checks and case orders.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

import mzvparity  # noqa: E402
from mzvparity import PiGradedExpr, PrecisionContext, reduce_main  # noqa: E402
from mzvparity.precision import Approx  # noqa: E402

CTX = PrecisionContext(digits=30)


def _bindings() -> dict:
    names = {f for fns in tracer.LAYER_FUNCTIONS.values() for f in fns}
    return {
        (mod.__name__, name): vars(mod)[name]
        for mod in tracer._package_modules()
        for name in names
        if name in vars(mod)
    }


def test_traced_rebinds_and_restores_every_binding():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer()):
            during = _bindings()
            assert during.keys() == before.keys()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_times_are_nonnegative_and_add_up_to_each_root():
    tr = tracer.Tracer()
    with tracer.traced(tr):
        tr.case = "1,2,3"
        mzvparity.verify.verify_main((1, 2, 3), CTX)
        tr.case = "2,1@z0"
        mzvparity.verify.verify_bouillot((2, 1), mp.mpf("0.3"), CTX)
    spans = tr.spans
    assert all(own >= -1e-9 for *_, own in spans)
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["verify.verify_main", "verify.verify_bouillot"]
    tree_self = {i: 0.0 for i in roots}
    for i, (name, start, end, parent, case, own) in enumerate(spans):
        root = i
        while spans[root][3] != -1:
            root = spans[root][3]
        tree_self[root] += own
        assert case == spans[root][4]
    for i in roots:
        assert tree_self[i] == pytest.approx(spans[i][2] - spans[i][1], abs=1e-9)
    metrics = tr.metrics()
    assert metrics["reduction.reduce_main.calls"] == 1
    assert metrics["multitangent.eval_multitangent_regularized.calls"] == 1
    total_self = sum(metrics[f"{n}.self_s"] for n in tracer.SPAN_NAMES)
    assert total_self == pytest.approx(sum(s[2] - s[1] for s in (spans[i] for i in roots)))


def test_benchmark_json_declares_what_the_code_measures():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(tracer.Tracer().metrics()) | {"trace.overhead_ratio"}


def _perturbed(expr) -> PiGradedExpr:
    flat = {(p, t, w): Fraction(n, d) for p, t, w, n, d in worker.expansion_rows(expr)}
    key = next(iter(flat))
    flat[key] += Fraction(1, 1000)
    return PiGradedExpr._from_flat(flat)


def test_digest_check_fails_on_a_perturbed_expansion():
    expr = reduce_main((2, 3)).expanded
    good = worker.sweep_digest({(2, 3): worker.expansion_digest(expr)})
    committed = {"main-w9": good}
    assert worker.digest_problems("main-w9", good, committed) == []
    bad = worker.sweep_digest({(2, 3): worker.expansion_digest(_perturbed(expr))})
    assert worker.digest_problems("main-w9", bad, committed)


def _eval_outcomes(max_weight: int) -> list:
    cases = [c for c in mzvparity.compositions_up_to(max_weight) if mzvparity.is_admissible(c)]
    return [(c, mzvparity.eval_admissible_mzv(c, CTX), None, 0.0) for c in cases]


def test_sum_theorem_check_fails_on_a_perturbed_value():
    outcomes = _eval_outcomes(6)
    good = worker.judge_eval(outcomes, CTX)
    assert good["failed"] == 0 and good["problems"] == []
    assert good["min_margin"] > 0
    bad = [
        (c, Approx(v.value + mp.mpf(10) ** -20, v.bound), e, dt) if c == (2, 1, 3) else (c, v, e, dt)
        for c, v, e, dt in outcomes
    ]
    judged = worker.judge_eval(bad, CTX)
    group = [c for c, *_ in outcomes if sum(c) == 6 and len(c) == 3]
    assert judged["failed"] == len(group)
    assert any("w=6 d=3" in p for p in judged["problems"])


def test_sum_theorem_covers_every_weight_depth_group():
    checks = worker.sum_theorem_checks({c: v.value for c, v, _, _ in _eval_outcomes(5)}, CTX)
    labels = [label for label, _, _ in checks]
    assert sum(label.startswith("sum theorem") for label in labels) == 1 + 2 + 3 + 4
    assert [label for label in labels if label.startswith("zeta")] == [
        "zeta(2)", "zeta(3)", "zeta(4)", "zeta(5)"
    ]


@pytest.mark.parametrize(
    "name, size", [("main-w9", 511), ("main2-w8", 255), ("eval-w10", 511), ("bouillot-w6", 126)]
)
def test_seed_fixes_the_order_and_never_the_case_set(name, size):
    order = worker.case_order(name, 7, 0)
    assert order == worker.case_order(name, 7, 0)
    assert len(order) == size
    reference = sorted(worker.case_set(name))
    for seed, rep in [(7, 1), (8, 0), (9, 3)]:
        other = worker.case_order(name, seed, rep)
        assert other != order
        assert sorted(other) == reference


def test_case_loop_leaves_out_reference_samples_and_hidden_time():
    hidden = [0.0]

    def call(case):
        time.sleep(0.03)  # the case's own work
        t0 = time.perf_counter()
        time.sleep(0.01)  # work the benchmark does on the side
        hidden[0] += time.perf_counter() - t0
        return case

    outcomes, sweep_s, refs = worker.run_cases(call, [1, 2, 3, 4], hidden=lambda: hidden[0])
    assert len(refs) == 4  # every case takes longer than REFERENCE_EVERY_S
    assert all(gap >= 0.04 for gap, _ in refs)  # a case, hidden time included
    assert min(r for _, r in refs) <= worker.reference_seconds(refs) <= max(r for _, r in refs)
    assert [case for case, *_ in outcomes] == [1, 2, 3, 4]
    for _, result, error, seconds in outcomes:
        assert error is None and 0.03 <= seconds < 0.039
    assert 0.12 <= sweep_s < 0.155
