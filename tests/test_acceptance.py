"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``); the
stated runtime budgets are asserted with the elapsed wall time.
"""

import json
import random
import time

import pytest
from mpmath import mp

from mzvparity import (
    IDENTITIES,
    PrecisionContext,
    ResidualReport,
    antipode_combo,
    compositions_up_to,
    depth,
    eval_admissible_mzv,
    eval_hurwitz_direct,
    eval_monotangent,
    eval_multitangent_direct,
    eval_multitangent_regularized,
    eval_pigraded,
    eval_piterm,
    even_zeta,
    is_admissible,
    reduce_main,
    regularize,
    stuffle,
    sweep,
    weight,
)
from mzvparity.cli import main as cli_main

from oracles import eval_hurwitz_taylor, monotangent_symmetric_oracle, mzv_em_oracle

CTX30 = PrecisionContext(digits=30)


def _report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)")


def _random_composition(rng: random.Random, max_weight: int = 8):
    w = rng.randint(1, max_weight)
    parts = []
    while w > 0:
        p = rng.randint(1, w)
        parts.append(p)
        w -= p
    return tuple(parts)


def test_criterion_1_antipode_exact():
    t0 = time.time()
    checked = 0
    failures = []
    for c in compositions_up_to(8):
        for j in range(1, len(c) + 1):
            if not antipode_combo(j, c).is_zero:
                failures.append((c, j))
            checked += 1
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    _report("criterion 1 (antipode = 0, weight <= 8)", ok, f"{checked} cases exact", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 120


def test_criterion_2_algebra_laws():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(500):
        u, v = _random_composition(rng), _random_composition(rng)
        assert stuffle(u, v) == stuffle(v, u), (u, v)
    for _ in range(500):
        u, v, w = (
            _random_composition(rng),
            _random_composition(rng),
            _random_composition(rng),
        )
        assert stuffle(stuffle(u, v), w) == stuffle(u, stuffle(v, w)), (u, v, w)
    comps = list(compositions_up_to(6))
    pairs = 0
    for i, u in enumerate(comps):
        for v in comps[i:]:
            assert regularize(stuffle(u, v)) == regularize(u) * regularize(v), (u, v)
            pairs += 1
    elapsed = time.time() - t0
    ok = elapsed < 120
    _report(
        "criterion 2 (stuffle laws + homomorphism)",
        ok,
        f"500 random pairs/triples, {pairs} homomorphism pairs",
        elapsed,
    )
    assert elapsed < 120


def test_criterion_3_euler_checks():
    t0 = time.time()
    tol = mp.mpf(10) ** -30
    red2 = eval_pigraded(reduce_main((2,)).expanded, 0, CTX30).value
    direct2 = eval_admissible_mzv((2,), CTX30).value
    diff2 = abs(red2 - direct2)
    red12 = eval_pigraded(reduce_main((1, 2)).expanded, 0, CTX30).value
    direct3 = eval_admissible_mzv((3,), CTX30).value
    oracle3 = mzv_em_oracle(3, CTX30).value
    diff12 = abs(red12 - direct3)
    diff_oracle = abs(red12 - oracle3)
    elapsed = time.time() - t0
    ok = diff2 < tol and diff12 < tol and diff_oracle < tol
    _report(
        "criterion 3 (Euler checks to 30 digits)",
        ok,
        f"|reduce(2)-zeta(2)|={mp.nstr(diff2, 3)}, |reduce(1,2)-zeta(3)|={mp.nstr(diff12, 3)}",
        elapsed,
    )
    assert diff2 < tol and diff12 < tol and diff_oracle < tol


def test_criterion_4_main_sweep_weight_10():
    t0 = time.time()
    reports = sweep(10, "main", CTX30)
    ran = [r for r in reports if not r.skipped]
    bad = [r for r in ran if not r.passed or r.residual >= mp.mpf(10) ** -25]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    worst = max((r.residual for r in ran), default=mp.mpf(0))
    _report(
        "criterion 4 (main sweep, weight <= 10)",
        ok,
        f"{len(ran)} reductions, T-free + depth certificate, max residual {mp.nstr(worst, 3)}",
        elapsed,
    )
    for r in bad[:5]:
        print("   ", r.describe(), r.reason or "")
    assert not bad
    assert elapsed < 600


def test_criterion_5_main2_sweep_weight_7():
    t0 = time.time()
    reports = sweep(7, "main2", CTX30, T_values=(0, 1))
    bad = [r for r in reports if not r.passed or r.residual >= mp.mpf(10) ** -20]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    worst = max(r.residual for r in reports)
    _report(
        "criterion 5 (main2 sweep, weight <= 7, T=0 and 1)",
        ok,
        f"{len(reports)} identities, max residual {mp.nstr(worst, 3)}",
        elapsed,
    )
    assert not bad
    assert elapsed < 600


def test_criterion_6_bouillot_weight_6():
    t0 = time.time()
    tol = mp.mpf(10) ** -15
    points = [mp.mpf("0.3"), mp.mpc("0.25", "0.2")]
    all_reports = []
    for z in points:
        all_reports.extend(sweep(6, "bouillot", CTX30, z=z))
    bad = [r for r in all_reports if not r.passed or r.residual >= tol]
    # direct-series cross-check for indices with first/last parts >= 3
    cross = 0
    for z in points:
        for c in compositions_up_to(6):
            if len(c) < 2 or c[0] < 3 or c[-1] < 3:
                continue
            direct = eval_multitangent_direct(c, z, CTX30)
            reg = eval_multitangent_regularized(c, z, 0, CTX30)
            gap = abs(direct.value - reg.value)
            assert gap < direct.bound, (c, z, gap, direct.bound)
            cross += 1
    elapsed = time.time() - t0
    ok = not bad and elapsed < 900
    worst = max(r.residual for r in all_reports)
    _report(
        "criterion 6 (Bouillot reduction, weight <= 6, two points)",
        ok,
        f"{len(all_reports)} cases, max residual {mp.nstr(worst, 3)}, {cross} direct cross-checks",
        elapsed,
    )
    for r in bad[:5]:
        print("   ", r.describe(), r.reason or "")
    assert not bad
    assert elapsed < 900


def test_criterion_7_analytic_cross_routes():
    t0 = time.time()
    ctx10 = PrecisionContext(digits=10)
    grid = [
        mp.mpf("0.1"),
        mp.mpf("-0.2"),
        mp.mpf("0.3"),
        mp.mpf("0.45"),
        mp.mpc("0.25", "0.2"),
        mp.mpc("-0.3", "0.3"),
    ]
    hurwitz_checked = 0
    for c in compositions_up_to(5):
        if not is_admissible(c):
            continue
        for z in grid:
            ty = eval_hurwitz_taylor(c, z, ctx10)
            hd = eval_hurwitz_direct(c, z, ctx10)
            assert abs(ty.value - hd.value) < mp.mpf(10) ** -8, (c, z)
            hurwitz_checked += 1
    mono_checked = 0
    mono_points = [0.1, -0.2, 0.3, 0.45, complex(0.25, 0.2)]
    for s in range(2, 7):
        for z in mono_points:
            closed = eval_monotangent(s, z, CTX30)
            series = monotangent_symmetric_oracle(s, complex(z), cutoff=20_000)
            assert abs(closed.value - series.value) < mp.mpf(10) ** -8, (s, z)
            mono_checked += 1
    for m in range(1, 7):
        fast = eval_admissible_mzv((2 * m,), CTX30).value
        closed = eval_piterm(even_zeta(m), CTX30).value
        assert abs(fast - closed) < mp.mpf(10) ** -30, m
    elapsed = time.time() - t0
    ok = elapsed < 300
    _report(
        "criterion 7 (analytic cross-routes)",
        ok,
        f"{hurwitz_checked} Hurwitz route pairs, {mono_checked} monotangent pairs, zeta(2m) m<=6",
        elapsed,
    )
    assert elapsed < 300


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    t0 = time.time()
    # exit-code semantics
    assert cli_main(["verify", "main", "--k", "1,2", "--digits", "15"]) == 0
    assert cli_main(["verify", "main", "--k", "2,2"]) == 0  # skip is success
    assert cli_main(["reduce", "1,1,1"]) == 2
    assert cli_main(["eval", "mzv", "5,3,1"]) == 2

    def always_fail(c, ctx, *, z=None, T_values=None):
        return ResidualReport(
            identity="main2",
            composition=c,
            digits=ctx.digits,
            residual=mp.mpf(1),
            bound=ctx.residual_bound(),
            status="fail",
        )

    monkeypatch.setitem(IDENTITIES, "main2", always_fail)
    assert cli_main(["verify", "main2", "--k", "2"]) == 1
    monkeypatch.undo()
    capsys.readouterr()

    # JSON round-trip on the weight-6 table
    path = tmp_path / "table6.json"
    assert cli_main(["table", "--max-weight", "6", "--digits", "25", "-o", str(path)]) == 0
    entries = json.loads(path.read_text())
    ctx = PrecisionContext(digits=25)
    assert entries
    with mp.workdps(40):
        for entry in entries:
            total = mp.mpf(0)
            for term in entry["expanded"]:
                coeff = mp.mpf(int(term["coeff_num"])) / int(term["coeff_den"])
                val = coeff * mp.pi ** term["pi_exp"]
                if term["word"]:
                    val *= eval_admissible_mzv(tuple(term["word"]), ctx).value
                total += val
            stored = mp.mpf(entry["value"])
            assert abs(total - stored) < mp.mpf(10) ** (-(entry["digits"] - 2)), entry[
                "composition"
            ]
    elapsed = time.time() - t0
    _report(
        "criterion 8 (CLI exit codes + JSON round-trip)",
        True,
        f"{len(entries)} table entries round-tripped",
        elapsed,
    )
