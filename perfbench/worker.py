"""One repetition of a benchmark workload, run in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N [--rep I] [--trace-out PATH]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The process imports mzvparity from the checkout's ``src/``, builds the
precision context and the seeded case list (that is the set-up), runs the
timed case loop through the package's public functions, checks every
output and prints one JSON object on stdout.  ``run.py`` starts it once per
repetition, so every repetition pays cold module caches as a user's
``mzvparity verify`` call does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402,F401
from mpmath import mp  # noqa: E402

from tracer import Tracer, traced  # noqa: E402

# Set-up starts here, once the interpreter and the declared dependencies
# (numpy, mpmath) are loaded: together they take about 0.26 s, vary with
# the host's file-system and CPU load by half as much again, and no change
# to mzvparity can alter them.  A new import-time dependency does count.
SETUP_START = time.perf_counter()

import mzvparity  # noqa: E402
from mzvparity import PrecisionContext, compositions_up_to, is_admissible  # noqa: E402

DIGESTS = HERE / "digests.json"

# name -> (target digits, maximum weight).  The seed only permutes the order
# of the cases; the set of cases is fixed by the workload.
WORKLOADS = {
    "main-w9": (30, 9),
    "main2-w8": (30, 8),
    "eval-w10": (100, 10),
    "bouillot-w6": (30, 6),
}
# The host's speed drifts by tens of percent over minutes on shared
# machines.  A reference sample this often during the sweep measures the
# drift, so that run.py can report sweep time in units of reference work.
REFERENCE_EVERY_S = 0.02
# Evaluation points of the multitangent identity, as in the acceptance suite.
BOUILLOT_Z = (mp.mpf("0.3"), mp.mpc("0.25", "0.2"))


def environment(seed) -> dict:
    """What a result is comparable on: interpreter, mpmath backend, cores."""
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def case_set(name: str) -> list:
    """Every case of a workload, in enumeration order.

    A case is a composition, or for ``bouillot-w6`` a pair (composition,
    index into ``BOUILLOT_Z``).
    """
    max_weight = WORKLOADS[name][1]
    comps = list(compositions_up_to(max_weight))
    if name == "eval-w10":
        return [c for c in comps if is_admissible(c)]
    if name == "bouillot-w6":
        return [(c, zi) for zi in range(len(BOUILLOT_Z)) for c in comps]
    return comps


def case_order(name: str, seed: int, rep: int) -> list:
    """The workload's cases in the order that a seed fixes for one
    repetition.  Each repetition of a run gets its own order, so that the
    per-case percentiles of a run average over several cache-fill orders."""
    cases = case_set(name)
    random.Random(f"{name}/{seed}/{rep}").shuffle(cases)
    return cases


def case_id(case) -> str:
    if isinstance(case[0], tuple):
        comp, zi = case
        return ",".join(map(str, comp)) + f"@z{zi}"
    return ",".join(map(str, case))


def make_call(name: str, ctx: PrecisionContext):
    """The public function a case is passed to, looked up now so that a
    traced binding is the one called."""
    verify = mzvparity.verify
    if name == "main-w9":
        fn = verify.verify_main
        return lambda c: fn(c, ctx)
    if name == "main2-w8":
        fn = verify.verify_main2
        return lambda c: fn(c, ctx, T_values=(0, 1))
    if name == "eval-w10":
        fn = mzvparity.mzv.eval_admissible_mzv
        return lambda c: fn(c, ctx)
    fn = verify.verify_bouillot
    return lambda case: fn(case[0], BOUILLOT_Z[case[1]], ctx)


# ---------------------------------------------------------------------------
# exact-output digest
# ---------------------------------------------------------------------------

# workload -> (verify-module name of the function that builds the exact
# expansion, the expansion within its result)
DIGEST_TARGETS = {
    "main-w9": ("reduce_main", lambda result: result.expanded),
    "main2-w8": ("build_main2_identity", lambda result: result),
}


def expansion_rows(expr) -> list:
    """Sorted (pi_exp, t, word, numerator, denominator) rows of a
    pi-graded expression."""
    rows = []
    for p, tp in expr.items():
        for t, combo in tp.items():
            for word, q in combo.items():
                rows.append((p, t, tuple(word), q.numerator, q.denominator))
    rows.sort()
    return rows


def expansion_digest(expr) -> str:
    return hashlib.sha256(repr(expansion_rows(expr)).encode()).hexdigest()


def sweep_digest(by_case: dict) -> str:
    """One digest for a sweep, independent of the order the cases ran in."""
    lines = "\n".join(f"{c}:{d}" for c, d in sorted(by_case.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def digest_problems(name: str, digest: str, committed: dict) -> list:
    expected = committed.get(name)
    if digest != expected:
        return [f"exact-output digest {digest} differs from the committed {expected}"]
    return []


class DigestCapture:
    """Records the digest of every exact expansion a verifier builds, and
    the time spent hashing, which the timed loop leaves out."""

    def __init__(self, expanded):
        self.expanded = expanded
        self.by_case: dict = {}
        self.hidden = 0.0

    def wrap(self, fn):
        def capture(c, *args, **kwargs):
            result = fn(c, *args, **kwargs)
            t0 = time.perf_counter()
            self.by_case[tuple(c)] = expansion_digest(self.expanded(result))
            self.hidden += time.perf_counter() - t0
            return result

        return capture


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def margin_digits(residual, bound, ctx: PrecisionContext) -> float:
    """log10(bound / residual), capped at the working digits for a zero
    residual."""
    if residual == 0:
        return float(ctx.working_dps)
    return float(mp.log10(bound / residual))


def sum_theorem_checks(values: dict, ctx: PrecisionContext) -> list:
    """Residuals of two facts independent of the evaluator, as
    (label, cases involved, residual) triples.

    Sum theorem: the admissible values of each (weight, depth) group add up
    to zeta(weight).  Depth one: zeta(k) agrees with ``mpmath.zeta``.
    """
    groups = defaultdict(list)
    for c in values:
        groups[(sum(c), len(c))].append(c)
    checks = []
    with mp.workdps(ctx.working_dps + 10):
        for (w, d), members in sorted(groups.items()):
            total = mp.fsum(values[c] for c in members)
            checks.append((f"sum theorem w={w} d={d}", members, abs(total - mp.zeta(w))))
        for c in sorted(values):
            if len(c) == 1:
                checks.append((f"zeta({c[0]})", [c], abs(values[c] - mp.zeta(c[0]))))
    return checks


def judge_eval(outcomes: list, ctx: PrecisionContext) -> dict:
    values = {}
    failed_cases = set()
    problems = []
    for case, result, error, _ in outcomes:
        if error is not None:
            failed_cases.add(case)
            problems.append(f"{case_id(case)}: raised {error}")
        else:
            values[case] = result.value
    bound = ctx.residual_bound()
    margins = []
    for label, members, residual in sum_theorem_checks(values, ctx):
        margins.append(margin_digits(residual, bound, ctx))
        if not residual <= bound:
            failed_cases.update(members)
            problems.append(f"{label}: residual {mp.nstr(residual, 3)} above {mp.nstr(bound, 3)}")
    return {
        "checked": len(outcomes),
        "failed": len(failed_cases),
        "skipped": 0,
        "case_s": [dt for *_, dt in outcomes],
        "min_margin": min(margins),
        "problems": problems,
    }


def judge_reports(outcomes: list, ctx: PrecisionContext) -> dict:
    checked = failed = skipped = 0
    times, margins, problems = [], [], []
    for case, report, error, dt in outcomes:
        if error is None and report.skipped:
            skipped += 1
            continue
        checked += 1
        times.append(dt)
        if error is not None:
            failed += 1
            problems.append(f"{case_id(case)}: raised {error}")
            continue
        margins.append(margin_digits(report.residual, report.bound, ctx))
        if not report.passed:
            failed += 1
            problems.append(report.describe())
    return {
        "checked": checked,
        "failed": failed,
        "skipped": skipped,
        "case_s": times,
        "min_margin": min(margins) if margins else 0.0,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


def reference_work() -> None:
    """A fixed piece of Python and mpmath work that does not touch
    mzvparity.  Timed between cases, it measures how fast the host runs at
    that moment."""
    with mp.workdps(45):
        total = mp.mpf(0)
        for n in range(1, 60):
            total += mp.mpf(n) ** -3
    acc = Fraction(0)
    counts: dict = {}
    for n in range(1, 60):
        acc += Fraction(1, n * n + 1)
        key = (n % 31, n % 7)
        counts[key] = counts.get(key, 0) + n


def run_cases(call, cases, tracer=None, hidden=lambda: 0.0) -> tuple:
    """The timed case loop.

    Returns (case, result, error, seconds) per case, the loop's wall time,
    and the reference samples taken between cases, one whenever
    ``REFERENCE_EVERY_S`` has passed since the last.  Each sample is a pair
    (seconds of loop work since the previous sample, sample duration).  The
    samples, and the digest hashing that ``hidden()`` accounts for, are left
    out of the case and loop times.
    """
    clock = time.perf_counter
    outcomes, refs = [], []
    hidden_start = hidden()
    start = last_ref = clock()
    for case in cases:
        if tracer is not None:
            tracer.case = case_id(case)
        h0 = hidden()
        t0 = clock()
        try:
            result, error = call(case), None
        except Exception as exc:  # a raising case is a failed case, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        outcomes.append((case, result, error, t1 - t0 - (hidden() - h0)))
        if t1 - last_ref >= REFERENCE_EVERY_S:
            reference_work()
            sample_end = clock()
            refs.append((t1 - last_ref, sample_end - t1))
            last_ref = sample_end
    sweep_s = clock() - start - (hidden() - hidden_start) - sum(r for _, r in refs)
    return outcomes, sweep_s, refs


def reference_seconds(refs: list) -> float:
    """Duration of one piece of reference work, averaged over the sweep
    with each sample weighted by the loop time it follows, so that the long
    cases where most of the sweep's time goes count in proportion."""
    return sum(gap * r for gap, r in refs) / sum(gap for gap, _ in refs)


def repetition(name: str, seed: int, rep: int, trace_out=None) -> dict:
    digits = WORKLOADS[name][0]
    ctx = PrecisionContext(digits=digits)
    cases = case_order(name, seed, rep)
    t_ready = time.perf_counter()

    tracer = Tracer() if trace_out else None
    capture = None
    target = DIGEST_TARGETS.get(name)
    if tracer is not None:
        # No digest here: its hashing would count as verifier self time.
        # The untraced repetition of each pair checks it.
        with traced(tracer):
            outcomes, sweep_s, refs = run_cases(make_call(name, ctx), cases, tracer=tracer)
    elif target is not None:
        fn_name, expanded = target
        original = getattr(mzvparity.verify, fn_name)
        capture = DigestCapture(expanded)
        setattr(mzvparity.verify, fn_name, capture.wrap(original))
        try:
            outcomes, sweep_s, refs = run_cases(
                make_call(name, ctx), cases, hidden=lambda: capture.hidden
            )
        finally:
            setattr(mzvparity.verify, fn_name, original)
    else:
        outcomes, sweep_s, refs = run_cases(make_call(name, ctx), cases)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    judge = judge_eval if name == "eval-w10" else judge_reports
    result = judge(outcomes, ctx)
    result.update(
        t_ready=t_ready, setup_s=t_ready - SETUP_START,
        sweep_s=sweep_s, ref_s=reference_seconds(refs),
        rss_mb=rss_mb, env=environment(seed),
    )
    if capture is not None:
        committed = json.loads(DIGESTS.read_text())
        result["problems"] += digest_problems(name, sweep_digest(capture.by_case), committed)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_jsonl(trace_out, {"workload": name, "env": environment(seed)})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0, help="repetition index within the run")
    ap.add_argument("--trace-out", default=None, help="trace this repetition into a JSONL file")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)
    src = ROOT / "src" / "mzvparity"
    if Path(mzvparity.__file__).resolve().parent != src:
        print(f"mzvparity was imported from {mzvparity.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        case_order(args.workload, args.seed, args.rep)
        PrecisionContext(digits=WORKLOADS[args.workload][0])
        t_ready = time.perf_counter()
        result = {"t_ready": t_ready, "setup_s": t_ready - SETUP_START}
    else:
        result = repetition(args.workload, args.seed, args.rep, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
