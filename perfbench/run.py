"""The mzvparity benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload main-w9 --seed 1 --seconds 30 --trace 0

Every repetition of the workload runs in a fresh Python process
(``worker.py``), because users pay cold module caches on every
``mzvparity verify`` call.  Load comes from that one process on one
thread, in a closed loop: the next case starts when the previous one
returns.  Repetitions are started until the next one would end after
``--seconds``; there is always at least one.

The host's speed can drift by tens of percent within minutes, so the
sweep is reported in units of a fixed piece of reference work that the
worker times between cases (``sweep_ref``); the wall time is printed too.

With ``--trace 0`` the run reports the end-to-end metrics, medians over its
repetitions.  With ``--trace 1`` every untraced repetition is followed by a
traced one, and the run reports the per-layer metrics of the traced
repetitions and the tracing overhead.  Metric names and units are those in
``BENCHMARK.json``.  The last line of standard output is one JSON object;
the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACE_DIR = ROOT / "perfbench_out"

# Fresh processes that only set up, so that setup_s is a median of several
# samples even when a run has room for two repetitions only.
SETUP_PROBES = 9
# Stop waiting for workers this long after the start, so that a run always
# exits within the three minutes it is given.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A worker crashed or ran out of time; the run has no result."""


def spawn(workload: str, seed: int, deadline: float, extra=()) -> dict:
    """Run one worker process and return its result, with the time from
    spawning it until its cases were ready."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the worker's
    # reading and ours share an origin.
    result["start_s"] = result["t_ready"] - t_spawn
    return result


def case_latency(reps: list) -> str:
    """Per-case latency pooled over the repetitions, each of which ran the
    cases in its own order.  Printed, not reported as a metric: a case's
    latency depends on which shared cache entries earlier cases filled, so
    these percentiles move with the order far more than the sweep does."""
    samples = [s for r in reps for s in r["case_s"]]
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return (f"case latency p50 {1000 * p50:.4g} ms, p90 {1000 * p90:.4g} ms"
            f" over {len(samples)} cases in {len(reps)} orders")


def sweep_ref(rep: dict) -> float:
    """Sweep time in units of the reference work timed during the sweep."""
    return rep["sweep_s"] / rep["ref_s"]


def end_to_end(reps: list, setups: list) -> dict:
    checked = sum(r["checked"] for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "sweep_ref": statistics.median(sweep_ref(r) for r in reps),
        "cases_checked": reps[0]["checked"],
        "pass_ratio": (checked - sum(r["failed"] for r in reps)) / checked,
        "min_margin_digits": min(r["min_margin"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith(".self_s"):
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = value
    out["trace.overhead_ratio"] = (
        statistics.median(sweep_ref(r) for r in traced)
        / statistics.median(sweep_ref(r) for r in plain)
    )
    return out


def consistency_problems(reps: list) -> list:
    """Repetitions of one seed must check the same cases."""
    counts = {(r["checked"], r["skipped"]) for r in reps}
    if len(counts) > 1:
        return [f"repetitions disagree on (checked, skipped): {sorted(counts)}"]
    return []


def measure(workload: str, seed: int, seconds: float, trace: bool):
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setups = [spawn(workload, seed, deadline, ["--setup-only"])
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        rep = ["--rep", str(len(plain))]
        plain.append(spawn(workload, seed, deadline, rep))
        if trace:
            TRACE_DIR.mkdir(exist_ok=True)
            out = TRACE_DIR / f"trace-{workload}-seed{seed}-{len(traced)}.jsonl"
            traced.append(spawn(workload, seed, deadline, rep + ["--trace-out", str(out)]))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return plain, traced, setups + plain


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running worker.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="mzvparity benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mzvparity" / "__init__.py").is_file():
        print(f"no mzvparity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    reps = plain + traced
    problems = consistency_problems(reps)
    for r in reps:
        problems += r["problems"]
    attempted = sum(r["checked"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not problems and failed == 0

    env = plain[0].get("env")
    print(f"# workload {args.workload}: {len(plain)} repetitions"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {plain[0]['checked']} checked cases each, {plain[0]['skipped']} skipped")
    print(f"# env {json.dumps(env)}")
    print(f"# process start to ready {statistics.median(r['start_s'] for r in setups):.4g} s"
          f" (interpreter and dependencies included, median of {len(setups)})")
    print(f"# sweep wall time {statistics.median(r['sweep_s'] for r in plain):.4g} s,"
          f" reference work {1000 * statistics.median(r['ref_s'] for r in plain):.4g} ms"
          f" (medians over {len(plain)} repetitions)")
    print(f"# {case_latency(plain)}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
