#!/usr/bin/env python3
"""The derivcover benchmark.

    python3 bench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --sweep

Run from the root of a checkout.  One process, one check at a time (a
closed loop with one client, no threads).  Every check runs under a
deadline and its verdict is judged against answers that `known.py` derives
without derivcover.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is made twice, untraced and
then traced, and the metrics are the per-layer ones from the traced pass.

A run makes --seconds / workloads.PASS_SECONDS passes over the workload's
checks, so every commit measures the same checks.  A check's latency is its
best over the passes and its status the worst.  setup_s is the median of at
least SETUP_REPEATS cold `cover psi-check` runs, spread over the passes.  A
traced run makes one untraced and one traced pass, both in process, the
suite included on battery.
Spans of a traced run and the sweep table are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from harness import Result, run_check, run_pass, run_repeated, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = [
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SETUP_REPEATS = 15
PSI_ARGV = ["cover", "psi-check"]


def cold_cli_seconds(argv: list[str], held: list[bool]) -> float:
    """Wall time of a fresh interpreter running one CLI command to its
    rendered report; appends to `held` whether the report says holds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "derivcover.cli", *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=workloads.SUITE_DEADLINE_S)
        held.append(proc.returncode == 0 and "verdict: holds" in proc.stdout)
    except subprocess.TimeoutExpired:
        held.append(False)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    checks = workloads.build(workload, seed)
    limit = workloads.DEADLINE_S
    run_check(workloads.cli_check("warm-up", PSI_ARGV, lambda out: None), limit)
    if traced:
        return run_traced(workload, seed, checks, limit)

    passes = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
    held: list[bool] = []
    cold_cli_seconds(PSI_ARGV, held)  # fills the bytecode caches
    # cold starts after every pass, so that their median covers the whole run
    # rather than the second or two a shared machine may spend slow
    starts: list[float] = []
    per_pass = -(-SETUP_REPEATS // passes)

    def after_pass(p: int) -> None:
        starts.extend(cold_cli_seconds(PSI_ARGV, held) for _ in range(per_pass))

    results, failed = run_repeated(checks, passes, limit, random.Random(f"order:{seed}"), after_pass)
    setup_s = statistics.median(starts)
    rss = peak_rss_mb()
    # one cold `suite --max-n 4`, the project's headline number; reported in
    # the detail line only, since a 3 s run cannot be sampled densely enough
    # to be steady on a shared machine
    suite_s = cold_cli_seconds(workloads.SUITE_ARGV, held) if workload == "battery" else None
    stats = summarize(results)
    values = {
        **{k: stats[k] for k in ("checks_per_s", "check_p50_ms", "check_tail_ms", "decided_share")},
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    detail = {
        "workload": workload, "seed": seed, "passes": passes, "checks": len(checks),
        "suite_s": suite_s, "cold_runs_held": all(held),
        **{k: stats[k] for k in ("decided", "wrong", "error", "deadline", "error_share",
                                 "wrong_verdicts", "tail_percentile", "tail_samples")},
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    correct = stats["wrong"] == 0 and all(held)
    return finish(detail, results, correct, sum(r.runs for r in results), failed, metrics)


def run_traced(workload: str, seed: int, checks, limit: float) -> dict:
    """One untraced pass, then one traced pass, over the same checks (and,
    on battery, the suite); per-layer metrics come from the traced pass."""
    import tracing

    suite = workloads.suite_check()

    def one_pass(tracer=None):
        start = time.perf_counter()
        tracing.layer_probe()
        results = []
        if tracer is not None:
            tracer.end_check()
        if workload == "battery":
            if tracer is not None:
                tracer.check_id = len(checks)
            results.append(run_check(suite, workloads.SUITE_DEADLINE_S))
            if tracer is not None:
                tracer.end_check()
        results += run_pass(checks, limit, tracer)
        return results, time.perf_counter() - start

    plain, _ = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, wall = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(wall)
    cps_plain = summarize(plain)["checks_per_s"]
    metrics["trace.checks_per_s"] = summarize(traced)["checks_per_s"]
    metrics["trace.overhead"] = cps_plain / metrics["trace.checks_per_s"]
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    gap = abs(self_sum + metrics["trace.outside_s"] - wall)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.tsv.gz"
    tracer.write(spans_path)
    wrong = sum(r.status == "wrong" for r in plain + traced)
    suite_ok = all(r.status == "decided" for r in plain + traced if r.kind == "suite")
    detail = {
        "workload": workload, "seed": seed, "spans": len(tracer.kind),
        "spans_file": str(spans_path.relative_to(ROOT)), "untraced_checks_per_s": cps_plain,
        "self_plus_outside_minus_wall_s": gap, "wrong_verdicts": wrong, "suite_ok": suite_ok,
    }
    correct = wrong == 0 and suite_ok and gap <= 1e-6 * wall
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    failed = sum(r.status != "decided" for r in traced)
    return finish(detail, traced, correct, len(traced), failed, {k: (metrics[k], units[k]) for k in units})


def finish(detail: dict, results: list[Result], correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """Print the detail line and return the result object."""
    kinds: dict[str, int] = {}
    for r in results:
        if r.status != "decided":
            kinds[f"{r.kind}: {r.status}"] = kinds.get(f"{r.kind}: {r.status}", 0) + 1
    detail["not_decided"] = kinds
    detail["wrong_examples"] = [f"{r.label} -> {r.why}" for r in results if r.status == "wrong"][:5]
    print(json.dumps({"detail": detail}))
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="run the scaling sweeps instead")
    args = parser.parse_args(argv)
    if not (SRC / "derivcover" / "__init__.py").is_file():
        print(f"derivcover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep:
        import sweep

        OUT.mkdir(exist_ok=True)
        table = sweep.run_all()
        (OUT / "sweep.json").write_text(json.dumps(table, indent=2) + "\n")
        print(json.dumps(table))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
