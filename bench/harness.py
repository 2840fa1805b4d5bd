"""Running checks: per-check deadline, captured failures, latency summary."""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

TAIL_BEYOND = 10
MIDDLE_SHARE = 0.1


class DeadlineExceeded(BaseException):
    """Raised inside a check when its deadline passes; derives from
    BaseException so no handler in the program under test swallows it."""


@contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    kind: str
    label: str
    elapsed: float
    status: str  # decided | wrong | error | deadline
    why: str = ""
    runs: int = 1


def run_check(check, limit: float) -> Result:
    """Run one check under the deadline, then judge it outside the timing."""
    start = time.perf_counter()
    try:
        with deadline(limit):
            out = check.run()
    except DeadlineExceeded:
        return Result(check.kind, check.label, time.perf_counter() - start, "deadline")
    except Exception as exc:  # a crash is recorded as an error, the run goes on
        return Result(check.kind, check.label, time.perf_counter() - start, "error",
                      f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if out.verdict == "error":
        return Result(check.kind, check.label, elapsed, "error", out.defect or "")
    try:
        why = check.verify(out)
    except Exception as exc:
        why = f"verification failed: {type(exc).__name__}: {exc}"
    return Result(check.kind, check.label, elapsed, "wrong" if why else "decided", why or "")


def run_pass(checks, limit: float, tracer=None) -> list[Result]:
    results = []
    for i, check in enumerate(checks):
        if tracer is not None:
            tracer.check_id = i
        results.append(run_check(check, limit))
        if tracer is not None:
            tracer.end_check()
    return results


WORSE = {"decided": 0, "deadline": 1, "error": 2, "wrong": 3}


def run_repeated(checks, passes: int, limit: float, rng, after_pass=None) -> tuple[list[Result], int]:
    """Run every check `passes` times, in a fresh seeded order each pass.

    Returns one Result per check, holding its best latency, its worst status
    and its number of runs, and the number of runs that were not decided.
    A check that reached the deadline is not run again: its outcome is known
    and another run would only wait out the deadline.  Machines shared with
    other work slow down for seconds at a time; a check's best of several
    passes spread over the run filters that out.  `after_pass(p)` is called
    after pass p.
    """
    best: list[Result | None] = [None] * len(checks)
    failed = 0
    for p in range(passes):
        order = [i for i in range(len(checks)) if best[i] is None or best[i].status != "deadline"]
        rng.shuffle(order)
        for i in order:
            r = run_check(checks[i], limit)
            failed += r.status != "decided"
            prev = best[i]
            if prev is not None:
                worst = r if WORSE[r.status] > WORSE[prev.status] else prev
                r = Result(r.kind, r.label, min(r.elapsed, prev.elapsed), worst.status, worst.why, prev.runs + 1)
            best[i] = r
        if after_pass is not None:
            after_pass(p)
    return best, failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it: the (N - 10)-th smallest of N."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def middle_mean(latencies: list[float]) -> float:
    """The median, taken as the mean of the middle MIDDLE_SHARE of the
    samples.  Where neighbouring checks differ by a step, one check crossing
    the middle moves this by a fraction of the step rather than all of it."""
    ordered = sorted(latencies)
    width = max(1, round(len(ordered) * MIDDLE_SHARE))
    lo = (len(ordered) - width) // 2
    return statistics.fmean(ordered[lo : lo + width])


def summarize(results: list[Result]) -> dict:
    """Statistics of one Result per check, each check counted once.

    The latency percentiles are taken over the checks' best latencies.  A
    tail taken over every run would be the best time of the single slowest
    check, which on a shared machine swings by a quarter from run to run;
    the 11th-slowest of many checks moves much less."""
    lat = sorted(r.elapsed for r in results)
    count = {s: sum(r.status == s for r in results) for s in ("decided", "wrong", "error", "deadline")}
    tail_s, pct = tail(lat)
    return {
        **count,
        "checks_per_s": count["decided"] / sum(r.elapsed for r in results),
        "check_p50_ms": middle_mean(lat) * 1000,
        "check_tail_ms": tail_s * 1000,
        "tail_percentile": pct,
        "tail_samples": len(lat),
        "decided_share": count["decided"] / len(results),
        "error_share": count["error"] / len(results),
        "wrong_verdicts": count["wrong"],
    }
