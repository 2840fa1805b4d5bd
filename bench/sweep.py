"""Scaling sweeps: how far each certification scales before it hits a wall.

Each point runs in this process under SWEEP_DEADLINE_S and an address-space
cap; a sweep stops at its first wall (deadline, error verdict, exception or
memory exhaustion) and records that point as an entry.  Sweeps are not part
of the per-workload runs.
"""

from __future__ import annotations

import resource
import time

from harness import DeadlineExceeded, deadline

SWEEP_DEADLINE_S = 20.0
MEMORY_CAP_BYTES = 2 << 30


def _sweeps():
    """(sweep name, [(n, call returning (verdict, expected verdict))])."""
    from derivcover import cli, dclass
    from derivcover.jets import Operator

    def cli_point(argv, expected):
        return lambda: (cli.run(argv).verdict, expected)

    def word(letters):
        return ".".join(f"D{i}" for i in letters)

    def polarization(n):
        return lambda: ("holds" if dclass.polarization_defect(Operator.word((0,) * n), n).is_zero() else "refuted",
                        "holds")

    def odd_extraction(n):
        return lambda: ("holds" if dclass.odd_extraction_check(Operator.word((0,) * n), n) else "refuted", "holds")

    return [
        ("separation", [(n, cli_point(["dn", "separation", "--n", str(n), "--max-n", str(n + 1)], "refuted"))
                        for n in range(2, 13)]),
        ("distinct-word", [(k, cli_point(["dn", "check", "--n", str(k), "--max-n", str(k),
                                          "--op", word(range(1, k + 1))], "holds"))
                           for k in range(2, 9)]),
        ("polarization", [(n, polarization(n)) for n in range(2, 7)]),
        ("odd-extraction", [(n, odd_extraction(n)) for n in range(2, 6)]),
    ]


def run_all() -> list[dict]:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    table = []
    for name, points in _sweeps():
        for n, point in points:
            entry = {"sweep": name, "n": n}
            start = time.perf_counter()
            try:
                with deadline(SWEEP_DEADLINE_S):
                    verdict, expected = point()
                entry.update(verdict=verdict, as_expected=verdict == expected)
            except DeadlineExceeded:
                entry.update(verdict="deadline")
            except MemoryError:
                entry.update(verdict="memory")
            except Exception as exc:  # a wall, recorded rather than raised
                entry.update(verdict="exception", detail=f"{type(exc).__name__}: {exc}")
            entry["seconds"] = time.perf_counter() - start
            entry["wall"] = entry["verdict"] in ("deadline", "memory", "exception", "error")
            table.append(entry)
            if entry["wall"]:
                break
    return table
