"""The benchmark's own oracle, run once over each of its workloads, and its
traced probe of every layer.

bench/known.py judges every outcome without importing derivcover: verdicts
by the paper's rules, and each witness by re-evaluating the rendered defect.
The harness self-tests pin the function names the benchmark traces.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["battery", "rational", "wide-words"])
def test_every_check_passes_the_oracle(workload):
    for check in workloads.build(workload, 1):
        outcome = check.run()
        assert outcome.verdict != "error", (check.label, outcome.defect)
        assert check.verify(outcome) is None, check.label


def test_traced_layer_probe():
    # the traced run calls the public API with the signatures it names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracing.layer_probe()
    finally:
        tracer.uninstall()
    names = {tracer.names[k] for k in tracer.kind}
    assert {name for name, _, _ in tracing.SPANS} <= names


def test_bench_selftest():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
