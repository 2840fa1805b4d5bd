"""CLI surface: verdicts, exit codes, report formats, determinism."""

import json
import subprocess
import sys

import pytest

from derivcover.cli import Report, run


def test_exit_code_holds():
    report = run(["dn", "check", "--n", "2", "--op", "D1.D1"])
    assert report.verdict == "holds"
    assert report.exit_code == 0
    assert report.defect == "0"


def test_exit_code_refuted_with_witness():
    report = run(["dn", "separation", "--n", "1"])
    assert report.verdict == "refuted"
    assert report.exit_code == 1
    assert report.defect == "2*D1(x1)^2"
    assert report.witness["value"] == "2"
    names = [a["var"] for a in report.witness["assignments"]]
    assert names == ["x1", "D1(x1)", "D1.D1(x1)"]
    assert report.params["in_next_level"] == "true"


def test_exit_code_error():
    report = run(["dn", "check", "--n", "9", "--op", "D1"])
    assert report.verdict == "error"
    assert report.exit_code == 2
    report = run(["dn", "check", "--n", "1", "--op", "D1 +"])
    assert report.verdict == "error"
    assert report.exit_code == 2


def test_bad_degree_budget_is_an_error():
    report = run(["dn", "check", "--n", "1", "--op", "D1", "--max-degree", "0"])
    assert report.verdict == "error"
    assert report.exit_code == 2


def test_deeply_nested_function_is_an_error():
    funcs = "(" * 5000 + "t" + ")" * 5000
    report = run(["coset", "check", "--funcs", funcs])
    assert report.verdict == "error"
    assert report.exit_code == 2
    assert report.defect.startswith("ParseError")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        run(["dn", "nonsense"])
    assert err.value.code == 2


def test_polarize_and_subsum_commands():
    assert run(["dn", "polarize", "--n", "2", "--op", "D1.D1"]).verdict == "holds"
    assert run(["dn", "polarize", "--n", "1", "--op", "D1.D1"]).verdict == "refuted"
    assert run(["dn", "subsum", "--n", "3"]).verdict == "holds"


def test_cover_commands():
    assert run(["cover", "preserve", "--n", "2", "--op", "D1.D2"]).verdict == "holds"
    assert run(["cover", "preserve", "--n", "1", "--op", "D1.D1"]).verdict == "refuted"
    assert run(["cover", "psi-check"]).verdict == "holds"
    assert run(["cover", "reduct", "--n", "2"]).verdict == "holds"
    assert run(["cover", "ring-check", "--op", "D1"]).verdict == "holds"
    ring = run(["cover", "ring-check", "--op", "D1.D1"])
    assert ring.verdict == "refuted"
    assert ring.defect == "(0 | 2*D1(x1)*D1(x3))"


def test_defect_goldens():
    assert (
        run(["dn", "polarize", "--n", "1", "--op", "D2.D1"]).defect
        == "D1(x1)*D2(x2) + D1(x2)*D2(x1)"
    )
    assert (
        run(["cover", "ring-check", "--op", "D3.D1"]).defect
        == "(0 | D1(x1)*D3(x3) + D1(x3)*D3(x1))"
    )
    assert run(["cover", "preserve", "--n", "1", "--op", "D2.D3"]).defect == "2*D2(x1)*D3(x1)"


def test_coset_commands():
    assert run(["coset", "check", "--funcs", "t,t^2,t^3"]).verdict == "holds"
    rel = run(["coset", "check", "--funcs", "t,2*t+3"])
    assert rel.verdict == "refuted"
    assert "coefficients" in rel.defect


def test_json_schema_fields():
    report = run(["dn", "check", "--n", "1", "--op", "D1", "--format", "json"])
    doc = json.loads(report.to_json())
    assert list(doc) == [
        "schema",
        "command",
        "params",
        "verdict",
        "defect",
        "witness",
        "timing_ms",
    ]
    assert doc["schema"] == 1
    assert doc["verdict"] == "holds"
    assert doc["timing_ms"] == 0


def test_json_witness_shape():
    doc = json.loads(run(["dn", "separation", "--n", "1", "--format", "json"]).to_json())
    assert doc["witness"]["value"] == "2"
    assert doc["witness"]["assignments"][1] == {"var": "D1(x1)", "value": "1"}


def test_text_format_mirrors_fields():
    text = run(["dn", "separation", "--n", "1"]).to_text()
    for key in ("command:", "params:", "verdict:", "defect:", "witness:", "timing_ms:"):
        assert key in text


def test_single_command_determinism():
    a = run(["dn", "check", "--n", "3", "--op", "D1.D2", "--seed", "4"]).to_json()
    b = run(["dn", "check", "--n", "3", "--op", "D1.D2", "--seed", "4"]).to_json()
    assert a == b


def test_seed_changes_random_witness_but_stays_valid():
    a = run(["dn", "check", "--n", "2", "--op", "D1.D1.D1", "--seed", "1"])
    b = run(["dn", "check", "--n", "2", "--op", "D1.D1.D1", "--seed", "1"])
    assert a.to_json() == b.to_json()
    assert a.verdict == "refuted" and a.witness is not None


def test_max_degree_flag_guards():
    report = run(["dn", "check", "--n", "5", "--op", "D1", "--max-degree", "4"])
    assert report.verdict == "error"
    assert "degree" in report.defect.lower()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "derivcover.cli", "dn", "check", "--n", "1", "--op", "D1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: holds" in proc.stdout
