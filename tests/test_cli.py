"""CLI surface: verdicts, exit codes, report formats, determinism."""

import argparse
import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from derivcover import cli, errors
from derivcover.cli import COMMANDS, Report, _build_parser, _read, run
from derivcover.dclass import is_in_dn
from derivcover.jets import Operator
from derivcover.parse import MAX_DIGITS, parse_operator

from helpers import FOREIGN_CHARS, function_list_text, operator_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import known  # noqa: E402


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


def test_error_report_keeps_its_params():
    report = run(["dn", "check", "--n", "9", "--op", "D1"])
    assert report.verdict == "error"
    assert report.params == {"n": "9", "op": "D1", "max_n": "6"}
    assert "params: n=9 op=D1 max_n=6" in report.to_text()


@pytest.mark.parametrize("flag", ["--max-degree", "--seed"], ids=["max-degree", "seed"])
def test_removed_options_are_usage_errors(flag):
    report = run(["dn", "check", "--n", "1", "--op", "D1", flag, "1"])
    assert (report.verdict, report.exit_code) == ("error", 2)
    assert report.defect == f"UsageError: unknown flag '{flag}'"
    assert report.params == {"n": "1", "op": "D1", "max_n": "6"}


def test_suite_report_names_its_seed():
    a = run(["suite", "--max-n", "2", "--seed", "0"])
    b = run(["suite", "--max-n", "2", "--seed", "1"])
    assert a.params["seed"] == "0" and b.params["seed"] == "1"
    assert a.params != b.params


def test_suite_decides_each_membership_once(monkeypatch):
    from derivcover import dclass, suite

    decided = []

    def counting(op, n):
        decided.append((op.render(), n))
        return is_in_dn(op, n)

    monkeypatch.setattr(suite, "is_in_dn", counting)
    monkeypatch.setattr(dclass, "is_in_dn", counting)
    assert all(passed for _, passed, _, _ in suite.battery(4, 0))
    assert decided and len(decided) == len(set(decided))


@pytest.mark.parametrize("max_n", [2, 4])
def test_suite_probes_only_the_defects_no_witness_settles(monkeypatch, max_n):
    # check 1's polarization defect, check 4's 44 per level and check 5's
    # subsum per level; a membership verdict is settled by its zero defect
    # or its witness
    from derivcover import suite

    probed = []
    real = suite.probe_zero

    def counting(f, *, seed):
        probed.append(f)
        return real(f, seed=seed)

    monkeypatch.setattr(suite, "probe_zero", counting)
    assert all(passed for _, passed, _, _ in suite.battery(max_n, 0))
    assert len(probed) == 1 + 45 * max_n


def test_a_false_polarization_verdict_fails_the_probe(monkeypatch):
    # D1.D1's polarization defect at level 1 is nonzero; given with every
    # coefficient 0 it still reads as nonzero, and only check 9's probe,
    # which evaluates it, can tell
    from derivcover import suite
    from derivcover.poly import MPoly, RatFunc

    real = suite.polarization_defect

    def zeroed(op, n):
        defect = real(op, n)
        if (op, n) != (Operator.word((0, 0)), 1):
            return defect
        assert not defect.is_zero()
        return RatFunc(MPoly(defect.reg, dict.fromkeys(defect.num.terms, 0)), defect.den)

    monkeypatch.setattr(suite, "polarization_defect", zeroed)
    results = {name: (passed, detail) for name, passed, detail, _ in suite.battery(1, 0)}
    passed, detail = results.pop("cross-check-oracle")
    assert not passed
    assert detail.startswith("probe disagreed with symbolic verdict #"), detail
    assert all(passed for passed, _ in results.values()), results


@pytest.mark.parametrize(
    "op, message",
    [
        # after '/' the parser reads a denominator, and nothing else
        ("2/D1", "expected 'int', found 'D1' (at position 2)"),
        ("2/", "expected 'int', found 'end of input' (at position 2)"),
        ("3/-2*D1", "expected 'int', found '-' (at position 2)"),
        ("1/0*D1", "rational with zero denominator (at position 2)"),
    ],
)
def test_a_fraction_coefficient_needs_a_denominator(op, message):
    with pytest.raises(errors.ParseError) as err:
        parse_operator(op)
    assert str(err.value) == message
    assert run(["dn", "check", "--n", "1", "--op", op]).to_text() == (
        f"command: dn check\nparams: n=1 op={op} max_n=6\nverdict: error\n"
        f"defect: ParseError: {message}\nwitness: -\ntiming_ms: 0"
    )


def test_a_fault_in_blocks_fails_the_parity_check(monkeypatch):
    # is_in_dn and polarization_defect read the same _blocks, so only the
    # Leibniz side of the parity extraction can see a fault there
    from derivcover import dclass, suite

    real = dclass._blocks
    monkeypatch.setattr(dclass, "_blocks", lambda op, n: real(op, n - 1))
    results = {name: (passed, detail) for name, passed, detail, _ in suite.battery(1, 0)}
    passed, detail = results["polarization-equivalence"]
    assert not passed
    assert detail.startswith("parity extraction failed for "), detail


def test_every_suite_check_runs_every_level(monkeypatch):
    """Checks 2-7 each reach every level 1..max_n: check 2 with a word of
    distinct letters as long as the level, check 3 with the iterate one
    longer (the test set's words are 3 letters at most), and checks 4-7
    through their own entry points."""
    from derivcover import cover, dclass, suite

    levels = {}

    def count(module, name, kind=None):
        real = getattr(module, name)

        def counting(*args):
            key = kind(args[0]) if kind else name
            levels.setdefault(key, set()).add(args[-1])
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    def word_kind(op):
        word = next(iter(op.terms)) if len(op.terms) == 1 else ()
        if len(word) > 1 and set(word) == {0}:
            return f"iterate of length {len(word)}"
        distinct = len(set(word)) == len(word)
        return f"distinct letters, length {len(word)}" if distinct else "other"

    count(suite, "is_in_dn", word_kind)
    for name in ("polarization_defect", "inductive_subsum"):
        count(suite, name)
    count(dclass, "odd_extraction_check")
    for name in ("rn_preservation", "rn_reduct_check"):
        count(cover, name)
    assert all(passed for _, passed, _, _ in suite.battery(5, 0))
    for n in range(1, 6):
        assert n in levels[f"distinct letters, length {n}"], n
        assert n in levels[f"iterate of length {n + 1}"], n
    for name in ("polarization_defect", "odd_extraction_check", "inductive_subsum",
                 "rn_preservation", "rn_reduct_check"):
        assert set(range(1, 6)) <= levels[name], name


def test_unexpected_failure_is_an_error_report(monkeypatch):
    from derivcover import cover

    def fail():
        raise RuntimeError("boom")

    monkeypatch.setattr(cover, "psi_defines_otimes", fail)
    report = run(["cover", "psi-check"])
    assert report.verdict == "error"
    assert report.exit_code == 2
    assert report.defect == "RuntimeError: boom"

    def interrupt():
        raise KeyboardInterrupt

    # an interrupt is not a failure of the check: it passes through
    monkeypatch.setattr(cover, "psi_defines_otimes", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(["cover", "psi-check"])


def test_deeply_nested_function_is_an_error():
    funcs = "(" * 5000 + "t" + ")" * 5000
    report = run(["coset", "check", "--funcs", funcs])
    assert report.verdict == "error"
    assert report.exit_code == 2
    assert report.defect.startswith("ParseError")


def test_usage_error_exits_two():
    report = run(["dn", "nonsense"])
    assert report.exit_code == 2
    assert report.to_text() == (
        "command: -\nparams: -\nverdict: error\ndefect: UsageError: expected a command word "
        "(check, separation, polarize, subsum), found 'nonsense'\nwitness: -\ntiming_ms: 0"
    )


def test_usage_error_keeps_the_format_read_before_it():
    report = run(["dn", "check", "--format", "json", "--n", "x", "--op", "D1"])
    doc = json.loads(report.to_json())
    assert (report.format, doc["command"], doc["params"], doc["verdict"]) == (
        "json", "dn check", {"max_n": "6"}, "error"
    )
    assert doc["defect"] == "UsageError: --n wants an integer, not 'x'"
    assert run(["dn", "check", "--n", "x", "--format", "json"]).format == "text"


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
    a = run(["dn", "check", "--n", "3", "--op", "D1.D2"]).to_json()
    b = run(["dn", "check", "--n", "3", "--op", "D1.D2"]).to_json()
    assert a == b


def test_console_entry_point():
    for argv, code, verdict in [
        (["dn", "check", "--n", "1", "--op", "D1"], 0, "holds"),
        (["dn", "nonsense"], 2, "error"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "derivcover.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (code, "")
        assert f"verdict: {verdict}" in proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [(["cover", "psi-check"], 0), (["dn", "separation", "--n", "1"], 1)],
    ids=["holds", "refuted"],
)
def test_a_closed_stdout_keeps_the_report_exit_code(argv, code):
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "derivcover.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")



PINNED_REPORTS = [
    pytest.param(
        ["dn", "subsum", "--n", "2"],
        "command: dn subsum\nparams: n=2\nverdict: holds\ndefect: 0\n"
        "witness: -\ntiming_ms: 0",
        id="dn-subsum-n2",
    ),
    pytest.param(
        ["cover", "reduct", "--n", "2"],
        "command: cover reduct\nparams: n=2\nverdict: holds\ndefect: -\n"
        "witness: -\ntiming_ms: 0",
        id="cover-reduct-n2",
    ),
    pytest.param(
        ["cover", "psi-check"],
        "command: cover psi-check\nparams: -\nverdict: holds\ndefect: -\n"
        "witness: -\ntiming_ms: 0",
        id="cover-psi-check",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "t,t^2,t^3"],
        "command: coset check\nparams: funcs=t,t^2,t^3\nverdict: holds\n"
        "defect: -\nwitness: -\ntiming_ms: 0",
        id="coset-check-powers",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "t,2*t+3"],
        "command: coset check\nparams: funcs=t,2*t+3\nverdict: refuted\n"
        "defect: coefficients: (1, -1/2); constant: -3/2\nwitness: -\ntiming_ms: 0",
        id="coset-check-affine",
    ),
    pytest.param(
        # a parsed function may not pass total degree 64
        ["coset", "check", "--funcs", "t^65"],
        "command: coset check\nparams: funcs=t^65\nverdict: error\n"
        "defect: DegreeGuardError: power would reach total degree 65 > limit 64\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-degree-limit",
    ),
    pytest.param(
        # nor hold a coefficient past 4096 bits; the power is not computed
        ["coset", "check", "--funcs", "2^300000,t"],
        "command: coset check\nparams: funcs=2^300000,t\nverdict: error\n"
        "defect: DegreeGuardError: power would reach 600000 coefficient bits > limit 4096\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-coefficient-limit",
    ),
    pytest.param(
        # each entry has degree 40; only the solver's common denominator
        # reaches 80, and the limit bounds parsed text alone
        ["coset", "check", "--funcs", "1/(t^40+1),1/(t^40+2)"],
        "command: coset check\nparams: funcs=1/(t^40+1),1/(t^40+2)\n"
        "verdict: holds\ndefect: -\nwitness: -\ntiming_ms: 0",
        id="coset-check-solver-degree",
    ),
    pytest.param(
        # --max-n is the only bound on the level
        ["dn", "check", "--n", "70", "--max-n", "100", "--op", "D1"],
        "command: dn check\nparams: n=70 op=D1\nverdict: holds\ndefect: 0\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-raised-level-cap",
    ),
    pytest.param(
        ["suite", "--max-n", "2"],
        "ok derivation-characterization (level 1, 1 operator)\n"
        "ok word-inclusion (levels 1-3, 16 words)\n"
        "ok strict-separation (levels 1-3, 2 operators)\n"
        "ok polarization-equivalence (levels 1-2, 44 operators)\n"
        "ok inductive-subsum (levels 1-2, 2 sums)\n"
        "ok cover-equivalence (levels 1-2, 44 operators)\n"
        "ok definability (levels 1-2, 2 operators)\n"
        "ok coset-freeness (208 tuples)\n"
        "ok cross-check-oracle (91 defects)\n"
        "command: suite\nparams: max_n=2 seed=0 checks=9 failed=0\nverdict: holds\n"
        "defect: -\nwitness: -\ntiming_ms: 0",
        id="suite-max-n2",
    ),
    pytest.param(
        # separation also certifies level n+1, so that is the level capped
        ["dn", "separation", "--n", "9"],
        "command: dn separation\nparams: n=9 max_n=6\n"
        "verdict: error\n"
        "defect: ValueError: level 10 exceeds the configured cap 6 (--max-n)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-separation-level-cap",
    ),
    pytest.param(
        # the operator is parsed before its level is checked against the cap
        ["dn", "check", "--n", "9", "--op", "D1 +"],
        "command: dn check\nparams: n=9 op=D1 + max_n=6\n"
        "verdict: error\n"
        "defect: ParseError: expected 'letter', found 'end of input' (at position 4)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-parse-error",
    ),
    pytest.param(
        # seed 1 draws a coset tuple whose smallest integer relation has an
        # entry outside [-5, 5]; the suite's oracle must still find it
        ["suite", "--max-n", "2", "--seed", "1"],
        "ok derivation-characterization (level 1, 1 operator)\n"
        "ok word-inclusion (levels 1-3, 16 words)\n"
        "ok strict-separation (levels 1-3, 2 operators)\n"
        "ok polarization-equivalence (levels 1-2, 44 operators)\n"
        "ok inductive-subsum (levels 1-2, 2 sums)\n"
        "ok cover-equivalence (levels 1-2, 44 operators)\n"
        "ok definability (levels 1-2, 2 operators)\n"
        "ok coset-freeness (208 tuples)\n"
        "ok cross-check-oracle (91 defects)\n"
        "command: suite\nparams: max_n=2 seed=1 checks=9 failed=0\nverdict: holds\n"
        "defect: -\nwitness: -\ntiming_ms: 0",
        id="suite-max-n2-seed1",
    ),
    pytest.param(
        # a battery below level 1 would certify nothing
        ["suite", "--max-n", "0"],
        "command: suite\nparams: seed=0 max_n=0\nverdict: error\n"
        "defect: ValueError: need max_n >= 1\nwitness: -\ntiming_ms: 0",
        id="suite-max-n0",
    ),
    pytest.param(
        # check 2's words over distinct letters grow like max_n!
        ["suite", "--max-n", "7"],
        "command: suite\nparams: seed=0 max_n=7\nverdict: error\n"
        "defect: ValueError: need max_n <= 6\nwitness: -\ntiming_ms: 0",
        id="suite-max-n7",
    ),
    pytest.param(
        ["suite", "--max-n", "-3"],
        "command: suite\nparams: seed=0 max_n=-3\nverdict: error\n"
        "defect: ValueError: need max_n >= 1\nwitness: -\ntiming_ms: 0",
        id="suite-max-n-negative",
    ),
    # a number token is refused before CPython's 4,300-digit conversion limit
    pytest.param(
        ["coset", "check", "--funcs", "9" * 5000 + ",t"],
        f"command: coset check\nparams: funcs={'9' * 5000},t\nverdict: error\n"
        "defect: ParseError: number of 5000 digits > limit 2000 (at position 0)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-long-literal",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "t^" + "1" * 5000],
        f"command: coset check\nparams: funcs=t^{'1' * 5000}\nverdict: error\n"
        "defect: ParseError: number of 5000 digits > limit 2000 (at position 2)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-long-exponent",
    ),
    pytest.param(
        ["dn", "check", "--n", "1", "--op", "D" + "1" * 5000],
        f"command: dn check\nparams: n=1 op=D{'1' * 5000} max_n=6\nverdict: error\n"
        "defect: ParseError: number of 5000 digits > limit 2000 (at position 0)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-long-letter",
    ),
    pytest.param(
        ["dn", "check", "--n", "1", "--op", "1" * 5000 + "*D1"],
        f"command: dn check\nparams: n=1 op={'1' * 5000}*D1 max_n=6\nverdict: error\n"
        "defect: ParseError: number of 5000 digits > limit 2000 (at position 0)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-long-coefficient",
    ),
    # digits are ASCII 0-9 and names [a-z][0-9]*; any other character is
    # refused where it stands
    pytest.param(
        ["coset", "check", "--funcs", "t^²"],
        "command: coset check\nparams: funcs=t^²\nverdict: error\n"
        "defect: ParseError: unexpected character '²' (at position 2)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-superscript-exponent",
    ),
    pytest.param(
        ["dn", "check", "--n", "1", "--op", "D١"],
        "command: dn check\nparams: n=1 op=D١ max_n=6\nverdict: error\n"
        "defect: ParseError: expected digits after 'D' (at position 0)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-arabic-indic-letter",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "é"],
        "command: coset check\nparams: funcs=é\nverdict: error\n"
        "defect: ParseError: unexpected character 'é' (at position 0)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-accented-name",
    ),
    # only ASCII whitespace separates tokens
    pytest.param(
        ["coset", "check", "--funcs", "t\u3000+\u00a0u"],
        "command: coset check\nparams: funcs=t\u3000+\u00a0u\nverdict: error\n"
        "defect: ParseError: unexpected character '\\u3000' (at position 1)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-ideographic-space",
    ),
    pytest.param(
        ["dn", "check", "--n", "1", "--op", "D1\u2003+\u2003D2"],
        "command: dn check\nparams: n=1 op=D1\u2003+\u2003D2 max_n=6\nverdict: error\n"
        "defect: ParseError: unexpected character '\\u2003' (at position 2)\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-em-space",
    ),
    # a function list is one token stream: the whole text is read before any
    # entry is evaluated, and positions count from the start of the text
    pytest.param(
        ["coset", "check", "--funcs", "(0)/(0),²0"],
        "command: coset check\nparams: funcs=(0)/(0),²0\nverdict: error\n"
        "defect: ParseError: unexpected character '²' (at position 8)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-late-foreign-char",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "t,u+"],
        "command: coset check\nparams: funcs=t,u+\nverdict: error\n"
        "defect: ParseError: expected a value, found 'end of input' (at position 4)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-position-in-second-entry",
    ),
    pytest.param(
        ["coset", "check", "--funcs", "t,,u"],
        "command: coset check\nparams: funcs=t,,u\nverdict: error\n"
        "defect: ParseError: expected a value, found ',' (at position 2)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-empty-entry",
    ),
    pytest.param(
        ["dn", "check", "--n", "1", "--op=-D1"],
        "command: dn check\nparams: n=1 op=-D1\nverdict: holds\ndefect: 0\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-leading-minus",
    ),
    pytest.param(
        # the value after '=' is the text given, '--' too
        ["coset", "check", "--funcs=--"],
        "command: coset check\nparams: funcs=--\nverdict: error\n"
        "defect: ParseError: expected a value, found 'end of input' (at position 2)\n"
        "witness: -\ntiming_ms: 0",
        id="coset-check-double-dash",
    ),
]


@pytest.mark.parametrize("argv, text", PINNED_REPORTS)
def test_full_text_reports(argv, text):
    assert run(argv).to_text() == text


@pytest.mark.parametrize(
    "command",
    [
        "dn check",
        "dn separation",
        "dn polarize",
        "dn subsum",
        "cover preserve",
        "cover psi-check",
        "cover reduct",
        "cover ring-check",
        "coset check",
        "suite",
    ],
)
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as err:
        run(command.split() + ["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: derivcover {command} ")


# The options each command accepts; an option a command never reads is a
# dead knob.  Every command also takes --help and --format.
COMMAND_OPTIONS = {
    "dn check": {"--n", "--op", "--max-n"},
    "dn separation": {"--n", "--max-n"},
    "dn polarize": {"--n", "--op", "--max-n"},
    "dn subsum": {"--n", "--max-n"},
    "cover preserve": {"--n", "--op", "--max-n"},
    "cover psi-check": set(),
    "cover reduct": {"--n", "--max-n"},
    "cover ring-check": {"--op"},
    "coset check": {"--funcs"},
    "suite": {"--seed", "--max-n"},
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_command_option_sets(command, capsys):
    with pytest.raises(SystemExit):
        run(command.split() + ["--help"])
    options = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    assert options == {"--format"} | COMMAND_OPTIONS[command]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "command", [c for c, options in COMMAND_OPTIONS.items() if "--n" in options]
)
def test_level_floor(command, n):
    argv = command.split() + ["--n", str(n)]
    if "--op" in COMMAND_OPTIONS[command]:
        argv.append("--op=D1")
    report = run(argv)
    assert (report.verdict, report.exit_code) == ("error", 2)
    assert report.defect == f"ValueError: level must be >= 1, got {n}"


KIT_ERRORS = {
    c.__name__ for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.KitError)
}
EXIT_CODES = {"holds": 0, "refuted": 1, "error": 2}


def assert_cli_contract(argv, text):
    """A verdict with its exit code; an error only from the kit's own error
    types; a parse error with a position inside the text, which for an
    unexpected character is where that character stands; and a parse error
    for text that holds a foreign character."""
    report = run(argv)
    assert report.exit_code == EXIT_CODES[report.verdict]
    if report.verdict == "error":
        name, _, message = report.defect.partition(": ")
        assert name in KIT_ERRORS, report.defect
        if name == "ParseError":
            what, position = re.fullmatch(r"(.*) \(at position (\d+)\)", message).groups()
            position = int(position)
            assert 0 <= position <= len(text), report.defect
            char = re.fullmatch(r"unexpected character (.*)", what)
            if char:
                assert text[position] == ast.literal_eval(char[1]), report.defect
    if any(c in text for c in FOREIGN_CHARS):
        assert report.defect.startswith("ParseError: "), report.defect


@settings(derandomize=True, max_examples=150, deadline=None)
@given(function_list_text())
def test_coset_check_contract(funcs):
    assert_cli_contract(["coset", "check", f"--funcs={funcs}"], funcs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(operator_text(), st.integers(1, 3))
def test_dn_check_contract(op, n):
    assert_cli_contract(["dn", "check", "--n", str(n), f"--op={op}"], op)


@pytest.mark.parametrize(
    "command",
    ["dn polarize", "cover preserve", "cover ring-check",
     "dn separation", "dn subsum", "cover reduct"],
)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(operator_text(), st.integers(1, 4))
def test_level_and_operator_commands_contract(command, op, n):
    options = COMMAND_OPTIONS[command]
    argv = command.split()
    if "--n" in options:
        argv += ["--n", str(n)]
    if "--op" in options:
        argv.append(f"--op={op}")
    assert_cli_contract(argv, op if "--op" in options else "")


# ---------------------------------------------------------------------------
# Reading argv: the option table is the only parser, the tree prints help


def tree_leaves(parser, words=()):
    """The full tree's command parsers, keyed by the words that reach them."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: parser}
    return {
        key: leaf
        for name, child in subs[0].choices.items()
        for key, leaf in tree_leaves(child, words + (name,)).items()
    }


def test_each_command_has_its_own_parser():
    leaves = tree_leaves(_build_parser())
    assert sorted(leaves) == sorted(tuple(name.split()) for name in COMMANDS)
    for words, leaf in leaves.items():
        assert leaf.get_default("command") == " ".join(words)
    # the reader looks up two words, then one: no lone command may shadow a group
    assert all(len(words) <= 2 for words in leaves)
    lone = {words[0] for words in leaves if len(words) == 1}
    assert not lone & {words[0] for words in leaves if len(words) == 2}
    assert run(("cover", "psi-check")).verdict == "holds"


# Values that every command reads without argparse, and that keep the suite short
READ_VALUES = {"--n": "1", "--op": "D1.D2", "--funcs": "t,t^2", "--max-n": "2", "--seed": "1"}


def test_a_call_that_reads_never_builds_the_tree(monkeypatch):
    def no_tree():
        raise AssertionError("the argparse tree was built")

    monkeypatch.setattr(cli, "_build_parser", no_tree)
    for command, options in COMMAND_OPTIONS.items():
        pairs = [(o, READ_VALUES[o]) for o in sorted(options)] + [("--format", "json")]
        apart = command.split() + [w for pair in pairs for w in pair]
        joined = command.split() + [f"{o}={v}" for o, v in pairs]
        for argv in (apart, joined):
            report = run(argv)
            assert (report.command, report.format) == (command, "json"), argv
            assert report.verdict in ("holds", "refuted"), argv


def cold_imports(modules: list[str], argv=("cover", "psi-check")) -> str:
    """Those of modules that a fresh interpreter imports to run argv and
    render its text report, as printed there."""
    code = (
        "import sys; before = set(sys.modules); from derivcover import cli; "
        f"cli.run({list(argv)!r}).to_text(); "
        f"print(sorted(set(sys.modules) - before & {set(modules)!r}))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_cold_call_never_imports_argparse():
    assert cold_imports(["argparse"]) == "[]\n"
    assert cold_imports(["argparse"], ["dn", "check", "--n", "x", "--op", "D1"]) == "[]\n"


def test_a_cold_text_report_imports_neither_dataclasses_nor_json():
    # json is imported by Report.to_json alone
    assert cold_imports(["dataclasses", "json"]) == "[]\n"


# Each spelling of an option and its value, and the namespace it reads as:
# the '=' form, also with a leading '-' or the value '--'; a separate value
# that starts with '-'; an empty value; an option given twice.
SPELLINGS = [
    (["dn", "check", "--n=2", "--op", "D1.D1", "--format=json"],
     {"n": 2, "op": "D1.D1", "format": "json"}),
    (["dn", "check", "--n", "1", "--n", "2", "--op", "D1"], {"n": 2, "op": "D1"}),
    (["dn", "check", "--n", "1", "--op=-D1.D2"], {"n": 1, "op": "-D1.D2"}),
    (["dn", "check", "--n", "1", "--op=--"], {"n": 1, "op": "--"}),
    (["dn", "check", "--op", "-2*D1 + D2", "--n", "1"], {"n": 1, "op": "-2*D1 + D2"}),
    (["dn", "check", "--n", "1", "--op", "-D1"], {"n": 1, "op": "-D1"}),
    (["dn", "check", "--n", "1", "--op", ""], {"n": 1, "op": ""}),
    (["coset", "check", "--funcs", "-t, t^2"], {"funcs": "-t, t^2"}),
    (["coset", "check", "--funcs", "-t"], {"funcs": "-t"}),
    (["suite", "--seed=-3", "--max-n", "2"], {"seed": -3, "max_n": 2}),
    (["suite", "--seed", "-007", "--max-n=02"], {"seed": -7, "max_n": 2}),
]


@pytest.mark.parametrize("argv, read", SPELLINGS, ids=[" ".join(a) for a, _ in SPELLINGS])
def test_reader_namespaces(argv, read):
    args = vars(_read(argv))
    command = args.pop("command").split()
    assert argv[: len(command)] == command
    options = ("format", *COMMANDS[" ".join(command)].options)
    assert args == {o: cli.OPTIONS[o].get("default") for o in options} | read


def test_int_flags_read_as_the_grammars_read_numbers():
    """An int is '-'? and 1..MAX_DIGITS ASCII digits, as a number token of
    the grammars; no other digit, separator, sign or space."""
    refused = [
        (["dn", "check", "--n", "\u0663", "--op", "D1"], "--n", "\u0663"),
        (["dn", "check", "--n", "1_0", "--max-n", "1_00", "--op", "D1"], "--n", "1_0"),
        (["suite", "--max-n", " 2 ", "--seed", "+1"], "--max-n", " 2 "),
        (["suite", "--max-n", "2", "--seed", "+1"], "--seed", "+1"),
        (["suite", "--seed", "-"], "--seed", "-"),
        (["suite", "--seed", "1" * (MAX_DIGITS + 1)], "--seed", "1" * (MAX_DIGITS + 1)),
    ]
    for argv, flag, value in refused:
        report = run(argv)
        assert (report.exit_code, report.defect) == (
            2, f"UsageError: {flag} wants an integer, not {value!r}"
        ), argv
    assert _read(["suite", "--seed", "9" * MAX_DIGITS]).seed == int("9" * MAX_DIGITS)


# An argv is a head that names a command, a group or nothing, then flags
# with values, apart or after '=', and other words.  Values hold digits only
# from VALUES, and the suite head brings its own --max-n, so that no drawn
# level or battery is large.
HEADS = [
    ["suite", "--max-n", "1"] if name == "suite" else name.split() for name in COMMANDS
] + [["dn"], ["bogus"], ["dn", "bogus"], []]
FLAGS = ["--n", "--op", "--funcs", "--max-n", "--seed", "--format", "--fo", "--max-degree",
         "-x", "--", "-h", "--help"]
VALUES = ["1", "2", "0", "-1", "x", "", "D1", "-D1", "D1.D2", "-h D1", "--", "-t", "json", "xml"]
PAIRS = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES))
WORDS = st.sampled_from(FLAGS + VALUES + ["dn check", "check", "extra"]) | st.text(
    st.characters(blacklist_categories=("Nd",)), max_size=6
)
CHUNKS = st.one_of(PAIRS.map(list), PAIRS.map(lambda p: ["=".join(p)]), WORDS.map(lambda w: [w]))
ANY_ARGV = st.builds(
    lambda head, chunks: head + sum(chunks, []),
    st.sampled_from(HEADS), st.lists(CHUNKS, max_size=4),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ANY_ARGV)
@example(["dn", "check", "--n", "x", "--op", "D1"])
@example(["dn", "check", "--n", "1", "--op", "-D1"])
@example(["coset", "check", "--funcs", "-t"])
@example(["dn", "check", "--n", "1", "--op", "-h"])
@example(["dn", "-h"])
@example(["cover", "ring-check", "--op", "-D1", "-h"])  # help reads only the command words
def test_every_argv_gets_a_report(argv):
    """A report whose exit code is its verdict's, in text and JSON, and
    nothing printed; or help, exit 0, from the tree alone."""
    trees = cli._build_parser.cache_info
    built = trees().hits + trees().misses
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            report = run(argv)
        except SystemExit as exc:
            assert exc.code == 0
            assert {"-h", "--help"} & set(argv)
            assert out.getvalue().startswith("usage: derivcover")
            return
    assert (out.getvalue(), err.getvalue()) == ("", "")
    assert trees().hits + trees().misses == built
    assert report.exit_code == EXIT_CODES[report.verdict]
    assert json.loads(report.to_json())["verdict"] == report.verdict
    assert f"verdict: {report.verdict}" in report.to_text()


def test_command_words_run_together_are_no_command():
    report = run(["dn check", "--n", "1", "--op", "D1"])
    assert (report.exit_code, report.command, report.params, report.defect) == (
        2, "", {}, "UsageError: expected a command word (dn, cover, coset, suite), found 'dn check'"
    )


def test_leftover_words_are_a_top_level_error():
    report = run(["dn", "check", "--n", "1", "--op", "D1", "extra"])
    assert report.to_text() == (
        "command: dn check\nparams: n=1 op=D1 max_n=6\nverdict: error\n"
        "defect: UsageError: unexpected word 'extra'\nwitness: -\ntiming_ms: 0"
    )


# ---------------------------------------------------------------------------
# The paper's equivalences, through the CLI


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    operator_text().filter(lambda op: not any(c in op for c in FOREIGN_CHARS)),
    st.integers(1, 3),
)
def test_equivalent_certifications_agree(op, n):
    """Membership in the order-n class, the polarized identity and
    preservation of the level-n relation are one property; the Leibniz test
    on the cover is the case n = 1.  The benchmark's rule decides some
    operators without derivcover, and agrees where it does."""
    verdict = run(["dn", "check", "--n", str(n), f"--op={op}"]).verdict
    for command in ("dn polarize", "cover preserve"):
        assert run([*command.split(), "--n", str(n), f"--op={op}"]).verdict == verdict, command
    first = run(["dn", "check", "--n", "1", f"--op={op}"]).verdict
    assert run(["cover", "ring-check", f"--op={op}"]).verdict == first
    if verdict != "error":
        member = known.dn_member(known.parse_operator(op), n)
        if member is not None:
            assert verdict == ("holds" if member else "refuted")
