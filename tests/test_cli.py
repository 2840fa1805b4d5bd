"""CLI surface: verdicts, exit codes, report formats, determinism."""

import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from derivcover import errors
from derivcover.cli import Report, run
from derivcover.dclass import is_in_dn

from helpers import FOREIGN_CHARS, function_list_text, operator_text


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


@pytest.mark.parametrize(
    "argv",
    [
        ["dn", "check", "--n", "1", "--op", "D1", "--max-degree", "64"],
        ["dn", "check", "--n", "1", "--op", "D1", "--seed", "1"],
    ],
    ids=["max-degree", "seed"],
)
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


def test_suite_report_names_its_seed():
    a = run(["suite", "--max-n", "2", "--seed", "0"])
    b = run(["suite", "--max-n", "2", "--seed", "1"])
    assert a.params["seed"] == "0" and b.params["seed"] == "1"
    assert a.params != b.params


def test_suite_decides_each_membership_once(monkeypatch):
    from derivcover import suite

    decided = []

    def counting(op, n):
        decided.append((op.render(), n))
        return is_in_dn(op, n)

    monkeypatch.setattr(suite, "is_in_dn", counting)
    assert all(passed for _, passed, _ in suite.battery(4, 0))
    assert decided and len(decided) == len(set(decided))


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
    a = run(["dn", "check", "--n", "3", "--op", "D1.D2"]).to_json()
    b = run(["dn", "check", "--n", "3", "--op", "D1.D2"]).to_json()
    assert a == b


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "derivcover.cli", "dn", "check", "--n", "1", "--op", "D1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: holds" in proc.stdout



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
        "ok derivation-characterization\nok word-inclusion\nok strict-separation\n"
        "ok polarization-equivalence\nok inductive-subsum\nok cover-equivalence\n"
        "ok definability\nok coset-freeness\nok cross-check-oracle\n"
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
        "ok derivation-characterization\nok word-inclusion\nok strict-separation\n"
        "ok polarization-equivalence\nok inductive-subsum\nok cover-equivalence\n"
        "ok definability\nok coset-freeness\nok cross-check-oracle\n"
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
    pytest.param(
        # a value that starts with '-' follows '=', or argparse reads it as
        # an option
        ["dn", "check", "--n", "1", "--op=-D1"],
        "command: dn check\nparams: n=1 op=-D1\nverdict: holds\ndefect: 0\n"
        "witness: -\ntiming_ms: 0",
        id="dn-check-leading-minus",
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


KIT_ERRORS = {
    c.__name__ for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.KitError)
}
EXIT_CODES = {"holds": 0, "refuted": 1, "error": 2}


def assert_cli_contract(argv, text):
    """A verdict with its exit code; an error only from the kit's own error
    types, a parse error with a position inside the text, and never a
    verdict for text that holds a foreign character."""
    report = run(argv)
    assert report.exit_code == EXIT_CODES[report.verdict]
    if report.verdict == "error":
        name, _, message = report.defect.partition(": ")
        assert name in KIT_ERRORS, report.defect
        if name == "ParseError":
            position = int(re.fullmatch(r".* \(at position (\d+)\)", message)[1])
            assert 0 <= position <= len(text), report.defect
    if any(c in text for c in FOREIGN_CHARS):
        assert report.verdict == "error"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(function_list_text())
def test_coset_check_contract(funcs):
    assert_cli_contract(["coset", "check", f"--funcs={funcs}"], funcs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(operator_text(), st.integers(1, 3))
def test_dn_check_contract(op, n):
    assert_cli_contract(["dn", "check", "--n", str(n), f"--op={op}"], op)
