"""Command-line surface: runnable certifications with deterministic reports.

Exit codes: 0 = holds, 1 = refuted, 2 = error (including usage errors).
Reports are byte-identical across runs for fixed seed and inputs; the
timing_ms field is pinned to 0 for that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import cosets, cover, suite
from .dclass import (
    DEFAULT_LEVEL_CAP,
    MembershipVerdict,
    inductive_subsum,
    is_in_dn,
    polarization_defect,
)
from .jets import Operator
from .parse import MAX_COEFF_BITS, MAX_DEGREE, MAX_DIGITS, parse_func_list, parse_operator

GRAMMAR_HELP = f"""\
operator grammar:   operator := term (('+'|'-') term)*
                    term     := [rational '*'] word
                    word     := letter ('.' letter)*     e.g. D1.D2 (D2 applies first)
                    letter   := 'D' digits               letters numbered from 1
                    rational := ['-'] digits ['/' digits]
function grammar:   arithmetic over variables [a-z][0-9]*, integer literals,
                    + - * / ^ and parentheses; ^ binds tightest (integer
                    exponent), then unary minus, then * /, then + -.
                    No numerator or denominator may pass total degree {MAX_DEGREE}
                    or hold a coefficient of more than {MAX_COEFF_BITS} bits.
both grammars:      a number has at most {MAX_DIGITS} digits.
                    Give a value that starts with '-' after '=': --op=-D1.
"""


@dataclass
class Report:
    """One certification outcome, serializable as text or JSON.

    detail_lines and format steer text output only; they are not part of the
    serialized report.
    """

    verdict: str  # holds | refuted | error
    defect: str | None = None
    witness: dict | None = None
    params: dict[str, str] = field(default_factory=dict)
    command: str = ""
    timing_ms: int = 0
    detail_lines: list[str] = field(default_factory=list)
    format: str = "text"

    @property
    def exit_code(self) -> int:
        return {"holds": 0, "refuted": 1, "error": 2}[self.verdict]

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "command": self.command,
            "params": self.params,
            "verdict": self.verdict,
            "defect": self.defect,
            "witness": self.witness,
            "timing_ms": self.timing_ms,
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = list(self.detail_lines)
        lines.append(f"command: {self.command}")
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        lines.append(f"params: {params}" if params else "params: -")
        lines.append(f"verdict: {self.verdict}")
        lines.append(f"defect: {self.defect if self.defect is not None else '-'}")
        if self.witness is None:
            lines.append("witness: -")
        else:
            assigns = ", ".join(
                f"{a['var']}={a['value']}" for a in self.witness["assignments"]
            )
            lines.append(f"witness: {assigns} -> {self.witness['value']}")
        lines.append(f"timing_ms: {self.timing_ms}")
        return "\n".join(lines)


def _witness_doc(reg, witness: tuple[dict[int, Fraction], Fraction] | None):
    if witness is None:
        return None
    assignment, value = witness
    assigns = [
        {"var": reg.name(v), "value": str(assignment[v])}
        for v in sorted(assignment)
    ]
    return {"assignments": assigns, "value": str(value)}


def _verdict(ok: bool) -> str:
    return "holds" if ok else "refuted"


def _membership(verdict: MembershipVerdict) -> Report:
    return Report(
        _verdict(verdict.in_dn),
        verdict.defect.render(),
        _witness_doc(verdict.defect.reg, verdict.witness),
    )


# ---------------------------------------------------------------------------
# Subcommand bodies.  `run` parses --op and checks the level cap first, and
# fills in the command and its required options; a body adds any further params.


def _dn_separation(args) -> Report:
    op = Operator.word((0,) * (args.n + 1))
    report = _membership(is_in_dn(op, args.n))
    upper = is_in_dn(op, args.n + 1)
    report.params = {
        "op": op.render(),
        "in_next_level": "true" if upper.in_dn else "false",
        "reading": (
            "refuted means the (n+1)-fold iterate escapes the order-n class, "
            "the expected strictness"
        ),
    }
    return report


def _dn_subsum(args) -> Report:
    total = inductive_subsum(args.n)
    return Report(_verdict(total.is_zero()), total.render())


def _cover_ring(args) -> Report:
    defect = cover.sigma_ring_defect(args.op)
    fiber = MembershipVerdict.of(defect.fiber)
    return Report(
        _verdict(defect.base.is_zero() and fiber.in_dn),
        defect.render(),
        _witness_doc(defect.fiber.reg, fiber.witness),
    )


def _coset_check(args) -> Report:
    relation = cosets.affine_relation(parse_func_list(args.funcs))
    if relation is None:
        return Report("holds")
    coeffs = ", ".join(str(c) for c in relation.coefficients)
    return Report(
        "refuted", f"coefficients: ({coeffs}); constant: {relation.constant}"
    )


def _suite(args) -> Report:
    results = suite.battery(args.max_n, args.seed)
    failed = [name for name, ok, _ in results if not ok]
    lines = []
    for name, ok, detail in results:
        mark = "ok" if ok else "FAIL"
        suffix = f": {detail}" if detail and not ok else ""
        lines.append(f"{mark} {name}{suffix}")
    return Report(
        _verdict(not failed),
        "; ".join(failed) if failed else None,
        params={
            "max_n": str(args.max_n),
            "seed": str(args.seed),
            "checks": str(len(results)),
            "failed": str(len(failed)),
        },
        detail_lines=lines,
    )


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # keys of OPTIONS
    body: Callable[[argparse.Namespace], Report]
    reach: int = 0  # levels above --n the command certifies


# Keyed by the command name: a group and an action, or a lone command.
COMMANDS = {
    "dn check": Command(
        "is --op in the order-n class? (zero defect of the defining identity)",
        ("n", "op", "max_n"),
        lambda args: _membership(is_in_dn(args.op, args.n)),
    ),
    "dn separation": Command(
        "certify that the (n+1)-fold iterate of one derivation escapes the "
        "order-n class (expected verdict: refuted, with witness) while "
        "satisfying the order-(n+1) identity",
        ("n", "max_n"),
        _dn_separation,
        reach=1,
    ),
    "dn polarize": Command(
        "does --op satisfy the multilinear form of the order-n identity?",
        ("n", "op", "max_n"),
        lambda args: _membership(
            MembershipVerdict.of(polarization_defect(args.op, args.n))
        ),
    ),
    "dn subsum": Command(
        "certify the vanishing cross-term subsum behind class inclusion",
        ("n", "max_n"),
        _dn_subsum,
    ),
    "cover preserve": Command(
        "does the fiber move of --op preserve the level-n relation?",
        ("n", "op", "max_n"),
        lambda args: _membership(
            cover.rn_preservation(args.op, args.n)
        ),
    ),
    "cover psi-check": Command(
        "certify that the pair product is definable from squaring alone",
        (),
        lambda args: Report(_verdict(cover.psi_defines_otimes())),
    ),
    "cover reduct": Command(
        "certify the level-n relation is equivalent to shifted product powers",
        ("n", "max_n"),
        lambda args: Report(_verdict(cover.rn_reduct_check(args.n))),
    ),
    "cover ring-check": Command(
        "does the fiber move of --op respect the pair product? (Leibniz test)",
        ("op",),
        _cover_ring,
    ),
    "coset check": Command(
        "is the tuple --funcs free of affine relations over the constants?",
        ("funcs",),
        _coset_check,
    ),
    "suite": Command(
        "run the whole certification battery up to --max-n",
        ("seed", "max_n"),
        _suite,
    ),
}

GROUP_HELP = {
    "dn": "derivation-class certifications",
    "cover": "additive-cover certifications",
    "coset": "affine-relation certifications",
}

OPTIONS = {
    "n": {"type": int, "required": True},
    "op": {"required": True, "help": "operator expression, e.g. 'D1.D1'"},
    "funcs": {
        "required": True,
        "help": "comma-separated functions, e.g. 't,t^2,t^3'",
    },
    "seed": {
        "type": int,
        "default": 0,
        "help": "seed for the suite's test set and probe points",
    },
    "max_n": {
        "type": int,
        "default": DEFAULT_LEVEL_CAP,
        "help": "cap on the class level n (suite: run the battery up to this level)",
    },
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    parser = argparse.ArgumentParser(
        prog="derivcover",
        description=(
            "Exact certifications for higher-order derivation classes and "
            "additive covers of the complex numbers."
        ),
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for name, cmd in COMMANDS.items():
        group, _, action = name.partition(" ")
        if action and group not in actions:
            g = sub.add_parser(group, help=GROUP_HELP[group])
            actions[group] = g.add_subparsers(dest="action", required=True)
        owner = actions[group] if action else sub
        c = owner.add_parser(action or group, parents=[common], help=cmd.help)
        for option in cmd.options:
            c.add_argument(f"--{option.replace('_', '-')}", **OPTIONS[option])
        c.set_defaults(command=name)
    return parser


def run(argv: Sequence[str]) -> Report:
    """Execute one CLI invocation and return its report."""
    args = _build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    given = {option: str(getattr(args, option)) for option in cmd.options}
    # every report echoes the required inputs; an error report also the settings
    params = {o: v for o, v in given.items() if "default" not in OPTIONS[o]}
    try:
        if "op" in cmd.options:  # a parse error wins over the level cap
            args.op = parse_operator(args.op)
        if "n" in cmd.options and args.n + cmd.reach > args.max_n:
            raise ValueError(
                f"level {args.n + cmd.reach} exceeds the configured cap "
                f"{args.max_n} (--max-n)"
            )
        report = cmd.body(args)
        report.params = params | report.params
    except Exception as exc:  # every failure is an error report, never a traceback
        report = Report("error", f"{type(exc).__name__}: {exc}", params=given)
    report.command = args.command
    report.format = args.format
    return report


def main(argv: Sequence[str] | None = None) -> None:
    report = run(sys.argv[1:] if argv is None else argv)
    print(report.to_json() if report.format == "json" else report.to_text())
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
