"""Command-line surface: runnable certifications with deterministic reports.

Exit codes: 0 = holds, 1 = refuted, 2 = error (including usage errors).
Reports are byte-identical across runs for fixed seed and inputs; the
timing_ms entry is written as 0 for that reason.

Every argv is read against the option table (COMMANDS, OPTIONS), and one
that does not fit is a UsageError, reported like any other error.  Only -h
or --help where a flag would go builds the argparse tree, to print help.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import cosets, cover, suite
from .dclass import (
    DEFAULT_LEVEL_CAP,
    MembershipVerdict,
    inductive_subsum,
    is_in_dn,
    polarization_defect,
)
from .errors import UsageError
from .jets import Operator
from .parse import MAX_COEFF_BITS, MAX_DEGREE, MAX_DIGITS, parse_func_list, parse_operator

GRAMMAR_HELP = f"""\
operator grammar:   operator := ['-'] term (('+'|'-') term)*
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
"""


class Report(NamedTuple):
    """One certification outcome, serializable as text or JSON.

    detail_lines and format steer text output only; they are not part of the
    serialized report.  A report is immutable: run fills in its command and
    params with _replace.
    """

    verdict: str  # holds | refuted | error
    defect: str | None = None
    witness: dict | None = None
    params: dict[str, str] = {}  # shared by every report that takes it; never mutated
    command: str = ""
    detail_lines: Sequence[str] = ()
    format: str = "text"

    @property
    def exit_code(self) -> int:
        return {"holds": 0, "refuted": 1, "error": 2}[self.verdict]

    def to_json(self) -> str:
        import json  # only here: a text report never needs it

        doc = {
            "schema": 1,
            "command": self.command,
            "params": self.params,
            "verdict": self.verdict,
            "defect": self.defect,
            "witness": self.witness,
            "timing_ms": 0,
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = list(self.detail_lines)
        lines.append(f"command: {self.command or '-'}")
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
        lines.append("timing_ms: 0")
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
    return report._replace(
        params={
            "op": op.render(),
            "in_next_level": "true" if upper.in_dn else "false",
            "reading": (
                "refuted means the (n+1)-fold iterate escapes the order-n class, "
                "the expected strictness"
            ),
        }
    )


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
    failed = [name for name, ok, _, _ in results if not ok]
    lines = []
    for name, ok, detail, scope in results:
        suffix = f": {detail}" if detail and not ok else ""
        lines.append(f"{'ok' if ok else 'FAIL'} {name} ({scope}){suffix}")
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
    body: Callable[[SimpleNamespace], Report]
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

# Every command takes --format; the rest are named in Command.options.
OPTIONS = {
    "format": {"choices": ("text", "json"), "default": "text", "help": "report format"},
    "n": {"type": int, "required": True, "help": "class level, 1 or more"},
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
        "help": "cap on the class level n (suite: run the battery at levels 1 to "
        f"this, which must be 1 to {DEFAULT_LEVEL_CAP})",
    },
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point


@cache
def _flags(name: str) -> dict[str, tuple[str, dict]]:
    """The command's flags, --format first, each with its OPTIONS key and entry."""
    keys = ("format", *COMMANDS[name].options)
    return {f"--{key.replace('_', '-')}": (key, OPTIONS[key]) for key in keys}


@cache
def _build_parser():
    """The full parser tree of top, group and command parsers, built once
    per process and only to print help."""
    import argparse

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
        c = owner.add_parser(action or group, help=cmd.help)
        for flag, (_, spec) in _flags(name).items():
            c.add_argument(flag, **spec)
        c.set_defaults(command=name)
    return parser


# A command's words lead to it; a group's word, or none, to no command.
_HEADS = {(): None} | {(name.split()[0],): None for name in COMMANDS}
_HEADS |= {tuple(name.split()): name for name in COMMANDS}


def _read(argv: Sequence[str]) -> SimpleNamespace:
    """argv as a command's words, then --name value or --name=value pairs of
    its flags, which may start with '-'; the last of a repeated flag counts.
    Anything else is a UsageError: no command, an unknown flag (also an
    abbreviation), a missing value or flag, an int that is not an optional
    '-' and 1..MAX_DIGITS ASCII digits (as the grammars read a number), a
    bad choice, or a word left over.  -h or --help where a flag would go
    prints the help of the command, group or tree read so far, and exits 0."""
    for words in (tuple(argv[:2]), tuple(argv[:1]), ()):
        if words in _HEADS:
            break
    name = _HEADS[words]
    if name is None:
        word = next(iter(argv[len(words):]), "end of argv")
        if word in ("-h", "--help"):
            _build_parser().parse_args([*words, "-h"])
        choices = ", ".join(k[-1] for k in _HEADS if k[:-1] == words != k)
        raise UsageError(f"expected a command word ({choices}), found {word!r}")
    flags = _flags(name)
    args = {key: spec.get("default") for key, spec in flags.values()}  # None: not given yet
    rest = iter(argv[len(words):])
    for word in rest:
        flag, eq, value = word.partition("=")
        if flag not in flags:
            if word in ("-h", "--help"):
                _build_parser().parse_args([*words, "-h"])
            what = "unknown flag" if word.startswith("-") else "unexpected word"
            raise UsageError(f"{what} {word!r}", name, args)
        if not eq and (value := next(rest, None)) is None:
            raise UsageError(f"{flag} needs a value", name, args)
        key, spec = flags[flag]
        if "type" in spec:
            digits = value.removeprefix("-")
            if not (len(digits) <= MAX_DIGITS and digits.isascii() and digits.isdigit()):
                raise UsageError(f"{flag} wants an integer, not {value!r}", name, args)
            value = int(value)
        if "choices" in spec and value not in spec["choices"]:
            wanted = " or ".join(spec["choices"])
            raise UsageError(f"{flag} wants {wanted}, not {value!r}", name, args)
        args[key] = value
    if None in args.values():
        missing = " and ".join(flag for flag, (key, _) in flags.items() if args[key] is None)
        raise UsageError(f"missing {missing}", name, args)
    return SimpleNamespace(**args, command=name)


def run(argv: Sequence[str]) -> Report:
    """Execute one CLI invocation and return its report; a usage error is
    verdict `error`, in the format read before it.  Help exits 0 instead."""
    try:
        args = _read(argv)
    except UsageError as exc:
        params = {k: str(v) for k, v in exc.read.items() if k != "format" and v is not None}
        return Report("error", f"UsageError: {exc}", None, params, exc.command,
                      format=exc.read.get("format", "text"))
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
        params |= report.params
    except Exception as exc:  # every failure is an error report, never a traceback
        report, params = Report("error", f"{type(exc).__name__}: {exc}"), given
    return report._replace(params=params, command=args.command, format=args.format)


def main(argv: Sequence[str] | None = None) -> None:
    report = run(sys.argv[1:] if argv is None else argv)
    try:
        print(report.to_json() if report.format == "json" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; the exit code still gives the verdict, and
        # stdout points at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
