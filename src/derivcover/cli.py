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
from itertools import permutations
from typing import Sequence

from . import cosets, cover, dclass, poly
from .dclass import (
    DEFAULT_LEVEL_CAP,
    Operator,
    default_test_set,
    find_witness,
    inductive_subsum,
    is_in_dn,
    polarization_defect,
    probe_zero,
)
from .parse import parse_func_list, parse_operator
from .poly import RatFunc

GRAMMAR_HELP = """\
operator grammar:   operator := term (('+'|'-') term)*
                    term     := [rational '*'] word
                    word     := letter ('.' letter)*     e.g. D1.D2 (D2 applies first)
                    letter   := 'D' digits               letters numbered from 1
                    rational := ['-'] digits ['/' digits]
function grammar:   arithmetic over variables [a-z][0-9]*, integer literals,
                    + - * / ^ and parentheses; ^ binds tightest (integer
                    exponent), then unary minus, then * /, then + -.
"""


@dataclass
class Report:
    """One certification outcome, serializable as text or JSON.

    detail_lines and format steer text output only; they are not part of the
    serialized report.
    """

    command: str
    params: dict[str, str]
    verdict: str  # holds | refuted | error
    defect: str | None = None
    witness: dict | None = None
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


def _check_level_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"level {n} exceeds the configured cap {cap} (--max-n)")


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns a Report (without command/params filled)


def _cmd_dn_check(args) -> Report:
    op = parse_operator(args.op)
    _check_level_cap(args.n, args.max_n)
    verdict = is_in_dn(op, args.n, seed=args.seed)
    return Report(
        command="dn check",
        params={"n": str(args.n), "op": args.op},
        verdict="holds" if verdict.in_dn else "refuted",
        defect=verdict.defect.render(),
        witness=_witness_doc(verdict.defect.reg, verdict.witness),
    )


def _cmd_dn_separation(args) -> Report:
    _check_level_cap(args.n + 1, args.max_n)
    op = Operator.word((0,) * (args.n + 1))
    verdict = is_in_dn(op, args.n, seed=args.seed)
    upper = is_in_dn(op, args.n + 1, seed=args.seed)
    note = (
        "refuted means the (n+1)-fold iterate escapes the order-n class, "
        "the expected strictness"
    )
    report = Report(
        command="dn separation",
        params={
            "n": str(args.n),
            "op": op.render(),
            "in_next_level": "true" if upper.in_dn else "false",
            "reading": note,
        },
        verdict="holds" if verdict.in_dn else "refuted",
        defect=verdict.defect.render(),
        witness=_witness_doc(verdict.defect.reg, verdict.witness),
    )
    return report


def _cmd_dn_polarize(args) -> Report:
    op = parse_operator(args.op)
    _check_level_cap(args.n, args.max_n)
    defect = polarization_defect(op, args.n)
    witness = None if defect.is_zero() else find_witness(defect, seed=args.seed)
    return Report(
        command="dn polarize",
        params={"n": str(args.n), "op": args.op},
        verdict="holds" if defect.is_zero() else "refuted",
        defect=defect.render(),
        witness=_witness_doc(defect.reg, witness),
    )


def _cmd_dn_subsum(args) -> Report:
    _check_level_cap(args.n, args.max_n)
    total = inductive_subsum(args.n)
    return Report(
        command="dn subsum",
        params={"n": str(args.n)},
        verdict="holds" if total.is_zero() else "refuted",
        defect=total.render(),
    )


def _cmd_cover_preserve(args) -> Report:
    op = parse_operator(args.op)
    _check_level_cap(args.n, args.max_n)
    verdict = cover.rn_preservation(op, args.n, seed=args.seed)
    return Report(
        command="cover preserve",
        params={"n": str(args.n), "op": args.op},
        verdict="holds" if verdict.in_dn else "refuted",
        defect=verdict.defect.render(),
        witness=_witness_doc(verdict.defect.reg, verdict.witness),
    )


def _cmd_cover_psi(args) -> Report:
    ok = cover.psi_defines_otimes()
    return Report(
        command="cover psi-check",
        params={},
        verdict="holds" if ok else "refuted",
    )


def _cmd_cover_reduct(args) -> Report:
    _check_level_cap(args.n, args.max_n)
    ok = cover.rn_reduct_check(args.n)
    return Report(
        command="cover reduct",
        params={"n": str(args.n)},
        verdict="holds" if ok else "refuted",
    )


def _cmd_cover_ring(args) -> Report:
    op = parse_operator(args.op)
    defect = cover.sigma_ring_defect(op)
    ok = defect.base.is_zero() and defect.fiber.is_zero()
    witness = None
    if not defect.fiber.is_zero():
        witness = find_witness(defect.fiber, seed=args.seed)
    return Report(
        command="cover ring-check",
        params={"op": args.op},
        verdict="holds" if ok else "refuted",
        defect=defect.render(),
        witness=_witness_doc(defect.fiber.reg, witness),
    )


def _cmd_coset_check(args) -> Report:
    funcs = parse_func_list(args.funcs)
    relation = cosets.affine_relation(funcs)
    if relation is None:
        return Report(
            command="coset check",
            params={"funcs": args.funcs},
            verdict="holds",
            defect=None,
        )
    coeffs = ", ".join(str(c) for c in relation.coefficients)
    return Report(
        command="coset check",
        params={"funcs": args.funcs},
        verdict="refuted",
        defect=f"coefficients: ({coeffs}); constant: {relation.constant}",
    )


# ---------------------------------------------------------------------------
# The suite battery


def _battery(max_n: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run every certification up to the requested level; returns
    (name, passed, detail) triples.  Deterministic for a fixed seed."""
    results: list[tuple[str, bool, str]] = []
    collected: list[tuple[RatFunc, bool]] = []

    def note(defect: RatFunc) -> None:
        collected.append((defect, defect.is_zero()))

    delta = Operator.letter(0)

    # 1: level-1 membership is the Leibniz rule
    d1 = is_in_dn(delta, 1, seed=seed)
    p1 = polarization_defect(delta, 1)
    note(d1.defect)
    note(p1)
    results.append(
        ("derivation-characterization", d1.in_dn and p1.is_zero(), "")
    )

    # 2: words over distinct letters stay in every class from their length up
    ok = True
    bad = ""
    for length in range(1, min(4, max_n) + 1):
        for word in permutations(range(4), length):
            op = Operator.word(word)
            for n in range(length, min(4, max_n) + 1):
                for level in (n, n + 1):
                    verdict = is_in_dn(op, level, seed=seed)
                    note(verdict.defect)
                    if not verdict.in_dn:
                        ok = False
                        bad = f"{op.render()} escaped level {level}"
    results.append(("word-inclusion", ok, bad))

    # 3: the (n+1)-fold iterate separates consecutive classes
    ok = True
    bad = ""
    for n in range(1, min(5, max_n) + 1):
        op = Operator.word((0,) * (n + 1))
        low = is_in_dn(op, n, seed=seed)
        high = is_in_dn(op, n + 1, seed=seed)
        note(low.defect)
        note(high.defect)
        witness_ok = (
            low.witness is not None
            and low.defect.evaluate(low.witness[0]) == low.witness[1] != 0
        )
        if low.in_dn or not high.in_dn or not witness_ok:
            ok = False
            bad = f"separation failed at level {n}"
    results.append(("strict-separation", ok, bad))

    # 4: one-variable identity holds iff the multilinear identity holds
    ok = True
    bad = ""
    ops = default_test_set(seed=seed)
    for op in ops:
        for n in range(1, min(3, max_n) + 1):
            member = is_in_dn(op, n, seed=seed)
            pdef = polarization_defect(op, n)
            note(member.defect)
            note(pdef)
            if member.in_dn != pdef.is_zero():
                ok = False
                bad = f"equivalence failed for {op.render()} at level {n}"
            elif member.in_dn and not dclass.odd_extraction_check(op, n):
                ok = False
                bad = f"parity extraction failed for {op.render()} at level {n}"
    results.append(("polarization-equivalence", ok, bad))

    # 5: the cross-term subsum vanishes
    ok = True
    bad = ""
    for n in range(1, min(4, max_n) + 1):
        total = inductive_subsum(n)
        note(total)
        if not total.is_zero():
            ok = False
            bad = f"subsum nonzero at level {n}"
    results.append(("inductive-subsum", ok, bad))

    # 6: relation preservation on the cover agrees with class membership
    ok = True
    bad = ""
    for op in ops:
        for n in range(1, min(4, max_n) + 1):
            pres = cover.rn_preservation(op, n, seed=seed)
            member = is_in_dn(op, n, seed=seed)
            note(pres.defect)
            if pres.in_dn != member.in_dn:
                ok = False
                bad = f"cover disagreement for {op.render()} at level {n}"
    results.append(("cover-equivalence", ok, bad))

    # 7: definability of the product and of the level-n relation
    two = Operator.word((0, 0))
    ok = (
        cover.psi_defines_otimes()
        and all(cover.rn_reduct_check(n) for n in range(1, min(3, max_n) + 1))
        and cover.sigma_ring_check(delta)
        and not cover.sigma_ring_check(two)
    )
    results.append(("definability", ok, ""))

    # 8: power tuples lie on no affine line over the constants
    ok = all(cosets.coset_free_powers(n) for n in range(1, 9))
    agree, detail = _coset_oracle_agreement(samples=200, seed=seed)
    results.append(("coset-freeness", ok and agree, detail))

    # 9: every symbolic verdict above survives randomized evaluation
    ok = True
    bad = ""
    for idx, (defect, symbolic_zero) in enumerate(collected):
        if probe_zero(defect, seed=seed) != symbolic_zero:
            ok = False
            bad = f"probe disagreed with symbolic verdict #{idx}"
    results.append(("cross-check-oracle", ok, bad))

    return results


def _coset_oracle_agreement(*, samples: int, seed: int) -> tuple[bool, str]:
    """Compare the exact solver against brute-force search over small integer
    relations, on random small polynomial tuples."""
    import random

    from .poly import MPoly, VarRegistry

    rng = random.Random(seed)
    for case in range(samples):
        reg = VarRegistry()
        t = reg.add_generator("t")
        size = rng.choice((1, 2, 2, 3))
        funcs = []
        for _ in range(size):
            coeffs = [rng.randint(-2, 2) for _ in range(4)]
            p = MPoly.from_terms(
                reg,
                [(((t, d),) if d else (), Fraction(c)) for d, c in enumerate(coeffs)],
            )
            funcs.append(RatFunc.from_poly(p))
        solver = cosets.affine_relation(funcs) is not None
        brute = _brute_force_relation(funcs, span=5)
        if solver != brute:
            return False, f"solver/brute-force mismatch on case {case}"
    return True, ""


def _brute_force_relation(funcs: Sequence[RatFunc], *, span: int) -> bool:
    """Exhaustive search for integer relations with all entries in [-span, span].

    Only the leading coefficients are enumerated: the non-constant monomial
    rows must cancel exactly, which then forces the constant.  Any hit is
    re-verified with exact field arithmetic.  Expects polynomial inputs.
    """
    from itertools import product as iproduct

    n = len(funcs)
    coeffs = [dict(f.as_poly().sorted_terms()) for f in funcs]
    monomials = sorted({m for c in coeffs for m in c if m != ()}, key=poly.mono_key)
    vectors = [tuple(c.get(m, 0) for m in monomials) for c in coeffs]
    constants = [c.get((), 0) for c in coeffs]
    rows = len(monomials)
    for eps in iproduct(range(-span, span + 1), repeat=n):
        if all(e == 0 for e in eps):
            continue
        if any(
            sum(eps[j] * vectors[j][r] for j in range(n)) != 0 for r in range(rows)
        ):
            continue
        forced = sum(e * c for e, c in zip(eps, constants))
        if forced.denominator != 1 or abs(forced) > span:
            continue
        total = RatFunc.zero(funcs[0].reg)
        for e, f in zip(eps, funcs):
            total = total + f.scale(e)
        if (total - forced).is_zero():
            return True
    return False


def _cmd_suite(args) -> Report:
    results = _battery(args.max_n, args.seed)
    failed = [name for name, ok, _ in results if not ok]
    lines = []
    for name, ok, detail in results:
        mark = "ok" if ok else "FAIL"
        suffix = f": {detail}" if detail and not ok else ""
        lines.append(f"{mark} {name}{suffix}")
    return Report(
        command="suite",
        params={
            "max_n": str(args.max_n),
            "checks": str(len(results)),
            "failed": str(len(failed)),
        },
        verdict="holds" if not failed else "refuted",
        defect="; ".join(failed) if failed else None,
        detail_lines=lines,
    )


# ---------------------------------------------------------------------------
# Argument parsing and entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument("--seed", type=int, default=0, help="seed for witness search")
    common.add_argument(
        "--max-degree",
        type=int,
        default=64,
        dest="max_degree",
        help="total-degree guard for polynomial products",
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_LEVEL_CAP,
        dest="max_n",
        help="cap on the class level n (suite: run the battery up to this level)",
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

    dn = sub.add_parser("dn", help="derivation-class certifications")
    dnsub = dn.add_subparsers(dest="action", required=True)

    c = dnsub.add_parser(
        "check",
        parents=[common],
        help="is --op in the order-n class? (zero defect of the defining identity)",
    )
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--op", required=True, help="operator expression, e.g. 'D1.D1'")
    c.set_defaults(handler=_cmd_dn_check)

    c = dnsub.add_parser(
        "separation",
        parents=[common],
        help=(
            "certify that the (n+1)-fold iterate of one derivation escapes the "
            "order-n class (expected verdict: refuted, with witness) while "
            "satisfying the order-(n+1) identity"
        ),
    )
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(handler=_cmd_dn_separation)

    c = dnsub.add_parser(
        "polarize",
        parents=[common],
        help="does --op satisfy the multilinear form of the order-n identity?",
    )
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--op", required=True)
    c.set_defaults(handler=_cmd_dn_polarize)

    c = dnsub.add_parser(
        "subsum",
        parents=[common],
        help="certify the vanishing cross-term subsum behind class inclusion",
    )
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(handler=_cmd_dn_subsum)

    cov = sub.add_parser("cover", help="additive-cover certifications")
    covsub = cov.add_subparsers(dest="action", required=True)

    c = covsub.add_parser(
        "preserve",
        parents=[common],
        help="does the fiber move of --op preserve the level-n relation?",
    )
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--op", required=True)
    c.set_defaults(handler=_cmd_cover_preserve)

    c = covsub.add_parser(
        "psi-check",
        parents=[common],
        help="certify that the pair product is definable from squaring alone",
    )
    c.set_defaults(handler=_cmd_cover_psi)

    c = covsub.add_parser(
        "reduct",
        parents=[common],
        help="certify the level-n relation is equivalent to shifted product powers",
    )
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(handler=_cmd_cover_reduct)

    c = covsub.add_parser(
        "ring-check",
        parents=[common],
        help="does the fiber move of --op respect the pair product? (Leibniz test)",
    )
    c.add_argument("--op", required=True)
    c.set_defaults(handler=_cmd_cover_ring)

    cos = sub.add_parser("coset", help="affine-relation certifications")
    cossub = cos.add_subparsers(dest="action", required=True)

    c = cossub.add_parser(
        "check",
        parents=[common],
        help="is the tuple --funcs free of affine relations over the constants?",
    )
    c.add_argument(
        "--funcs", required=True, help="comma-separated functions, e.g. 't,t^2,t^3'"
    )
    c.set_defaults(handler=_cmd_coset_check)

    c = sub.add_parser(
        "suite",
        parents=[common],
        help="run the whole certification battery up to --max-n",
    )
    c.set_defaults(handler=_cmd_suite)

    return parser


def _parsed_params(args) -> dict[str, str]:
    """Every parsed option, the command's own before the common ones."""
    common = ("seed", "max_degree", "max_n")
    routing = ("group", "action", "handler", "format")
    params = {k: str(v) for k, v in vars(args).items() if k not in common + routing}
    params.update((k, str(getattr(args, k))) for k in common)
    return params


def run(argv: Sequence[str]) -> Report:
    """Execute one CLI invocation and return its report."""
    args = _build_parser().parse_args(argv)
    old_limit = poly.get_degree_limit()
    try:
        poly.set_degree_limit(args.max_degree)
        report = args.handler(args)
    except Exception as exc:  # every failure is an error report, never a traceback
        command = args.group + (
            f" {args.action}" if getattr(args, "action", None) else ""
        )
        report = Report(
            command=command,
            params=_parsed_params(args),
            verdict="error",
            defect=f"{type(exc).__name__}: {exc}",
        )
    finally:
        poly.set_degree_limit(old_limit)
    report.format = args.format
    return report


def main(argv: Sequence[str] | None = None) -> None:
    report = run(sys.argv[1:] if argv is None else argv)
    print(report.to_json() if report.format == "json" else report.to_text())
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
