#!/usr/bin/env python3
"""Hashes of the answers derivcover gives, to show that a change keeps them.

    python3 tools/answers.py

Run from the root of a checkout.  It imports derivcover from src/ and the
benchmark's workloads from bench/, and writes nothing.  It prints one sha256
per part, so two checkouts give the same answers when every line matches:

    workloads      every check of workloads.build(w, s) for each workload w at
                   seeds s = 1-3: label, verdict, defect, witness, params and
                   the result of the check's verify
    suite-text     the text report of `suite --max-n 4`
    suite-json     its JSON report
    coset-funcs    the text reports of `coset check --funcs` on COSET_FUNCS
    usage          the text and JSON reports of the malformed argv in USAGE_ARGV
    suite-default  the text and JSON reports of `suite` at its default
                   --max-n, which runs every level up to 6; this part adds
                   about 2 s to the run
    products       the rendered parse_ratfunc of PRODUCT_TEXTS, then the text
                   reports of `cover preserve --n k` for k = 1-6 on
                   PRESERVE_OPS
    membership     the text and JSON reports of `dn check` and `dn polarize`
                   on MEMBERSHIP_ARGV: the operators of default_test_set at
                   seeds 0-2 at levels 1-6, and the first three words of k
                   distinct letters, k = 2-6, at levels k-2 to k (from 1)
    fractions      the rendered apply_operator and dn_defect at levels 1-3 of
                   the operators of default_test_set(seed=0) at each of
                   FRACTION_ELEMENTS
    repeated       the text reports of `dn check` and `dn polarize` on
                   REPEATED_ARGV: words with repeated letters, whose
                   partitions into blocks share their block multisets
    brackets       the text and JSON reports of `dn check` and `dn polarize`
                   at levels 1-4 on BRACKET_OPS: sums of words that share
                   block multisets, with coefficients that cancel
    lie            the text and JSON reports of `dn check` and `dn polarize`
                   on LIE_ARGV: Lie elements, whose words share one letter
                   content and cancel where their read prefixes meet, and
                   seeded sums with words of several lengths that share
                   suffixes
    arith          the terms, with their coefficient types, of sums, products,
                   powers, scalings, quotients and gcds of ARITH_POLYS and
                   ARITH_FRACTIONS, of RatFunc.make with a zero numerator, and
                   of derive on ARITH_JET_POLYS
    operator-errors  the text and JSON reports of `dn check --n 1` on the
                   malformed operators of OPERATOR_ERRORS
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import islice, permutations
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as it is
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from derivcover import cli  # noqa: E402
from derivcover.dclass import TEST_SET_LETTERS, default_test_set, dn_defect  # noqa: E402
from derivcover.jets import JetContext, Operator, apply_operator, derive  # noqa: E402
from derivcover.parse import parse_ratfunc  # noqa: E402
from derivcover.poly import MPoly, RatFunc, VarRegistry, mpoly_gcd  # noqa: E402

SEEDS = (1, 2, 3)

# Multivariate fractions: reducing each one runs the subresultant sequence on
# coefficients that are polynomials in the other variables.
COSET_FUNCS = [
    "(x*y+1)*(x+y)/((x*y+1)*(x-y+1)),x",
    "(x*y+1)*(x+y)/((x*y+1)*(x-y+1)),y,x*y",
    "(x*y+1)*(x+y)/((x*y+1)*(x-y+1)),2*(x+y)/(x-y+1)+3",
    "(x^2*y-y+2)*(x+y^2)/((x^2*y-y+2)*(x*y+3)),x+y",
    "(x+y)*(x*y+2)/((x-y)*(x*y+2)),(x*y+2)/(x^2*y+2*x),x",
    "(x*y+z)*(x+y+z)/((x*y+z)*(x-y+z+1)),x,y",
    "(x*y+1)^2/((x*y+1)*(x^2+y)),x*y",
    "(x^2+y^2-1)*(x-y)/((x^2+y^2-1)*(x+y+2)),x^2,y",
]

# Products, powers and quotients of multi-term polynomials, with integer and
# fractional coefficients.
PRODUCT_TEXTS = [
    "(t+u+v+w)^12",
    "(t+u+v+w)^6*(t-u+v-w)^6",
    "(x*y+1)^7*(x-y)^5/(x+y+1)^3",
    "((x^2+y*z+3)/(x*y-z+1))^3*((x*y-z+1)/(x+z))^2",
    "(x/2+y/3-1)^9*(x-2*y)^4",
    "(x+y+1)^5*(x-y+2)^4-(x*y+3)^4*(x+1)",
    "(x^2+x*y+y^2)^6/(x^3-y^3)^2",
]

# Operators whose level-k relation defects stay nonzero past level 4.
PRESERVE_OPS = ["D1.D2-D2.D1", "D1.D1+2*D2", "D1.D1.D1.D1.D1.D1", "D1.D2.D3.D4.D5.D6"]

# Membership checks that hold and that refute, each operator once: holds
# reports keep only the symbols the defect reached, refuted ones every jet.
MEMBERSHIP_OPS = list(
    dict.fromkeys(op.render() for seed in (0, 1, 2) for op in default_test_set(seed=seed))
)
MEMBERSHIP_ARGV = [
    [*command, "--n", str(n), "--op", op]
    for op, levels in [
        *((op, range(1, 7)) for op in MEMBERSHIP_OPS),
        *((Operator.word(w).render(), range(max(1, k - 2), k + 1))
          for k in range(2, 7) for w in islice(permutations(range(k)), 3)),
    ]
    for n in levels
    for command in (["dn", "check"], ["dn", "polarize"])
]

# Words with repeated letters: D1^k for k = 4-9 at levels 2 to k-1, (D1.D2)^k for
# k = 2-4 at levels 2 to 2k-1 and D1.D1.D2.D1.D1.D2 at levels 1-5, checked at
# each level and polarized at the levels up to 4; --max-n 8 admits level 8.
REPEATED_ARGV = [
    [*command, "--n", str(n), "--op", Operator.word(w).render(), "--max-n", "8"]
    for w, levels in [
        *(((0,) * k, range(2, k)) for k in range(4, 10)),
        *(((0, 1) * k, range(2, 2 * k)) for k in range(2, 5)),
        ((0, 0, 1, 0, 0, 1), range(1, 6)),
    ]
    for command, top in ((["dn", "check"], 8), (["dn", "polarize"], 4))
    for n in levels
    if n <= top
]


def bracket(a: Operator, b: Operator) -> Operator:
    pairs = [(u, v, c * d) for u, c in a.terms.items() for v, d in b.terms.items()]
    return Operator.from_terms([(u + v, c) for u, v, c in pairs]
                               + [(v + u, -c) for u, v, c in pairs])


def compose(a: Operator, b: Operator) -> Operator:
    return Operator.from_terms(
        (u + v, c * d) for u, c in a.terms.items() for v, d in b.terms.items()
    )


def same_content(seed: int) -> Operator:
    """A seeded signed sum of up to 5 distinct orderings of one multiset of 3
    to 5 of the letters D1-D3, with at least two letters distinct."""
    rng = random.Random(seed)
    letters = [0, 1] + [rng.randrange(3) for _ in range(rng.randint(1, 3))]
    orderings = sorted(set(permutations(letters)))
    return Operator.from_terms(
        (w, rng.choice([-2, -1, 1, 2])) for w in rng.sample(orderings, min(len(orderings), 5))
    )


# Lie elements and their products, whose block parts cancel across words:
# the brackets and nested brackets over D1-D4, [D1,D2] composed with D3 and
# with [D3,D4], the symmetrization of D1.D2.D3, and seeded same-content sums.
D1, D2, D3, D4 = (Operator.word((i,)) for i in range(4))
BRACKET_OPS = [
    *(bracket(a, b) for a, b in [(D1, D2), (D1, D3), (D2, D3), (D2, D4), (D3, D4)]),
    bracket(bracket(D1, D2), D3),
    bracket(D1, bracket(D2, D3)),
    bracket(bracket(D1, D2), D1),
    bracket(D2, bracket(D2, D1)),
    bracket(bracket(bracket(D1, D2), D3), D4),
    bracket(D1, bracket(D2, bracket(D3, D4))),
    bracket(bracket(D1, D2), bracket(D3, D4)),
    bracket(bracket(bracket(D1, D2), D1), D2),
    compose(bracket(D1, D2), D3),
    compose(bracket(D1, D2), bracket(D3, D4)),
    Operator.from_terms((w, 1) for w in permutations(range(3))),
    *(same_content(seed) for seed in range(12)),
]
BRACKET_ARGV = [
    [*command, "--n", str(n), "--op", op.render(), "--max-n", "8"]
    for op in BRACKET_OPS
    for n in range(1, 5)
    for command in (["dn", "check"], ["dn", "polarize"])
]

# Lie elements: the products of k disjoint brackets [D1,D2]...[D_{2k-1},D_{2k}]
# for k = 2-5 at level k, where they hold, and for k <= 3 at level k-1; the
# left- and right-nested commutators of 5-7 letters at levels 1-2; and, at
# levels 1-4, seeded sums of orderings of one word with some of their suffixes.
LETTERS = [Operator.word((i,)) for i in range(10)]


def bracket_product(k: int) -> Operator:
    return reduce(compose, (bracket(LETTERS[i], LETTERS[i + 1]) for i in range(0, 2 * k, 2)))


def suffix_sum(seed: int) -> Operator:
    """A seeded signed sum of up to 3 orderings of one word of 4 to 6 of the
    letters D1-D3 and up to 3 of their proper suffixes."""
    rng = random.Random(seed)
    word = tuple(rng.randrange(3) for _ in range(rng.randint(4, 6)))
    orderings = [tuple(rng.sample(word, len(word))) for _ in range(rng.randint(1, 3))]
    tails = rng.choices(orderings, k=rng.randint(1, 3))
    suffixes = [w[rng.randint(1, len(w) - 1):] for w in tails]
    return Operator.from_terms((w, rng.choice([-2, -1, 1, 2])) for w in orderings + suffixes)


LIE_ARGV = [
    [*command, "--n", str(n), "--op", op.render()]
    for op, levels in [
        *((bracket_product(k), range(k - 1 if k <= 3 else k, k + 1)) for k in range(2, 6)),
        *((reduce(bracket, LETTERS[:k]), (1, 2)) for k in range(5, 8)),
        *((reduce(lambda a, b: bracket(b, a), LETTERS[k - 1::-1]), (1, 2)) for k in range(5, 8)),
        *((suffix_sum(seed), range(1, 5)) for seed in range(8)),
    ]
    for n in levels
    for command in (["dn", "check"], ["dn", "polarize"])
]

# Fractions over repeated, coprime-product and two-generator denominators, each
# with the number of generators of its context.
FRACTION_ELEMENTS = [
    ("x1/(x1^2-2)^3", 1),
    ("(x1^2+x1)/((x1-2)^2*x1^3)", 1),
    ("(x1+3)/((x1^2+1)*(x1-2))", 1),
    ("(x1*x2-1)/(x1^3*(x2+2)^2)", 2),
    ("x2/((x1^2+1)^2*(x1-3))", 2),
]

# Arithmetic on the cases that need no shortcut: a zero operand on either side,
# a constant, parts in disjoint variables with and without a common monomial,
# fractions over one denominator whose sum cancels, and polynomials under the
# Leibniz action.
ARITH_POLYS = ["0", "-6", "3/2", "x*y + 1", "x^2*(y + 1)", "3*x*(z - 1)", "x/2 - y", "z^2 + 2"]
ARITH_FRACTIONS = [
    "0", "5", "x*y + 1", "(x*y + 1)/(2*x - z^2)", "-(x*y + 1)/(2*x - z^2)",
    "(x + 1)/(2*x - z^2)", "(x - y)/(x*y - 4)", "3/(x^2 + 1)",
]
ARITH_JET_POLYS = ["0", "7", "x1", "x1^2*x2 - 3", "x1*x2/2 + x2^3"]


# Malformed operator texts: fraction coefficients without a denominator or
# with a zero one, signs where no term or letter may start, and bad letters.
OPERATOR_ERRORS = ["2/D1", "2/", "3/-2*D1", "1/0*D1", "--D1", "D1+-D2", "2*-D1", "D0", "D1."]

# Malformed argv, as the argparse tree once answered them: a head that names
# no command, or a whole command, in either format, with one stray part.
OTHER_HEADS = [["dn"], ["cover"], ["bogus"], ["dn", "bogus"], [], ["dn check"]]
STRAY_PARTS = [
    ["--n="], ["--n", "-1"], ["--op=--"], ["--op", "-h D1"], ["--format=xml"],
    ["--n", "x"], ["--n"], ["--op=-D1"], ["--op", "-D1"], ["--o", "D1.D2"], ["--max", "x"],
    ["--m", "4"], ["--f", "t"], ["--s=1"], ["--format", "xml"], ["--fo=text"], ["extra"], ["-x"],
    ["--"], ["--he"],
]
WHOLE = [
    [*head, *form, *flags]
    for head, flags in [(["dn", "check"], ["--n", "2", "--op", "D1.D1"]),
                        (["coset", "check"], ["--funcs", "t,t^2"])]
    for form in ([], ["--format", "json"])
]
USAGE_ARGV = [
    *(head + ["--n", "2"] for head in OTHER_HEADS),
    *(argv + part for argv in WHOLE for part in STRAY_PARTS),
]


def sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def workload_answers():
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            for check in workloads.build(w, seed):
                try:
                    out = check.run()
                except Exception as exc:  # a crash is an answer too: hash its text
                    yield json.dumps([check.label, f"{type(exc).__name__}: {exc}"])
                    continue
                answer = [check.label, out.verdict, out.defect, out.witness, out.params,
                          check.verify(out)]
                yield json.dumps(answer, sort_keys=True, default=str)


def fraction_answers():
    for text, gens in FRACTION_ELEMENTS:
        ctx = JetContext(gens, TEST_SET_LETTERS, 3)
        f = parse_ratfunc(text, ctx, allow_new_vars=False)
        for op in default_test_set(seed=0):
            yield apply_operator(ctx, op, f).render()
            yield from (dn_defect(ctx, op, n, f).render() for n in (1, 2, 3))


def shown(f) -> str:
    """The representation of a polynomial or a rational function: its terms,
    each coefficient with its type."""
    if isinstance(f, RatFunc):
        return f"{shown(f.num)} / {shown(f.den)}"
    return repr(f.sorted_terms())


def arith_answers():
    reg = VarRegistry()
    for name in "xyz":
        reg.add_generator(name)
    polys = [parse_ratfunc(text, reg, allow_new_vars=False).num for text in ARITH_POLYS]
    for p in polys:
        yield from (shown(p**k) for k in range(4))
        yield from (shown(p.scale(c)) for c in (0, Fraction(0), 1, Fraction(-3, 2)))
        yield shown(RatFunc.make(MPoly.zero(reg), p)) if p else "zero denominator"
        for q in polys:
            yield from (shown(p + q), shown(p - q), shown(p * q), shown(mpoly_gcd(p, q)))
    fracs = [parse_ratfunc(text, reg, allow_new_vars=False) for text in ARITH_FRACTIONS]
    for f in fracs:
        for g in fracs:
            yield from (shown(f + g), shown(f - g), shown(f * g))
            yield shown(f / g) if g.num else "zero divisor"
    ctx = JetContext(2, 2, 2)
    for text in ARITH_JET_POLYS:
        f = parse_ratfunc(text, ctx, allow_new_vars=False)
        for letter in range(2):
            image = derive(ctx, letter, f)
            yield from (shown(image), shown(derive(ctx, 1 - letter, image)))


def main() -> None:
    suite = cli.run(["suite", "--max-n", "4"])
    parts = {
        "workloads": sha256(workload_answers()),
        "suite-text": sha256([suite.to_text()]),
        "suite-json": sha256([suite.to_json()]),
        "coset-funcs": sha256(
            cli.run(["coset", "check", "--funcs", funcs]).to_text() for funcs in COSET_FUNCS
        ),
        "usage": sha256(
            text for report in map(cli.run, USAGE_ARGV)
            for text in (report.to_text(), report.to_json())
        ),
        "suite-default": sha256(
            text for report in [cli.run(["suite"])]
            for text in (report.to_text(), report.to_json())
        ),
        "products": sha256([
            *(parse_ratfunc(text).render() for text in PRODUCT_TEXTS),
            *(cli.run(["cover", "preserve", "--n", str(k), "--op", op]).to_text()
              for op in PRESERVE_OPS for k in range(1, 7)),
        ]),
        "membership": sha256(
            text for report in map(cli.run, MEMBERSHIP_ARGV)
            for text in (report.to_text(), report.to_json())
        ),
        "fractions": sha256(fraction_answers()),
        "repeated": sha256(cli.run(argv).to_text() for argv in REPEATED_ARGV),
        "brackets": sha256(
            text for report in map(cli.run, BRACKET_ARGV)
            for text in (report.to_text(), report.to_json())
        ),
        "lie": sha256(
            text for report in map(cli.run, LIE_ARGV)
            for text in (report.to_text(), report.to_json())
        ),
        "arith": sha256(arith_answers()),
        "operator-errors": sha256(
            text for op in OPERATOR_ERRORS
            for report in [cli.run(["dn", "check", "--n", "1", "--op", op])]
            for text in (report.to_text(), report.to_json())
        ),
    }
    for name, digest in parts.items():
        print(f"{name:<15} {digest}")


if __name__ == "__main__":
    main()
