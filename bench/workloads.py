"""The benchmark's workloads: seeded lists of distinct checks with known answers.

A run makes R passes over its workload's list, in a fresh order each pass.
Each Check runs one user-visible operation through derivcover's public API
and returns an Outcome; `verify` then judges the outcome against the answers
in `known` (which does not use derivcover).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import known

# Seconds one pass over the list took when the benchmark was written
# (Python 3.11, 2-core x86-64 container).  A run makes --seconds divided by this many
# passes, so every commit measures the same checks for a given --seconds.
PASS_SECONDS = {"battery": 1.0, "rational": 1.6, "wide-words": 1.2}

# Per-check deadline.  When the benchmark was written, the decided checks of
# every workload ended within 0.1 s and the rational gcd wall took 12 s and more.
DEADLINE_S = 2.0
SUITE_DEADLINE_S = 120.0
SUITE_ARGV = ["suite", "--max-n", "4"]


@dataclass
class Outcome:
    verdict: str  # holds | refuted | error
    defect: str | None = None
    witness: dict | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    kind: str
    label: str
    run: Callable[[], Outcome]
    verify: Callable[[Outcome], str | None]  # None when consistent, else why not


# ---------------------------------------------------------------------------
# Shared verification


def _witness_values(witness: dict) -> dict[str, str]:
    return {a["var"]: a["value"] for a in witness["assignments"]}


def _lookup(values: dict[str, str]) -> Callable[[str], Fraction]:
    def value(name: str) -> Fraction:
        if name not in values:
            raise KeyError(f"witness assigns no value to {name}")
        return Fraction(values[name])

    return value


def _random_values(rng: random.Random) -> Callable[[str], Fraction]:
    cache: dict[str, Fraction] = {}

    def value(name: str) -> Fraction:
        if name not in cache:
            cache[name] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return cache[name]

    return value


def check_witness(out: Outcome, defect_text: str | None = None) -> str | None:
    """A refuted outcome's witness must re-evaluate to its stated nonzero value."""
    if out.witness is None:
        return "refuted without a witness"
    stated = Fraction(out.witness["value"])
    if stated == 0:
        return "witness value is zero"
    got = known.evaluate_rendered(defect_text or out.defect, _lookup(_witness_values(out.witness)))
    return None if got == stated else f"witness re-evaluates to {got}, report says {stated}"


def judge(out: Outcome, expect: str | None, *, defect_text: str | None = None) -> str | None:
    """Compare a verdict with the known answer and re-check any witness."""
    if out.verdict == "error":
        return None
    if expect is not None and out.verdict != expect:
        return f"verdict {out.verdict}, known answer {expect}"
    if out.verdict == "refuted" and out.witness is not None:
        return check_witness(out, defect_text)
    return None


def generic_point_check(terms, n: int, rng: random.Random) -> Callable[[Outcome], str | None]:
    """Verdict rule plus the independent oracle for `dn check` at the
    generic point x1: the oracle's defect value must match the witness
    value, and vanish at a seeded point when the verdict is holds."""
    expect = _verdict(known.dn_member(terms, n))
    point_seed = rng.getrandbits(32)

    def verify(out: Outcome) -> str | None:
        why = judge(out, expect)
        if why or out.verdict == "error":
            return why
        if out.verdict == "refuted":
            value = _lookup(_witness_values(out.witness))
            stated = Fraction(out.witness["value"])
        else:
            value = _random_values(random.Random(point_seed))
            stated = Fraction(0)
        series = [value("x1"), Fraction(1)] + [Fraction(0)] * max(len(w) for _, w in terms)
        got = known.dn_defect_value(terms, n, series, lambda w: value(known.jet_name(w, "x1")))
        return None if got == stated else f"oracle gives {got}, report gives {stated}"

    return verify


def _verdict(member: bool | None) -> str | None:
    return None if member is None else ("holds" if member else "refuted")


# ---------------------------------------------------------------------------
# CLI checks


def cli_check(kind: str, argv: list[str], verify: Callable[[Outcome], str | None]) -> Check:
    from derivcover import cli

    def run() -> Outcome:
        report = cli.run(argv)
        # render the report as `main` does; rendering is part of the check
        report.to_json() if report.format == "json" else report.to_text()
        return Outcome(report.verdict, report.defect, report.witness, report.params)

    return Check(kind, " ".join(argv), run, verify)


def suite_check() -> Check:
    def verify(out: Outcome) -> str | None:
        if out.verdict != "holds" or out.params.get("failed") != "0":
            return f"suite verdict {out.verdict}, failed {out.params.get('failed')}"
        return None

    return cli_check("suite", SUITE_ARGV, verify)


def _combination_text(coeffs: list[int], bodies: list[str]) -> str:
    """Text of sum coeffs[i] * bodies[i]; a body of "1" is the constant."""
    parts = []
    for c, body in zip(coeffs, bodies):
        if c == 0:
            continue
        mag = abs(c)
        if body == "1":
            text = str(mag)
        elif body.startswith("1/"):
            text = f"{mag}{body[1:]}"
        else:
            text = body if mag == 1 else f"{mag}*{body}"
        parts.append(("-" if c < 0 else "+", text))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def _poly_text(coeffs: list[int], var: str) -> str:
    """Text of sum coeffs[d] * var^d, highest degree first."""
    bodies = ["1", var] + [f"{var}^{d}" for d in range(2, len(coeffs))]
    return _combination_text(coeffs[::-1], bodies[: len(coeffs)][::-1])


def coset_tuple(rng: random.Random, bodies: list[str], size: int, planted: bool) -> tuple[str, bool]:
    """Seeded tuple of combinations of `bodies` (basis functions that stay
    independent together with 1) plus a constant; returns the --funcs text
    and whether an affine relation exists.  A planted tuple's last entry is
    a combination of the others plus a constant."""
    vectors = []
    for _ in range(size - 1 if planted else size):
        vec = [0] * len(bodies)
        while not any(vec):
            vec = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in bodies]
        vectors.append(vec)
    if planted:
        mix = [rng.choice((1, -1, 2)) for _ in vectors]
        vectors.append([sum(m * v[j] for m, v in zip(mix, vectors)) for j in range(len(bodies))])
    related = known.coset_related(vectors)
    funcs = [_combination_text(vec + [rng.randint(-4, 4)], bodies + ["1"]) for vec in vectors]
    return ",".join(funcs), related


def coset_check(funcs: str, related: bool) -> Check:
    expect = "refuted" if related else "holds"
    return cli_check("coset check", ["coset", "check", "--funcs", funcs], lambda out: judge(out, expect))


# ---------------------------------------------------------------------------
# battery: the paper's certifications as a user runs them


# Words from default_test_set: two of length 1, three of length 2 and three
# of length 3, over alphabets of one to three letters.  With the test set's
# five seeded combinations they make the battery's operators.
BATTERY_WORDS = ["D1", "D3", "D1.D1", "D1.D2", "D3.D2", "D1.D1.D1", "D1.D2.D3", "D3.D1.D3"]


def battery_checks(rng: random.Random, op_texts: list[str]) -> list[Check]:
    """Every certification command at levels 1-4 on every given operator.
    The seed varies only the combinations, the coset tuples and the order,
    so every seed runs the same mix of sizes."""
    checks: list[Check] = []
    for n in range(1, 5):
        for text in op_texts:
            terms = known.parse_operator(text)
            expect = _verdict(known.dn_member(terms, n))
            args = ["--n", str(n), "--op", text]
            checks.append(cli_check("dn check", ["dn", "check"] + args, generic_point_check(terms, n, rng)))
            checks.append(cli_check("dn polarize", ["dn", "polarize"] + args, lambda out, e=expect: judge(out, e)))
            checks.append(cli_check("cover preserve", ["cover", "preserve"] + args,
                                    lambda out, e=expect: judge(out, e)))
    for text in op_texts:
        ring = _verdict(known.dn_member(known.parse_operator(text), 1))

        def ring_verify(out: Outcome, e=ring) -> str | None:
            # the defect renders as (base | fiber); the witness refers to the fiber
            fiber = out.defect[1:-1].split(" | ", 1)[1] if out.defect else None
            return judge(out, e, defect_text=fiber)

        checks.append(cli_check("cover ring-check", ["cover", "ring-check", "--op", text], ring_verify))
    for n in range(1, 5):
        oracle = generic_point_check([(Fraction(1), (1,) * (n + 1))], n, rng)

        def separation_verify(out: Outcome, oracle=oracle) -> str | None:
            if out.verdict != "error" and out.params.get("in_next_level") != "true":
                return "iterate not reported in the next level"
            return oracle(out)

        checks.append(cli_check("dn separation", ["dn", "separation", "--n", str(n)], separation_verify))
        checks.append(cli_check("dn subsum", ["dn", "subsum", "--n", str(n)], lambda out: judge(out, "holds")))
        checks.append(cli_check("cover reduct", ["cover", "reduct", "--n", str(n)], lambda out: judge(out, "holds")))
    checks.append(cli_check("cover psi-check", ["cover", "psi-check"], lambda out: judge(out, "holds")))
    for n in range(1, 9):
        checks.append(coset_check(",".join("t" if i == 1 else f"t^{i}" for i in range(1, n + 1)), False))
    for i in range(8):
        funcs, related = coset_tuple(rng, ["t", "t^2", "t^3"], 2 + i // 2 % 2, planted=i % 2 == 0)
        checks.append(coset_check(funcs, related))
    return checks


# ---------------------------------------------------------------------------
# rational: the Leibniz action at rational elements (gcd and exact division)


# Two elements per template: (numerator, denominator) coefficients of x1,
# lowest degree first.  A-D have linear denominators, Q1-Q2 quadratic.  The
# elements are fixed: gcd cost moves with every constant in them, and a seed
# that picked them would move the run's percentiles by a fifth.  The seed
# picks the points that verify each result, the coset tuples and the order.
RATIONAL_ELEMENTS = {
    "A": [([1], [1, 1]), ([3], [2, 1])],
    "B": [([1, 1], [-1, 1]), ([2, 1], [-2, 1])],
    "C": [([0, 1], [-1, 2]), ([0, 1], [-2, 3])],
    "D": [([1, 0, 1], [-1, 1]), ([2, 0, 1], [-2, 1])],
    "Q1": [([0, 1], [-2, 0, 1]), ([0, 1], [-3, 0, 1])],
    "Q2": [([1], [1, 0, 1]), ([1], [2, 0, 1])],
}


def element_text(num: list[int], den: list[int]) -> str:
    return f"({_poly_text(num, 'x1')})/({_poly_text(den, 'x1')})"


def api_check(kind: str, op_text: str, elem: tuple[list[int], list[int]], n: int, rng: random.Random) -> Check:
    """dn_defect (kind "dn_defect") or apply_operator at a rational element,
    cross-checked against the oracle at a seeded rational point."""
    from derivcover import dclass, jets, parse

    num, den = elem
    text = element_text(num, den)
    terms = known.parse_operator(op_text)
    expect = _verdict(known.dn_member(terms, n)) if kind == "dn_defect" else None
    point_seed = rng.getrandbits(32)

    def run() -> Outcome:
        # module attributes are looked up per call, so a traced run sees them
        op = parse.parse_operator(op_text)
        ctx = jets.JetContext(1, op.alphabet_span(), op.max_word_len())
        f = parse.parse_ratfunc(text, ctx, allow_new_vars=False)
        if kind == "dn_defect":
            value = dclass.dn_defect(ctx, op, n, f)
            return Outcome("holds" if value.is_zero() else "refuted", value.render())
        return Outcome("holds", jets.apply_operator(ctx, op, f).render())

    def verify(out: Outcome) -> str | None:
        if expect is not None and out.verdict != expect:
            return f"defect zero={out.verdict == 'holds'}, known answer {expect}"
        prng = random.Random(point_seed)
        x0 = Fraction(prng.randint(-30, 30), prng.randint(1, 7))
        while sum(c * x0**d for d, c in enumerate(den)) == 0:
            x0 += 1
        values = _random_values(prng)
        jet = lambda w: values(known.jet_name(w, "x1"))  # noqa: E731
        order = max(len(w) for _, w in terms)
        series = known.series_of_ratio(num, den, x0, order)
        if kind == "dn_defect":
            want = known.dn_defect_value(terms, n, series, jet)
        else:
            want = known.operator_value(terms, series, jet)
        got = known.evaluate_rendered(out.defect, lambda name: x0 if name == "x1" else values(name))
        return None if got == want else f"rendered value {got}, oracle {want}"

    return Check(kind, f"{kind} n={n} op={op_text} f={text}", run, verify)


# Levels of the dn_defect checks per element template.
RATIONAL_LEVELS = {"A": (1, 2), "B": (1, 2), "C": (1, 2), "D": (1,), "Q1": (1, 2), "Q2": (1,)}

# From default_test_set(seed=0): a length-1 word and two length-2 words, run
# at every level of every template, and a combination of two length-2 words
# and one of mixed lengths, run at level 1 on linear denominators only.  The
# combinations at level 2 or on quadratic denominators took 100-600 ms each
# when the benchmark was written, and a check that long rarely finishes within
# a quiet spell of a shared machine, so its best time swings from run to run.
RATIONAL_WORDS = ["D3", "D2.D3", "D3.D1"]
RATIONAL_COMBINATIONS = ["D2.D1 + 2*D3.D3", "-D3 + 2*D2.D3"]
LINEAR = ("A", "B", "C", "D")

# The gcd wall: Q1 at level 2 on the combination of two length-2 words runs
# for 12 s and more, while every other check here ends within 0.1 s.
WALL = ("Q1", "D2.D1 + 2*D3.D3", 2)

# Bodies of the coset tuples.  Like the elements they are fixed, and every
# seed makes tuples of the same sizes; the seed picks the coefficients.
PARTIAL_FRACTIONS = ["t^2", "1/(t - 1)", "1/(t + 2)^2", "t/(t^2 - 3)"]


def rational_checks(rng: random.Random) -> list[Check]:
    """dn_defect and apply_operator at two elements per template, on
    operators of the test set at levels 1-2, the gcd wall, and coset checks
    on seeded partial-fraction tuples."""
    checks: list[Check] = []
    for name, elems in RATIONAL_ELEMENTS.items():
        for elem in elems:
            for text in RATIONAL_WORDS + (RATIONAL_COMBINATIONS if name in LINEAR else []):
                for n in RATIONAL_LEVELS[name] if text in RATIONAL_WORDS else (1,):
                    checks.append(api_check("dn_defect", text, elem, n, rng))
                checks.append(api_check("apply_operator", text, elem, 1, rng))
    name, text, n = WALL
    checks.append(api_check("dn_defect", text, RATIONAL_ELEMENTS[name][0], n, rng))
    for i in range(4):
        funcs, related = coset_tuple(rng, PARTIAL_FRACTIONS, 2 + i // 2, planted=i % 2 == 0)
        checks.append(coset_check(funcs, related))
    return checks


# ---------------------------------------------------------------------------
# wide-words: distinct-letter words, bound by jet tables and witness search

# Distinct words per length; all words of one length cost about the same.
# The refuted length-5 checks set the tail; length 7 hits the eager table's
# capacity wall.  Length 6 is left out: its checks took 280 and 650 ms, too
# long to time steadily on a shared machine; the sweep (--sweep) covers it.
WIDE_WORDS = {4: 12, 5: 16, 7: 2}


def wide_words_checks(rng: random.Random) -> list[Check]:
    checks: list[Check] = []
    for k, count in WIDE_WORDS.items():
        words: set[tuple[int, ...]] = set()
        while len(words) < count:
            words.add(tuple(rng.sample(range(1, k + 1), k)))
        for word in sorted(words):
            text = known.word_text(word)
            terms = [(Fraction(1), word)]
            for n in (k, k - 1):
                argv = ["dn", "check", "--n", str(n), "--max-n", "8", "--op", text]
                checks.append(cli_check("dn check", argv, generic_point_check(terms, n, rng)))
    return checks


# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Check]:
    """The workload's distinct checks; the same seed gives the same checks.

    The seed picks the inputs.  Witness searches run with the CLI's default
    seed, as a user runs them, so the work per check does not depend on it.
    """
    from derivcover.dclass import default_test_set

    rng = random.Random(f"{workload}:{seed}")
    if workload == "battery":
        combos = [op.render() for op in default_test_set(seed=seed) if len(op.terms) > 1]
        return battery_checks(rng, BATTERY_WORDS + combos)
    if workload == "rational":
        return rational_checks(rng)
    if workload == "wide-words":
        return wide_words_checks(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(PASS_SECONDS)
