"""The certification battery behind `derivcover suite`, and the exact
evaluation-rank coset oracle it checks the affine-relation solver against.

Each check collects a description of every failure it sees; it passes when
it collected none, and otherwise reports the last.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from . import cosets, cover, dclass
from .dclass import (
    default_test_set,
    inductive_subsum,
    is_in_dn,
    polarization_defect,
    probe_zero,
)
from .jets import Operator
from .poly import MPoly, RatFunc, VarRegistry

ORACLE_SAMPLES = 200  # random polynomial tuples the coset oracle compares


def battery(max_n: int, seed: int) -> list[tuple[str, bool, str, str]]:
    """Run the certification battery at every level 1..max_n, for max_n from
    1 to DEFAULT_LEVEL_CAP; returns (name, passed, detail, scope) quadruples,
    deterministic for a fixed seed.  scope says what a check ran, such as
    `levels 1-5, 64 words` (checks 2 and 3 also decide level max_n + 1), or
    `208 tuples`.  Check 2's words over distinct letters grow like max_n!.
    Check 9 probes each defect that no witness settles."""
    if not 1 <= max_n <= dclass.DEFAULT_LEVEL_CAP:
        bound = ">= 1" if max_n < 1 else f"<= {dclass.DEFAULT_LEVEL_CAP}"
        raise ValueError(f"need max_n {bound}")
    results: list[tuple[str, bool, str, str]] = []
    unwitnessed: list[RatFunc] = []
    decided: dict[tuple[frozenset, int], dclass.MembershipVerdict] = {}

    def member(op: Operator, n: int) -> dclass.MembershipVerdict:
        """is_in_dn(op, n), decided once per (operator, level)."""
        key = (frozenset(op.terms.items()), n)
        if key not in decided:
            decided[key] = is_in_dn(op, n)
        return decided[key]

    def record(name: str, failures: list[str], count: int, what: str, top: int = 0) -> None:
        span = f"levels 1-{top}, " if top > 1 else "level 1, " if top else ""
        scope = f"{span}{count} {what}{'s' * (count != 1)}"
        results.append((name, not failures, failures[-1] if failures else "", scope))

    delta = Operator.word((0,))
    levels = range(1, max_n + 1)

    # 1: level-1 membership is the Leibniz rule
    d1 = member(delta, 1)
    p1 = polarization_defect(delta, 1)
    unwitnessed.append(p1)
    ok = d1.in_dn and p1.is_zero()
    record("derivation-characterization", [] if ok else [""], 1, "operator", 1)

    # 2: words over distinct letters stay in every class from their length up
    failures = []
    words = [w for k in levels for w in permutations(range(max(4, k)), k)]
    for word in words:
        op = Operator.word(word)
        for level in range(len(word), max_n + 2):
            if not member(op, level).in_dn:
                failures.append(f"{op.render()} escaped level {level}")
    record("word-inclusion", failures, len(words), "word", max_n + 1)

    # 3: the (n+1)-fold iterate separates consecutive classes
    failures = []
    for n in levels:
        op = Operator.word((0,) * (n + 1))
        low = member(op, n)
        high = member(op, n + 1)
        if low.in_dn or not high.in_dn or low.witness[1] == 0:
            failures.append(f"separation failed at level {n}")
    record("strict-separation", failures, max_n, "operator", max_n + 1)

    # 4: one-variable iff multilinear identity, two closed forms of _blocks'
    # part (so identity terms, products and deals); the parity extraction's
    # Leibniz side, on every pair, is all that can see a fault in _blocks
    failures = []
    ops = default_test_set(seed=seed)
    for op in ops:
        for n in levels:
            in_dn = member(op, n).in_dn
            pdef = polarization_defect(op, n)
            unwitnessed.append(pdef)
            if in_dn != pdef.is_zero():
                failures.append(f"equivalence failed for {op.render()} at level {n}")
            elif not dclass.odd_extraction_check(op, n):
                failures.append(
                    f"parity extraction failed for {op.render()} at level {n}"
                )
    record("polarization-equivalence", failures, len(ops), "operator", max_n)

    # 5: the cross-term subsum vanishes
    failures = []
    for n in levels:
        total = inductive_subsum(n)
        unwitnessed.append(total)
        if not total.is_zero():
            failures.append(f"subsum nonzero at level {n}")
    record("inductive-subsum", failures, max_n, "sum", max_n)

    # 6: relation preservation on the cover agrees with class membership
    failures = []
    for op in ops:
        for n in levels:
            pres = cover.rn_preservation(op, n)
            if pres.in_dn != member(op, n).in_dn:
                failures.append(f"cover disagreement for {op.render()} at level {n}")
    record("cover-equivalence", failures, len(ops), "operator", max_n)

    # 7: definability of the product and of the level-n relation
    ok = (
        cover.psi_defines_otimes()
        and all(cover.rn_reduct_check(n) for n in levels)
        and cover.sigma_ring_check(delta)
        and not cover.sigma_ring_check(Operator.word((0, 0)))
    )
    record("definability", [] if ok else [""], 2, "operator", max_n)

    # 8: power tuples lie on no affine line over the constants
    failures = [] if all(cosets.coset_free_powers(n) for n in range(1, 9)) else [""]
    agree, detail = coset_oracle_agreement(seed=seed)
    failures += [] if agree else [detail]
    record("coset-freeness", failures, 8 + ORACLE_SAMPLES, "tuple")

    # 9: randomized evaluation agrees with each verdict that no witness settles
    # (MembershipVerdict's defect is zero, or nonzero at its witness)
    failures = []
    for idx, defect in enumerate(unwitnessed):
        if probe_zero(defect, seed=seed) != defect.is_zero():
            failures.append(f"probe disagreed with symbolic verdict #{idx}")
    record("cross-check-oracle", failures, len(unwitnessed), "defect")

    return results


def coset_oracle_agreement(*, seed: int) -> tuple[bool, str]:
    """Compare the exact solver against the evaluation-rank oracle, on random
    small polynomial tuples."""
    rng = random.Random(seed)
    for case in range(ORACLE_SAMPLES):
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
        if solver != _has_relation(funcs):
            return False, f"solver/oracle mismatch on case {case}"
    return True, ""


def _has_relation(funcs: Sequence[RatFunc]) -> bool:
    """Exact test for e0 + e1*f1 + ... + en*fn = 0, e1..en not all zero, over
    rational functions of one variable.

    With D the product of the denominators, D and each fj*D have degree at most
    d = max deg(num_j) + sum deg(den_j); evaluation at d+1 distinct points is
    injective on them, and scaling a row by D(t_k) != 0 keeps the rank.  So a
    relation exists exactly when the rows (1, f1, ..., fn) at d+1 points off
    the poles have rank below n+1, that is, when elimination leaves some
    column without a pivot (e1..en all zero would force e0 = 0).
    """
    ts = {v for f in funcs for p in (f.num, f.den) for v in p.variables()}
    if len(ts) > 1:
        raise ValueError("the coset oracle takes functions of one variable")
    d = max(f.num.total_degree() for f in funcs)
    d += sum(f.den.total_degree() for f in funcs)
    rows, point = [], 0
    while len(rows) <= d:
        at = dict.fromkeys(ts, Fraction(point))
        dens = [f.den.evaluate(at) for f in funcs]
        if 0 not in dens:
            values = [f.num.evaluate(at) / q for f, q in zip(funcs, dens)]
            rows.append([Fraction(1), *values])
        point += 1
    for c in range(len(funcs) + 1):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            return True
        rows.remove(pivot)
        rows = [[a - r[c] / pivot[c] * b for a, b in zip(r, pivot)] for r in rows]
    return False
