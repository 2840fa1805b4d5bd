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


def battery(max_n: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run every certification up to the requested level; returns
    (name, passed, detail) triples.  Deterministic for a fixed seed."""
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    results: list[tuple[str, bool, str]] = []
    collected: list[tuple[RatFunc, bool]] = []

    def note(defect: RatFunc) -> None:
        collected.append((defect, defect.is_zero()))

    decided: dict[tuple[str, int], dclass.MembershipVerdict] = {}

    def member(op: Operator, n: int) -> dclass.MembershipVerdict:
        """is_in_dn(op, n), decided and noted once per (operator, level)."""
        key = (op.render(), n)
        if key not in decided:
            decided[key] = is_in_dn(op, n)
            note(decided[key].defect)
        return decided[key]

    def record(name: str, failures: list[str]) -> None:
        results.append((name, not failures, failures[-1] if failures else ""))

    delta = Operator.letter(0)

    # 1: level-1 membership is the Leibniz rule
    d1 = member(delta, 1)
    p1 = polarization_defect(delta, 1)
    note(p1)
    record("derivation-characterization", [] if d1.in_dn and p1.is_zero() else [""])

    # 2: words over distinct letters stay in every class from their length up
    failures = []
    for length in range(1, min(4, max_n) + 1):
        for word in permutations(range(4), length):
            op = Operator.word(word)
            for level in range(length, min(4, max_n) + 2):
                if not member(op, level).in_dn:
                    failures.append(f"{op.render()} escaped level {level}")
    record("word-inclusion", failures)

    # 3: the (n+1)-fold iterate separates consecutive classes
    failures = []
    for n in range(1, min(5, max_n) + 1):
        op = Operator.word((0,) * (n + 1))
        low = member(op, n)
        high = member(op, n + 1)
        witness_ok = (
            low.witness is not None
            and low.defect.evaluate(low.witness[0]) == low.witness[1] != 0
        )
        if low.in_dn or not high.in_dn or not witness_ok:
            failures.append(f"separation failed at level {n}")
    record("strict-separation", failures)

    # 4: one-variable identity holds iff the multilinear identity holds
    failures = []
    ops = default_test_set(seed=seed)
    for op in ops:
        for n in range(1, min(3, max_n) + 1):
            in_dn = member(op, n).in_dn
            pdef = polarization_defect(op, n)
            note(pdef)
            if in_dn != pdef.is_zero():
                failures.append(f"equivalence failed for {op.render()} at level {n}")
            elif in_dn and not dclass.odd_extraction_check(op, n):
                failures.append(
                    f"parity extraction failed for {op.render()} at level {n}"
                )
    record("polarization-equivalence", failures)

    # 5: the cross-term subsum vanishes
    failures = []
    for n in range(1, min(4, max_n) + 1):
        total = inductive_subsum(n)
        note(total)
        if not total.is_zero():
            failures.append(f"subsum nonzero at level {n}")
    record("inductive-subsum", failures)

    # 6: relation preservation on the cover agrees with class membership
    failures = []
    for op in ops:
        for n in range(1, min(4, max_n) + 1):
            pres = cover.rn_preservation(op, n)
            note(pres.defect)
            if pres.in_dn != member(op, n).in_dn:
                failures.append(f"cover disagreement for {op.render()} at level {n}")
    record("cover-equivalence", failures)

    # 7: definability of the product and of the level-n relation
    ok = (
        cover.psi_defines_otimes()
        and all(cover.rn_reduct_check(n) for n in range(1, min(3, max_n) + 1))
        and cover.sigma_ring_check(delta)
        and not cover.sigma_ring_check(Operator.word((0, 0)))
    )
    record("definability", [] if ok else [""])

    # 8: power tuples lie on no affine line over the constants
    failures = [] if all(cosets.coset_free_powers(n) for n in range(1, 9)) else [""]
    agree, detail = coset_oracle_agreement(seed=seed)
    record("coset-freeness", failures if agree else failures + [detail])

    # 9: every symbolic verdict above survives randomized evaluation
    failures = []
    for idx, (defect, symbolic_zero) in enumerate(collected):
        if probe_zero(defect, seed=seed) != symbolic_zero:
            failures.append(f"probe disagreed with symbolic verdict #{idx}")
    record("cross-check-oracle", failures)

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
