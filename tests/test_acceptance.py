"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every assertion is bit-exact rational equality.  Criteria 1-6 collect the
defects they compute; criterion 9 replays all of them through the randomized
evaluation oracle.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import permutations

from derivcover.cosets import coset_free_powers
from derivcover.cover import (
    psi_defines_otimes,
    rn_preservation,
    rn_reduct_check,
    sigma_ring_check,
)
from derivcover.dclass import (
    default_test_set,
    inductive_subsum,
    is_in_dn,
    odd_extraction_check,
    polarization_defect,
    probe_zero,
)
from derivcover.jets import Operator

D = Operator.word((0,))

# (defect, symbolically zero) pairs accumulated by criteria 1-6
_collected = []


def note(defect):
    _collected.append((defect, defect.is_zero()))


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s < {limit_seconds}s)")


def test_criterion_1_derivation_characterization():
    with criterion(1, "derivation characterization", 1.0):
        verdict = is_in_dn(D, 1)
        polar = polarization_defect(D, 1)
        note(verdict.defect)
        note(polar)
        assert verdict.in_dn
        assert polar.is_zero()


def test_criterion_2_word_inclusion():
    with criterion(2, "word inclusion", 60.0):
        for length in (1, 2, 3, 4):
            for word in permutations(range(4), length):
                op = Operator.word(word)
                for n in range(length, 5):
                    for level in (n, n + 1):
                        verdict = is_in_dn(op, level)
                        note(verdict.defect)
                        assert verdict.in_dn, (word, level)


def test_criterion_3_strict_separation():
    with criterion(3, "strict separation", 120.0):
        for n in range(1, 6):
            op = Operator.word((0,) * (n + 1))
            low = is_in_dn(op, n)
            high = is_in_dn(op, n + 1)
            note(low.defect)
            note(high.defect)
            assert not low.in_dn, n
            assert high.in_dn, n
            assignment, value = low.witness
            assert value != 0
            assert low.defect.evaluate(assignment) == value


def test_criterion_4_polarization_equivalence():
    with criterion(4, "polarization equivalence", 60.0):
        for op in default_test_set():
            for n in (1, 2, 3):
                member = is_in_dn(op, n)
                polar = polarization_defect(op, n)
                note(member.defect)
                note(polar)
                assert member.in_dn == polar.is_zero(), (op.render(), n)
                assert odd_extraction_check(op, n), (op.render(), n)


def test_criterion_5_inductive_subsum():
    with criterion(5, "inductive subsum", 30.0):
        for n in range(1, 5):
            total = inductive_subsum(n)
            note(total)
            assert total.is_zero(), n


def test_criterion_6_cover_equivalence():
    with criterion(6, "cover equivalence", 60.0):
        for op in default_test_set():
            for n in (1, 2, 3, 4):
                pres = rn_preservation(op, n)
                member = is_in_dn(op, n)
                note(pres.defect)
                assert pres.in_dn == member.in_dn, (op.render(), n)


def test_criterion_7_definability():
    with criterion(7, "definability", 10.0):
        assert psi_defines_otimes()
        for n in (1, 2, 3):
            assert rn_reduct_check(n), n
        assert sigma_ring_check(D)
        assert not sigma_ring_check(Operator.word((0, 0)))


def test_criterion_8_coset_freeness():
    from derivcover.suite import coset_oracle_agreement

    with criterion(8, "coset freeness", 30.0):
        for n in range(1, 9):
            assert coset_free_powers(n), n
        agree, detail = coset_oracle_agreement(seed=0)
        assert agree, detail


def test_criterion_9_cross_check_oracle():
    with criterion(9, "cross-check oracle", 120.0):
        assert len(_collected) > 400
        for defect, symbolic_zero in _collected:
            assert probe_zero(defect) == symbolic_zero


def test_criterion_10_suite_determinism():
    with criterion(10, "suite determinism", 300.0):
        cmd = [
            sys.executable,
            "-m",
            "derivcover.cli",
            "suite",
            "--max-n",
            "4",
            "--format",
            "json",
            "--seed",
            "0",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, first.stdout.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert b'"verdict": "holds"' in first.stdout
