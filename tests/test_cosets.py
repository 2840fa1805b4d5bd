"""Affine-relation detection against an independent exhaustive oracle.

The test-side oracle enumerates candidate leading coefficients in a box and
checks the defining equation with exact field arithmetic; the constant is
forced by the candidates, never searched.  It is complete only within its
box, which is all the completeness the small-instance comparison needs.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from derivcover.cosets import AffineRelation, affine_relation, coset_free_powers
from derivcover.parse import parse_func_list
from derivcover.poly import MPoly, RatFunc, VarRegistry
from derivcover.suite import _has_relation, coset_oracle_agreement

from helpers import random_poly


def brute_relation(funcs, span=5):
    """Exhaustive oracle: integer relations with every entry, including the
    forced constant, inside [-span, span].  Returns a witness or None."""
    n = len(funcs)
    for eps in product(range(-span, span + 1), repeat=n):
        if all(e == 0 for e in eps):
            continue
        total = RatFunc.zero(funcs[0].reg)
        for e, f in zip(eps, funcs):
            total = total + f.scale(e)
        if not (total.num.is_constant() and total.den.is_one()):
            continue
        const = total.num.constant_value()
        if const.denominator == 1 and abs(const) <= span:
            return eps, const
    return None


def funcs_from(text):
    return parse_func_list(text)


def test_constructed_relation_found():
    rel = affine_relation(funcs_from("t,2*t+3"))
    # 2t - (2t+3) = -3, normalized to a leading coefficient of 1
    assert rel == AffineRelation((Fraction(1), Fraction(-1, 2)), Fraction(-3, 2))


def test_power_pair_is_free():
    assert affine_relation(funcs_from("t,t^2")) is None


def test_reciprocal_pair_is_free():
    funcs = funcs_from("t,1/t")
    assert affine_relation(funcs) is None
    # brute-force cross-check: e1*t + e2/t = c clears to e1*t^2 - c*t + e2 = 0,
    # which kills all three coefficients
    assert brute_relation(funcs) is None
    assert not _has_relation(funcs)


def test_single_constant_function_has_relation():
    rel = affine_relation(funcs_from("5"))
    assert rel == AffineRelation((Fraction(1),), Fraction(5))


def test_single_transcendental_is_free():
    assert affine_relation(funcs_from("t")) is None


def test_power_tuples_are_free():
    for n in (1, 3, 8):
        assert coset_free_powers(n)


def test_returned_relations_hold_exactly():
    rng = random.Random(11)
    reg = VarRegistry()
    t = reg.add_generator("t")
    for _ in range(60):
        funcs = [
            RatFunc.from_poly(random_poly(rng, reg, (t,), max_terms=3, max_exp=3, span=2))
            for _ in range(rng.randint(1, 3))
        ]
        rel = affine_relation(funcs)
        if rel is None:
            continue
        assert any(c != 0 for c in rel.coefficients)
        first = next(c for c in rel.coefficients if c != 0)
        assert first == 1
        total = RatFunc.zero(reg)
        for c, f in zip(rel.coefficients, funcs):
            total = total + f.scale(c)
        assert (total - rel.constant).is_zero()


def test_agreement_with_exhaustive_oracle():
    rng = random.Random(0)
    reg = VarRegistry()
    t = reg.add_generator("t")
    for _ in range(80):
        funcs = [
            RatFunc.from_poly(random_poly(rng, reg, (t,), max_terms=3, max_exp=3, span=2))
            for _ in range(rng.randint(1, 2))
        ]
        assert (affine_relation(funcs) is not None) == (brute_relation(funcs) is not None)


def test_oracle_never_beats_the_solver():
    # one-sided completeness: anything the box search finds, the solver finds
    rng = random.Random(12)
    reg = VarRegistry()
    t = reg.add_generator("t")
    for _ in range(40):
        funcs = [
            RatFunc.from_poly(random_poly(rng, reg, (t,), max_terms=4, max_exp=3, span=2))
            for _ in range(3)
        ]
        if brute_relation(funcs, span=3) is not None:
            assert affine_relation(funcs) is not None


def test_solver_finds_relations_outside_small_boxes():
    # minimal integer relations can escape a [-5, 5] box even for tiny inputs;
    # the exact solver and the suite's exact oracle are not box-limited
    # (regression for three such tuples)
    cases = [
        "t^3-2*t^2-t, 2*t^3-2*t^2-2*t, -2*t^3-t^2+2*t-2",
        "2*t^2+1, 2*t^3+2*t^2-t-2, -2*t^3+t^2+t-1",
        "t^3-2*t^2-2*t-2, 2*t^3-2*t^2-2*t+2, -2*t^2-2*t+1",
    ]
    for text in cases:
        funcs = funcs_from(text)
        rel = affine_relation(funcs)
        assert rel is not None
        total = RatFunc.zero(funcs[0].reg)
        for c, f in zip(rel.coefficients, funcs):
            total = total + f.scale(c)
        assert (total - rel.constant).is_zero()
        assert _has_relation(funcs)
        assert brute_relation(funcs, span=5) is None
        assert brute_relation(funcs, span=12) is not None


@pytest.mark.parametrize("seed", range(8))
def test_suite_oracle_agrees_with_solver(seed):
    assert coset_oracle_agreement(seed=seed) == (True, "")


def test_suite_oracle_takes_one_variable():
    with pytest.raises(ValueError):
        _has_relation(funcs_from("x,y"))


def test_verdict_invariant_under_permutation_and_shift():
    rng = random.Random(13)
    reg = VarRegistry()
    t = reg.add_generator("t")
    for _ in range(30):
        funcs = [
            RatFunc.from_poly(random_poly(rng, reg, (t,), max_terms=3, max_exp=2, span=2))
            for _ in range(3)
        ]
        base = affine_relation(funcs) is not None
        shuffled = list(funcs)
        rng.shuffle(shuffled)
        assert (affine_relation(shuffled) is not None) == base
        shifted = [funcs[0] + 7] + funcs[1:]
        assert (affine_relation(shifted) is not None) == base


def test_empty_tuple_rejected():
    with pytest.raises(ValueError):
        affine_relation([])
