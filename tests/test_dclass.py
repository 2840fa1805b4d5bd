"""Membership defects, polarization, parity extraction, separation witnesses.

Hand-expansion oracles used below (single letter D, one generator x):
    D(x^2)   = 2x Dx
    D.D(x^2) = 2(Dx)^2 + 2x D.Dx
    D.D(x^3) = 6x(Dx)^2 + 3x^2 D.Dx
so the level-1 defect of D.D at x is
    D.D(x^2) - 2x D.Dx = 2(Dx)^2,
and the level-2 defect of D.D at x is
    D.D(x^3) - (-3x^2 D.Dx + 3x D.D(x^2)) = 0.
The multilinear level-1 defect of D.D is
    D.D(x1 x2) - x2 D.D(x1) - x1 D.D(x2) = 2 D(x1) D(x2).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from derivcover.dclass import (
    default_test_set,
    dn_defect,
    find_witness,
    inductive_subsum,
    is_in_dn,
    odd_extraction_check,
    polarization_defect,
    probe_zero,
)
from derivcover.errors import PreconditionError
from derivcover.jets import JetContext, Operator, apply_operator
from derivcover.poly import MPoly, RatFunc


D = Operator.letter(0)
DD = Operator.word((0, 0))


def test_single_letter_is_order_one():
    ctx = JetContext(1, 1, 1)
    assert dn_defect(ctx, D, 1, ctx.gen(0)).is_zero()


def test_twofold_word_defect_at_level_one():
    ctx = JetContext(1, 1, 2)
    defect = dn_defect(ctx, DD, 1, ctx.gen(0))
    dx = ctx.jet(0, (0,))
    assert defect.as_poly() == MPoly.from_terms(ctx, [(((dx, 2),), Fraction(2))])


def test_twofold_word_vanishes_at_level_two():
    ctx = JetContext(1, 1, 2)
    assert dn_defect(ctx, DD, 2, ctx.gen(0)).is_zero()


def test_membership_verdicts():
    assert is_in_dn(D, 1).in_dn
    for n in range(1, 6):
        verdict = is_in_dn(Operator.word((0,) * (n + 1)), n)
        assert not verdict.in_dn
        assert verdict.witness is not None
        assignment, value = verdict.witness
        assert value != 0
        assert verdict.defect.evaluate(assignment) == value


def test_length_two_word_in_level_three():
    # a two-letter word lies in the order-2 class, hence in order 3
    verdict = is_in_dn(Operator.word((0, 1)), 3)
    assert verdict.in_dn
    assert verdict.defect.is_zero()


def test_polarization_of_single_letter():
    assert polarization_defect(D, 1).is_zero()


def test_polarization_of_twofold_word():
    defect = polarization_defect(DD, 1)
    # fresh context inside: gens x1=0, x2=1, then D1(x1)=2, D1(x2)=3, ...
    expected = [(((2, 1), (3, 1)), Fraction(2))]
    assert defect.as_poly().sorted_terms() == expected
    assert polarization_defect(DD, 2).is_zero()


def test_polarization_matches_diagonal():
    # assigning every generator the same value per derivation word amounts to
    # substituting x2 = x1, which turns the multilinear defect into the
    # one-variable defect
    op = Operator.from_terms([((0, 0), Fraction(1)), ((1,), Fraction(2))])
    pd = polarization_defect(op, 1)
    ctx = pd.reg
    rng = random.Random(3)
    merged: dict = {}
    point = {}
    for v in ctx.symbols():
        key = ctx.word_of(v)  # None for the generators themselves
        if key not in merged:
            merged[key] = Fraction(rng.randint(-5, 5))
        point[v] = merged[key]
    ctx1 = JetContext(1, op.alphabet_span(), op.max_word_len())
    d1 = dn_defect(ctx1, op, 1, ctx1.gen(0))
    point1 = {v: merged[ctx1.word_of(v)] for v in ctx1.symbols()}
    assert pd.evaluate(point) == d1.evaluate(point1)


def test_odd_extraction_for_members():
    assert odd_extraction_check(D, 1)
    assert odd_extraction_check(DD, 2)
    assert odd_extraction_check(Operator.word((0, 1)), 2)


def test_odd_extraction_rejects_nonmembers():
    with pytest.raises(PreconditionError):
        odd_extraction_check(DD, 1)


def test_inductive_subsum_vanishes():
    for n in range(1, 5):
        assert inductive_subsum(n).is_zero()


def test_separation_witness_level_one():
    assignment, value = is_in_dn(DD, 1).witness
    # defect 2(Dx)^2: Dx=1 is its first nonroot, x=0 and D.Dx=0 as they do not occur
    assert value == 2
    ctx_vars = sorted(assignment)
    assert [assignment[v] for v in ctx_vars] == [0, 1, 0]


def test_separation_witness_higher_levels():
    for n in (2, 4):
        op = Operator.word((0,) * (n + 1))
        assignment, value = is_in_dn(op, n).witness
        assert value != 0
        ctx = JetContext(1, 1, n + 1)
        defect = dn_defect(ctx, op, n, ctx.gen(0))
        assert defect.evaluate(assignment) == value


def test_defect_linearity_in_the_operator():
    rng = random.Random(9)
    ctx = JetContext(1, 2, 4)
    x = ctx.gen(0)
    words = [(0,), (1,), (0, 1), (1, 0), (0, 0)]
    for _ in range(20):
        F = Operator.word(rng.choice(words))
        G = Operator.word(rng.choice(words))
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        n = rng.randint(1, 3)
        combo = dn_defect(ctx, a * F + b * G, n, x)
        split = dn_defect(ctx, F, n, x).scale(a) + dn_defect(ctx, G, n, x).scale(b)
        assert combo == split


def test_word_inclusion_up_to_level_four():
    from itertools import permutations

    for length in (1, 2, 3, 4):
        for word in permutations(range(4), length):
            op = Operator.word(word)
            for n in range(length, 5):
                assert is_in_dn(op, n).in_dn
            assert is_in_dn(op, 5).in_dn


def test_distinct_word_of_length_seven():
    op = Operator.word(range(7))
    assert is_in_dn(op, 7).in_dn
    verdict = is_in_dn(op, 6)
    assert not verdict.in_dn
    assignment, value = verdict.witness
    assert value != 0
    assert verdict.defect.evaluate(assignment) == value


def test_strictness_ladder():
    for n in range(1, 6):
        op = Operator.word((0,) * (n + 1))
        assert not is_in_dn(op, n).in_dn
        assert is_in_dn(op, n + 1).in_dn


def test_polarization_iff_on_test_set():
    for op in default_test_set():
        for n in (1, 2, 3):
            member = is_in_dn(op, n).in_dn
            assert member == polarization_defect(op, n).is_zero()


def test_probe_agrees_with_symbolic_verdicts():
    for op in default_test_set()[:20]:
        for n in (1, 2):
            defect = is_in_dn(op, n).defect
            assert probe_zero(defect) == defect.is_zero()


def test_find_witness_determinism():
    ctx = JetContext(1, 1, 2)
    defect = dn_defect(ctx, DD, 1, ctx.gen(0))
    assert find_witness(defect) == find_witness(defect)


def _degree_in(p, v):
    return max((e for mono, _ in p.sorted_terms() for w, e in mono if w == v), default=0)


def test_witnesses_are_built_on_the_grid():
    # every value is an integer in 0..deg_v of the defect, as constructed
    cases = [(op, n) for op in default_test_set() for n in (1, 2, 3)]
    cases += [(Operator.word(range(k)), k - 1) for k in range(2, 7)]
    refuted = 0
    for op, n in cases:
        verdict = is_in_dn(op, n)
        if verdict.in_dn:
            continue
        refuted += 1
        defect = verdict.defect
        assignment, value = verdict.witness
        assert sorted(assignment) == defect.reg.symbols()
        assert value != 0 and defect.evaluate(assignment) == value
        for v, x in assignment.items():
            degree = _degree_in(defect.num, v) + _degree_in(defect.den, v)
            assert x.denominator == 1 and 0 <= x <= degree, (op.render(), n)
    assert refuted > 20


def test_witness_skips_the_roots_below_the_degree():
    ctx = JetContext(1, 1, 1)
    dx = ctx.jet(0, (0,))
    defect = RatFunc.const(ctx, 1)
    for a in range(-3, 4):
        defect = defect * (RatFunc.var(ctx, dx) - RatFunc.const(ctx, a))
    assignment, value = find_witness(defect)
    assert assignment == {ctx.gens[0]: 0, dx: 4}
    assert value == 5040


def test_zero_defect_has_no_witness():
    ctx = JetContext(1, 1, 2)
    with pytest.raises(PreconditionError):
        find_witness(dn_defect(ctx, D, 1, ctx.gen(0)))


def test_probe_zero_at_a_pole():
    ctx = JetContext(1, 1, 1)
    f = RatFunc.const(ctx, 1) / ctx.gen(0)
    assert probe_zero(f, seed=110) is False
    assert not any(probe_zero(f, seed=seed) for seed in range(400))
    assert probe_zero(f - f, seed=110)


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        is_in_dn(D, 0)
    with pytest.raises(ValueError):
        inductive_subsum(0)
    with pytest.raises(ValueError):
        polarization_defect(D, 0)


def expanded_polarization_defect(op, n):
    """F(x1...x_{n+1}) - sum_k (-1)^(k+1) sum_{|T|=k} x_T F(x_{T^c}), term by term."""
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    xs = [ctx.gen(i) for i in range(n + 1)]
    one = RatFunc.const(ctx, 1)
    rhs = RatFunc.zero(ctx)
    for k in range(1, n + 1):
        for chosen in combinations(range(n + 1), k):
            x_t = math.prod((xs[i] for i in chosen), start=one)
            rest = math.prod((xs[i] for i in range(n + 1) if i not in chosen), start=one)
            rhs = rhs + (x_t * apply_operator(ctx, op, rest)).scale((-1) ** (k + 1))
    return apply_operator(ctx, op, math.prod(xs, start=one)) - rhs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polarization_defect_matches_the_expansion(seed):
    for op in default_test_set(seed=seed):
        for n in (1, 2, 3):
            expected = expanded_polarization_defect(op, n).render()
            assert polarization_defect(op, n).render() == expected, (op.render(), n)
