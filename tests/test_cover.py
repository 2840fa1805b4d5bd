"""Additive cover structure: lifted ring, projection, relation, automorphism moves.

Hand oracles:
    (t, a') ⊗ (t, a') = (t^2, 2t a')          (pair product squares)
    level-1 relation: second fiber must equal 2 * base * first fiber
    move of D on (t, 0): (t, Dt)
    ring defect of D.D at generic a, b has fiber 2 D(alpha) D(beta), matching
    the multilinear level-1 defect of D.D.
"""

from fractions import Fraction

import pytest

from derivcover.cover import (
    CoverPoint,
    generic_rn_point,
    ominus,
    oplus,
    otimes,
    otimes_power,
    pi,
    psi_defines_otimes,
    rn_holds,
    rn_preservation,
    rn_reduct_check,
    scalar,
    sigma,
    sigma_ring_check,
    sigma_ring_defect,
    star,
)
from derivcover.dclass import default_test_set, is_in_dn, polarization_defect
from derivcover.errors import ArityError, ContextMismatchError
from derivcover.jets import JetContext, Operator
from derivcover.poly import RatFunc


D = Operator.letter(0)
DD = Operator.word((0, 0))


def plain_points():
    ctx = JetContext(4)
    a = CoverPoint(ctx.gen(0), ctx.gen(1))
    b = CoverPoint(ctx.gen(2), ctx.gen(3))
    return ctx, a, b


def test_componentwise_group_ops():
    ctx = JetContext(1)
    t = ctx.gen(0)
    p = CoverPoint(t, RatFunc.zero(ctx))
    q = CoverPoint(RatFunc.const(ctx, 1), RatFunc.const(ctx, 5))
    s = oplus(p, q)
    assert s.base == t + RatFunc.const(ctx, 1) and s.fiber == RatFunc.const(ctx, 5)
    z = ominus(p, p)
    assert z.base.is_zero() and z.fiber.is_zero()
    half = scalar(Fraction(1, 2), CoverPoint(t.scale(2), RatFunc.const(ctx, 4)))
    assert half.base == t and half.fiber == RatFunc.const(ctx, 2)


def test_star_shifts_fiber_only():
    ctx = JetContext(1)
    t = ctx.gen(0)
    p = CoverPoint(t, RatFunc.const(ctx, 1))
    shifted = star(RatFunc.const(ctx, 7), p)
    assert shifted.base == t and shifted.fiber == RatFunc.const(ctx, 8)
    assert pi(shifted) == pi(p)
    assert pi(CoverPoint(t**2, RatFunc.const(ctx, 99))) == t**2
    # transitivity witness: shifting by the negated fiber lands on fiber zero
    three = RatFunc.const(ctx, 3)
    q = CoverPoint(t, t + three)
    assert star(-(t + three), q).fiber.is_zero()


def test_pair_product_square_and_unit_and_nilpotent():
    ctx = JetContext(2)
    t, a = ctx.gen(0), ctx.gen(1)
    p = CoverPoint(t, a)
    sq = otimes(p, p)
    assert sq.base == t**2 and sq.fiber == (t * a).scale(2)
    one = CoverPoint(RatFunc.const(ctx, 1), RatFunc.zero(ctx))
    assert otimes(one, p) == p
    eps = CoverPoint(RatFunc.zero(ctx), RatFunc.const(ctx, 1))
    sq_eps = otimes(eps, eps)
    assert sq_eps.base.is_zero() and sq_eps.fiber.is_zero()


def test_ring_axioms_at_generic_points():
    ctx = JetContext(6)
    points = [
        CoverPoint(ctx.gen(2 * i), ctx.gen(2 * i + 1)) for i in range(3)
    ]
    a, b, c = points
    assert oplus(a, b) == oplus(b, a)
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
    assert otimes(a, b) == otimes(b, a)
    assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))
    assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))


def test_projection_is_a_homomorphism():
    _, a, b = plain_points()
    assert pi(oplus(a, b)) == pi(a) + pi(b)
    assert pi(otimes(a, b)) == pi(a) * pi(b)


def test_fiber_principal_homogeneity():
    ctx = JetContext(3)
    alpha, u, w = ctx.gen(0), ctx.gen(1), ctx.gen(2)
    p = CoverPoint(alpha, u)
    q = CoverPoint(alpha, w)
    shift = q.fiber - p.fiber
    assert star(shift, p) == q
    # the shift is unique: star(s, p) == q forces s == shift
    assert not star(shift + RatFunc.const(ctx, 1), p) == q


def test_relation_examples_level_one():
    ctx = JetContext(2)
    t, a = ctx.gen(0), ctx.gen(1)
    good = [CoverPoint(t, a), CoverPoint(t**2, (t * a).scale(2))]
    assert rn_holds(1, good)
    bad_fiber = [CoverPoint(t, RatFunc.zero(ctx)), CoverPoint(t**2, RatFunc.const(ctx, 5))]
    assert not rn_holds(1, bad_fiber)
    bad_base = [CoverPoint(t, RatFunc.zero(ctx)), CoverPoint(t**3, RatFunc.zero(ctx))]
    assert not rn_holds(1, bad_base)


def test_relation_arity_checked():
    ctx = JetContext(2)
    with pytest.raises(ArityError):
        rn_holds(2, [CoverPoint(ctx.gen(0), ctx.gen(1))])


def test_relation_level_must_be_positive():
    ctx = JetContext(2)
    with pytest.raises(ValueError, match="cover level must be >= 1"):
        rn_holds(0, [CoverPoint(ctx.gen(0), ctx.gen(1))])


def test_relation_points_share_one_context():
    ctx1, ctx2 = JetContext(2), JetContext(2)
    t = ctx2.gen(0)
    points = [CoverPoint(ctx1.gen(0), ctx1.gen(1)), CoverPoint(t**2, RatFunc.zero(ctx2))]
    with pytest.raises(ContextMismatchError):
        rn_holds(1, points)


def test_context_mismatch_between_points():
    ctx1 = JetContext(2)
    ctx2 = JetContext(2)
    p = CoverPoint(ctx1.gen(0), ctx1.gen(1))
    q = CoverPoint(ctx2.gen(0), ctx2.gen(1))
    with pytest.raises(ContextMismatchError):
        oplus(p, q)


def test_sigma_formula_and_composition():
    ctx = JetContext(1, 1, 1)
    t = ctx.gen(0)
    p = CoverPoint(t, RatFunc.zero(ctx))
    moved = sigma(D, p)
    dt = RatFunc.var(ctx, ctx.jet(0, (0,)))
    assert moved == CoverPoint(t, dt)
    assert sigma(Operator.zero(), p) == p
    # moves compose additively because the base is fixed
    G = Operator.word((0,), Fraction(3))
    assert sigma(D, sigma(G, p)) == sigma(D + G, p)
    assert pi(sigma(D, p)) == pi(p)


def test_generic_relation_point_satisfies_relation():
    for n in (1, 2, 3):
        assert rn_holds(n, generic_rn_point(Operator.zero(), n))


def test_preservation_examples():
    assert rn_preservation(D, 1).in_dn
    assert rn_preservation(Operator.word((0, 1)), 2).in_dn
    for n in range(1, 5):
        verdict = rn_preservation(Operator.word((0,) * (n + 1)), n)
        assert not verdict.in_dn
        assert verdict.witness is not None
        assignment, value = verdict.witness
        assert verdict.defect.evaluate(assignment) == value != 0


def test_preservation_agrees_with_membership():
    for op in default_test_set():
        for n in (1, 2, 3, 4):
            assert rn_preservation(op, n).in_dn == is_in_dn(op, n).in_dn


def test_psi_recovers_the_product():
    assert psi_defines_otimes()
    # unit and diagonal shapes of the same identity
    ctx, a, b = plain_points()
    one = CoverPoint(RatFunc.const(ctx, 1), RatFunc.zero(ctx))
    z1, z2 = otimes(one, one), otimes(b, b)
    z3 = otimes(oplus(one, b), oplus(one, b))
    recovered = scalar(Fraction(1, 2), ominus(ominus(z3, z2), z1))
    assert recovered == otimes(one, b) == b
    z3_diag = otimes(oplus(a, a), oplus(a, a))
    z1_diag = otimes(a, a)
    assert scalar(Fraction(1, 2), ominus(ominus(z3_diag, z1_diag), z1_diag)) == otimes(a, a)


def test_reduct_equivalence():
    for n in (1, 2, 3):
        assert rn_reduct_check(n)


def test_reduct_shift_formula_level_two():
    # at level 2 the forced shifts are eps2 = a2' - 2 alpha a1',
    # eps3 = a3' - 3 alpha^2 a1', tied by eps3 = 3 alpha eps2
    points = generic_rn_point(Operator.zero(), 2)
    a1 = points[0]
    alpha = pi(a1)
    eps2 = points[1].fiber - otimes_power(a1, 2).fiber
    eps3 = points[2].fiber - otimes_power(a1, 3).fiber
    assert otimes_power(a1, 2).fiber == (alpha * a1.fiber).scale(2)
    assert otimes_power(a1, 3).fiber == (alpha**2 * a1.fiber).scale(3)
    assert eps3 == (alpha * eps2).scale(3)


def test_ring_check_classifies_leibniz():
    assert sigma_ring_check(D)
    assert sigma_ring_check(Operator.zero())
    assert not sigma_ring_check(DD)


def test_ring_defect_matches_multilinear_defect():
    defect = sigma_ring_defect(DD)
    assert defect.base.is_zero()
    # fiber defect is 2 D(alpha) D(beta); the multilinear level-1 defect of
    # D.D is 2 D(x1) D(x2): same term structure
    fiber_terms = defect.fiber.num.sorted_terms()
    polar_terms = polarization_defect(DD, 1).num.sorted_terms()
    assert len(fiber_terms) == len(polar_terms) == 1
    assert fiber_terms[0][1] == polar_terms[0][1] == 2
    (mono_f, _), (mono_p, _) = fiber_terms[0], polar_terms[0]
    assert [e for _, e in mono_f] == [e for _, e in mono_p] == [1, 1]
