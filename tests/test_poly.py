"""Polynomial and rational-function arithmetic: canonical form, evaluation,
gcd reduction, parity extraction, and the degree guard."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derivcover.errors import (
    ContextMismatchError,
    DegreeGuardError,
    DenominatorVanishesError,
    DivisionByZeroError,
    ExactDivisionError,
    MissingVariableError,
)
from derivcover.jets import JetContext, Operator, apply_operator
from derivcover.poly import (
    MPoly,
    RatFunc,
    VarRegistry,
    content_and_primitive,
    div_exact,
    mono_key,
    mpoly_gcd,
    odd_component,
)

from helpers import random_fraction, random_nonzero_poly, random_poly, random_ratfunc


def t_var(reg=None):
    reg = reg or VarRegistry()
    return RatFunc.var(reg, reg.add_generator("t")), reg


def test_additive_inverse():
    t, _ = t_var()
    assert (t + (-t)).is_zero()


def test_gcd_reduction_forced():
    t, reg = t_var()
    one = RatFunc.const(reg, 1)
    # (t^2 - 1)/(t - 1) = t + 1
    q = (t * t - one) / (t - one)
    assert q == t + one
    assert q.render() == "t + 1"


def test_binomial_expansion():
    t, reg = t_var()
    cube = (t + RatFunc.const(reg, 1)) ** 3
    assert cube.render() == "t^3 + 3*t^2 + 3*t + 1"


def test_powers_take_nonnegative_exponents():
    t, _ = t_var()
    for base in (t, t.num):
        with pytest.raises(ValueError):
            base ** -1


def test_division_by_zero_polynomial():
    t, reg = t_var()
    with pytest.raises(DivisionByZeroError):
        t / RatFunc.zero(reg)
    with pytest.raises(DivisionByZeroError):
        RatFunc.make(t.num, MPoly.zero(reg))


def test_evaluate_square():
    t, reg = t_var()
    f = t**2
    assert f.evaluate({0: Fraction(3)}) == 9


def test_evaluate_jet_polynomial():
    # 2*(Dx)^2 at Dx=1 evaluates to 2: the value backing the level-1
    # separation witness (defect hand-expanded to 2*(Dx)^2 elsewhere)
    ctx = JetContext(1, 1, 1)
    dx = ctx.jet(0, (0,))
    f = MPoly.from_terms(ctx, [(((dx, 2),), Fraction(2))])
    assert RatFunc.from_poly(f).evaluate({0: Fraction(0), dx: Fraction(1)}) == 2


def test_evaluate_pole_raises():
    t, reg = t_var()
    one = RatFunc.const(reg, 1)
    f = (t + one) / (t - one)
    with pytest.raises(DenominatorVanishesError):
        f.evaluate({0: Fraction(1)})


def test_evaluate_missing_variable():
    t, _ = t_var()
    with pytest.raises(MissingVariableError):
        (t**2).evaluate({})


def test_context_mismatch_detected():
    t, _ = t_var()
    u, _ = t_var()
    with pytest.raises(ContextMismatchError):
        t + u


def test_evaluate_commutes_with_ring_ops():
    # 25 function pairs, 20 points each: 500 evaluation points in total
    rng = random.Random(0)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b", "c"))
    pairs = 0
    while pairs < 25:
        f = random_ratfunc(rng, reg, vars_)
        g = random_ratfunc(rng, reg, vars_)
        if g.is_zero():
            continue
        pairs += 1
        sums, prods, diffs, quots = f + g, f * g, f - g, f / g
        points = 0
        while points < 20:
            point = {v: random_fraction(rng) for v in vars_}
            try:
                fv, gv = f.evaluate(point), g.evaluate(point)
                assert sums.evaluate(point) == fv + gv
                assert prods.evaluate(point) == fv * gv
                assert diffs.evaluate(point) == fv - gv
                if gv != 0:
                    assert quots.evaluate(point) == fv / gv
            except DenominatorVanishesError:
                continue
            points += 1


def test_mul_div_roundtrip_is_bit_exact():
    rng = random.Random(1)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b"))
    for _ in range(150):
        a = random_ratfunc(rng, reg, vars_)
        b = random_ratfunc(rng, reg, vars_)
        if b.is_zero():
            continue
        back = (a * b) / b
        assert back.num == a.num and back.den == a.den


def test_gcd_of_common_factor_products():
    rng = random.Random(2)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b"))
    for _ in range(60):
        g = random_nonzero_poly(rng, reg, vars_, max_terms=2)
        a = random_nonzero_poly(rng, reg, vars_, max_terms=2)
        b = random_nonzero_poly(rng, reg, vars_, max_terms=2)
        d = mpoly_gcd(a * g, b * g)
        # the common factor divides the gcd, and the gcd divides both products
        div_exact(d, mpoly_gcd(g, d))  # g's primitive part divides d
        q1 = div_exact(a * g, d)
        q2 = div_exact(b * g, d)
        assert q1 * d == a * g
        assert q2 * d == b * g


def test_denominator_canonical_form():
    rng = random.Random(3)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b"))
    for _ in range(80):
        f = random_ratfunc(rng, reg, vars_)
        if f.is_zero():
            assert f.den.is_one()
            continue
        c, prim = content_and_primitive(f.den)
        assert c == 1 and prim == f.den  # integer coefficients, content 1
        assert f.den.leading()[1] > 0
        assert mpoly_gcd(f.num, f.den).is_constant()


def test_odd_component_parity_filter():
    reg = VarRegistry()
    x1 = reg.add_generator("x1")
    x2 = reg.add_generator("x2")
    f = MPoly.from_terms(
        reg, [(((x1, 2), (x2, 1)), Fraction(1)), (((x1, 1), (x2, 1)), Fraction(1))]
    )
    assert odd_component(f, (x1, x2)).render() == "x1*x2"


def test_odd_component_of_square():
    reg = VarRegistry()
    x1 = reg.add_generator("x1")
    x2 = reg.add_generator("x2")
    s = MPoly.var(reg, x1) + MPoly.var(reg, x2)
    assert odd_component(s * s, (x1, x2)).render() == "2*x1*x2"


def test_odd_component_grades_jets_by_base_generator():
    # x2 * D1(x1) is odd in both x1 and x2: the jet counts as degree 1 in x1
    ctx = JetContext(2, 1, 1)
    x1, x2 = ctx.gens
    theta = ctx.jet(x1, (0,))
    f = MPoly.from_terms(ctx, [(((x2, 1), (theta, 1)), Fraction(1))])
    assert odd_component(f, (x1, x2)) == f


def test_odd_component_idempotent_and_linear():
    rng = random.Random(4)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b", "c"))
    for _ in range(100):
        f = random_poly(rng, reg, vars_)
        g = random_poly(rng, reg, vars_)
        c = random_fraction(rng)
        of = odd_component(f, vars_)
        assert odd_component(of, vars_) == of
        assert odd_component(f + g, vars_) == odd_component(f, vars_) + odd_component(
            g, vars_
        )
        assert odd_component(f.scale(c), vars_) == odd_component(f, vars_).scale(c)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5), st.integers(-8, 8))
def test_univariate_ring_axioms(coeffs, k):
    reg = VarRegistry()
    t = MPoly.var(reg, reg.add_generator("t"))
    f = MPoly.zero(reg)
    for i, c in enumerate(coeffs):
        f = f + (t**i).scale(c)
    g = t.scale(k) + MPoly.const(reg, 1)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * g == f * g + g * g
    assert (f - f).is_zero()


def test_render_zero_and_signs():
    reg = VarRegistry()
    t = MPoly.var(reg, reg.add_generator("t"))
    assert MPoly.zero(reg).render() == "0"
    assert (t.scale(-1) + MPoly.const(reg, 1)).render() == "-t + 1"
    assert (t.scale(Fraction(3, 2))).render() == "3/2*t"


def test_tuple_monomials_round_trip_on_jets_allocated_out_of_order():
    ctx = JetContext(1, 3, 2)
    x = ctx.gen(0)
    op = Operator.from_terms([((2,), 1), ((1, 2), 1), ((2, 0), 1)])
    # D3 + D2.D3 + D3.D1 on x1^2 allocates indices 0, 3, 2, 9, 1, 10 in turn
    apply_operator(ctx, op, x * x)
    assert ctx.symbols() == [0, 1, 2, 3, 9, 10]
    items = [
        (((3, 2), (10, 1)), Fraction(1, 2)),
        (((1, 1),), Fraction(-3)),
        (((0, 1), (2, 1), (9, 1)), Fraction(5)),
        (((2, 1), (3, 2)), Fraction(-7, 4)),
        ((), Fraction(2)),
        (((1, 3),), Fraction(1)),
    ]
    p = MPoly.from_terms(ctx, reversed(items))
    assert p.sorted_terms() == sorted(items, key=lambda t: mono_key(t[0]))
    assert MPoly.from_terms(ctx, p.sorted_terms()) == p
    assert p.leading() == (((0, 1), (2, 1), (9, 1)), Fraction(5))
    assert p.variables() == (0, 1, 2, 3, 9, 10)


def test_leading_term_is_graded_lex_by_index_not_by_allocation():
    # D1(x1) is allocated after the higher-index D3(x1), D2(x1) after both
    ctx = JetContext(1, 3, 1)
    d3, d1, d2 = (ctx.jet(0, (letter,)) for letter in (2, 0, 1))
    D3, D1, D2 = (MPoly.var(ctx, v) for v in (d3, d1, d2))
    one = MPoly.const(ctx, 1)
    tie = D2 - D1  # equal degrees: the lower index, D1(x1), leads
    assert tie.leading() == (((d1, 1),), Fraction(-1))
    assert RatFunc.make(one, tie).render() == "(-1)/(D1(x1) - D2(x1))"
    graded = D1 - D3 * D3  # the higher degree leads
    assert graded.leading() == (((d3, 2),), Fraction(-1))
    assert RatFunc.make(one, graded).render() == "(-1)/(D3(x1)^2 - D1(x1))"


def test_exponent_field_overflow_raises_on_every_path():
    reg = VarRegistry()
    x = reg.add_generator("x")
    y = reg.add_generator("y")
    with pytest.raises(DegreeGuardError):
        MPoly.from_terms(reg, [(((x, 40000),), 1)])
    big = MPoly.from_terms(reg, [(((x, 20000),), 1)])
    with pytest.raises(DegreeGuardError):
        big * big
    with pytest.raises(DegreeGuardError):
        big**2
    # the pseudo-remainder sequence in x multiplies by lc_x(b) = y^20000
    a = MPoly.from_terms(reg, [(((x, 2), (y, 20000)), 1), ((), 1)])
    b = MPoly.from_terms(reg, [(((x, 1), (y, 20000)), 1), ((), 2)])
    with pytest.raises(DegreeGuardError):
        mpoly_gcd(a, b)


def test_inexact_division_stops_before_outgrowing_the_dividend():
    # dividing x^200 + y^200 by x - y^200 in an order where x leads would
    # run through quotient terms x^(199-i) y^(200 i) of degree up to ~40,000
    reg = VarRegistry()
    y = reg.add_generator("y")
    x = reg.add_generator("x")
    f = MPoly.from_terms(reg, [(((x, 200),), 1), (((y, 200),), 1)])
    d = MPoly.from_terms(reg, [(((x, 1),), 1), (((y, 200),), -1)])
    with pytest.raises(ExactDivisionError):
        div_exact(f, d)
    assert div_exact(f * d, d) == f
