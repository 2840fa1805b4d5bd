"""Polynomial and rational-function arithmetic: canonical form, evaluation,
gcd reduction and the degree guard."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from derivcover.errors import (
    ContextMismatchError,
    DegreeGuardError,
    DenominatorVanishesError,
    DivisionByZeroError,
    ExactDivisionError,
    MissingVariableError,
)
from derivcover import poly
from derivcover.jets import JetContext, Operator, apply_operator, derive
from derivcover.parse import parse_ratfunc
from derivcover.poly import (
    MPoly,
    RatFunc,
    VarRegistry,
    div_exact,
    mono_key,
    mpoly_gcd,
    primitive_part,
)

from helpers import (
    formal_derivative,
    random_fraction,
    random_nonzero_poly,
    random_poly,
    random_ratfunc,
    to_sympy,
)


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


def test_a_zero_from_another_registry_is_refused():
    t, reg = t_var()
    one = RatFunc.const(reg, 1)
    zero_b = RatFunc.zero(VarRegistry())
    for f in (t, (t + one) / (t - one), RatFunc.zero(reg), one):
        for a, b in ((f, zero_b), (zero_b, f)):
            # a zero divisor is refused as such before its registry is read
            divide_error = DivisionByZeroError if b.is_zero() else ContextMismatchError
            for op in ("__add__", "__sub__", "__mul__"):
                for x, y in ((a, b), (a.num, b.num)):
                    with pytest.raises(ContextMismatchError):
                        getattr(x, op)(y)
            with pytest.raises(divide_error):
                a / b
            with pytest.raises(divide_error):
                div_exact(a.num, b.num)
            with pytest.raises(ContextMismatchError):
                mpoly_gcd(a.num, b.num)


def test_evaluate_commutes_with_ring_ops():
    # 25 random function pairs and 4 planted ones, 20 points each
    rng = random.Random(0)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b", "c"))
    zero = RatFunc.zero(reg)

    def check(f, g):
        sums, prods, diffs = f + g, f * g, f - g
        quots = None if g.is_zero() else f / g
        for value in (sums, prods, diffs, quots):
            if value is not None and value.is_zero():
                assert value == zero  # 0/1
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

    pairs = 0
    while pairs < 25:
        f = random_ratfunc(rng, reg, vars_)
        g = random_ratfunc(rng, reg, vars_)
        if g.is_zero():
            continue
        pairs += 1
        check(f, g)
    # a zero on either side of a fraction, and two fractions over one
    # denominator whose sum cancels
    f = parse_ratfunc("(a*b + 1)/(2*a - c^2)", reg)
    for g in (zero, -f):
        check(f, g)
        check(g, f)


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
        assert primitive_part(f.den) == f.den  # integer coefficients, content 1
        assert f.den.sorted_terms()[0][1] > 0
        assert mpoly_gcd(f.num, f.den).is_constant()


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
    assert p.sorted_terms()[0] == (((0, 1), (2, 1), (9, 1)), Fraction(5))
    assert p.variables() == (0, 1, 2, 3, 9, 10)


def test_leading_term_is_graded_lex_by_index_not_by_allocation():
    # D1(x1) is allocated after the higher-index D3(x1), D2(x1) after both
    ctx = JetContext(1, 3, 1)
    d3, d1, d2 = (ctx.jet(0, (letter,)) for letter in (2, 0, 1))
    D3, D1, D2 = (MPoly.var(ctx, v) for v in (d3, d1, d2))
    one = MPoly.const(ctx, 1)
    tie = D2 - D1  # equal degrees: the lower index, D1(x1), leads
    assert tie.sorted_terms()[0] == (((d1, 1),), Fraction(-1))
    assert RatFunc.make(one, tie).render() == "(-1)/(D1(x1) - D2(x1))"
    graded = D1 - D3 * D3  # the higher degree leads
    assert graded.sorted_terms()[0] == (((d3, 2),), Fraction(-1))
    assert RatFunc.make(one, graded).render() == "(-1)/(D3(x1)^2 - D1(x1))"


def test_exponent_field_overflow_raises_on_every_path():
    reg = VarRegistry()
    x = reg.add_generator("x")
    y = reg.add_generator("y")
    with pytest.raises(DegreeGuardError):
        MPoly.from_terms(reg, [(((x, 40000),), 1)])
    big = MPoly.from_terms(reg, [(((x, 20000),), 1)])
    with pytest.raises(DegreeGuardError, match="product would reach total degree 40000"):
        big * big
    with pytest.raises(DegreeGuardError, match="power would reach total degree 40000"):
        big**2
    # the zero polynomial has total degree 0, so no guard bounds its power's work
    assert MPoly.zero(reg) ** 10**12 == MPoly.zero(reg)
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


def dense_poly(reg, v, coeffs):
    """The polynomial sum of coeffs[k] * v**k."""
    x = MPoly.var(reg, v)
    return sum(((x**k).scale(c) for k, c in enumerate(coeffs)), MPoly.zero(reg))


# sparse lists, as a non-monic divisor whose remainder loses more than one
# degree in a step is what makes the pseudo-remainder's lc power matter
UNIVARIATE_COEFFS = st.lists(
    st.just(0) | st.integers(-9, 9), min_size=2, max_size=6
).filter(lambda cs: cs[-1] != 0)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.sampled_from(["planted", "squared", "coprime", "bivariate"]),
    UNIVARIATE_COEFFS,
    UNIVARIATE_COEFFS,
    UNIVARIATE_COEFFS,
)
@example("planted", [1, 0, 0, -1], [1, 0, -3], [1, 2])
@example("squared", [2, 0, 1], [0, -1], [2, 0, 0, -1])
def test_subresultant_gcd_matches_sympy(shape, p, q, g):
    sympy = pytest.importorskip("sympy")
    reg = VarRegistry()
    t = reg.add_generator("t")
    u = reg.add_generator("u")
    P, Q, G = (dense_poly(reg, t, cs) for cs in (p, q, g))
    one, U = MPoly.const(reg, 1), MPoly.var(reg, u)
    if shape == "planted":
        a, b = P * G, Q * G
    elif shape == "squared":  # the gcd(den, D(den)) of the quotient rule
        a = P * G * G
        b = formal_derivative(a, t)
    elif shape == "coprime":  # any common divisor of Q and P*Q + 1 divides 1
        a, b = P * Q + one, Q
    else:
        # G + t*u times U + P and Q*U + 1: P and Q have positive degree, so
        # neither cofactor divides the other, and both parts hold t and u
        common = G + dense_poly(reg, t, [0, 1]) * U
        a, b = common * (U + P), common * (Q * U + one)
    with mock.patch.object(poly, "_subresultant", wraps=poly._subresultant) as run:
        ours = mpoly_gcd(a, b)
    assert mpoly_gcd(b, a) == ours
    unit = sympy.cancel(to_sympy(ours) / sympy.gcd(to_sympy(a), to_sympy(b)))
    assert unit.is_number and unit != 0
    if shape == "coprime":
        assert ours.is_one()
    if shape == "bivariate":  # the sequence ran on polynomial coefficients
        assert any(type(call.args[0][0]) is MPoly for call in run.call_args_list)


def test_subresultant_remainders_match_the_textbook_sequence():
    # Knuth's pair (TAOCP vol. 2, 4.6.1) times x + 2: its subresultant
    # sequence ends in 260708; a degree drop of 2 makes the divisor h matter
    f1 = [1, 2, 1, 2, -3, -9, 2, 18, -1, -10]  # (x^8 + x^6 - 3x^4 - 3x^3 + 8x^2 + 2x - 5)(x + 2)
    f2 = [3, 6, 5, 10, -4, -17, 3, 42]  # (3x^6 + 5x^4 - 4x^2 - 9x + 21)(x + 2)
    assert poly._subresultant(f1, f2, poly._int_quo) == [260708, 521416]
    # the same sequence on coefficients that are constant polynomials
    reg = VarRegistry()
    p1, p2, last = ([MPoly.const(reg, c) for c in cs] for cs in (f1, f2, [260708, 521416]))
    assert poly._subresultant(p1, p2, div_exact) == last


def test_univariate_pairs_run_the_sequence_on_ints(monkeypatch):
    real = poly._subresultant
    kinds = []

    def recorded(fa, fb, quo):
        kinds.append(type(fa[0]))
        return real(fa, fb, quo)

    monkeypatch.setattr(poly, "_subresultant", recorded)
    reg = VarRegistry()
    t = reg.add_generator("t")
    u = reg.add_generator("u")
    T = dense_poly(reg, t, [0, 1])
    one = MPoly.const(reg, 1)
    assert mpoly_gcd((T + one) ** 2 * (T - one), (T + one) * (T * T + one)) == T + one
    f = parse_ratfunc("(t^2 - 1)/(t^3 + 2*t^2 + t)", reg)
    assert f.render() == "(t - 1)/(t^2 + t)"
    # derive takes gcd(den, D(den)) with den in x1 alone; D1(den) is D1(x1)
    # times a polynomial in x1, which the monomial split leaves univariate
    ctx = JetContext(1, 1, 1)
    x = parse_ratfunc("1/((x1^2 + 1)^2*(x1 - 1))", ctx, allow_new_vars=False)
    assert set(kinds) == {int}
    kinds.clear()
    assert derive(ctx, 0, x).render() == (
        "(-5*x1^2*D1(x1) + 4*x1*D1(x1) - D1(x1))/(x1^8 - 2*x1^7 + 4*x1^6"
        " - 6*x1^5 + 6*x1^4 - 6*x1^3 + 4*x1^2 - 2*x1 + 1)"
    )
    assert kinds and set(kinds) == {int}
    # a pair in the same two variables runs it in t on polynomials in u, and
    # the gcd of its contents in t, which are in u alone, on ints
    kinds.clear()
    U = MPoly.var(reg, u)
    common = T * U + one
    assert mpoly_gcd(common * (T + U), common * (T - U + one)) == common
    assert MPoly in kinds


def test_quotient_of_polynomials_is_one_reduction():
    # a / b equals a times the inverse of b, on pairs with a common factor
    # and with a negative leading coefficient
    rng = random.Random(21)
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b"))
    for i in range(60):
        a = random_poly(rng, reg, vars_, fractions=i % 3 == 0)
        b = random_nonzero_poly(rng, reg, vars_)
        if i % 2:
            g = random_nonzero_poly(rng, reg, vars_, max_terms=2)
            a, b = a * g, b * g
        if i % 4 < 2:
            b = -b
        fa, fb = RatFunc.from_poly(a), RatFunc.from_poly(b)
        quot = fa / fb
        inv = fa * RatFunc._normalized(fb.den, fb.num)
        assert (quot.num, quot.den) == (inv.num, inv.den)
