"""Expression grammars: operators, rational functions, round-trips, errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derivcover.errors import (
    DegreeGuardError,
    DivisionByZeroError,
    ParseError,
)
from derivcover.jets import Operator
from derivcover.parse import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    parse_func_list,
    parse_operator,
    parse_ratfunc,
)
from derivcover.poly import MPoly, RatFunc, VarRegistry


def test_word_parsing():
    assert parse_operator("D1.D1") == Operator.word((0, 0))
    assert parse_operator("D2.D1") == Operator.word((1, 0))


def test_linear_combination_parsing():
    got = parse_operator("2*D1 + 3/2*D2.D3")
    expected = Operator.from_terms(
        [((0,), Fraction(2)), ((1, 2), Fraction(3, 2))]
    )
    assert got == expected


def test_cancellation_to_zero_operator():
    assert parse_operator("D1 - D1").is_zero()


def test_signed_coefficients():
    assert parse_operator("-D1") == Operator.from_terms([((0,), Fraction(-1))])
    assert parse_operator("-3*D1 + -2*D2") == Operator.from_terms(
        [((0,), Fraction(-3)), ((1,), Fraction(-2))]
    )


def test_letters_numbered_from_one():
    with pytest.raises(ParseError):
        parse_operator("D0")
    with pytest.raises(ParseError):
        parse_operator("D")


def test_operator_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_operator("D1 + + D2")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_operator("2*")
    with pytest.raises(ParseError):
        parse_operator("D1 x")


def test_ratfunc_expansion():
    f = parse_ratfunc("t^2 + 2*t + 1")
    g = parse_ratfunc("(u+1)^2", VarRegistry())
    assert f.render() == "t^2 + 2*t + 1"
    assert g.render() == "u^2 + 2*u + 1"


def test_ratfunc_reduction():
    assert parse_ratfunc("(t^2-1)/(t-1)").render() == "t + 1"
    # the denominator's leading coefficient is made positive
    assert parse_ratfunc("1/(1 - t)").render() == "(-1)/(t - 1)"


def test_ratfunc_division_by_zero():
    for text in ("1/0", "t/0", "t/(u-u)"):
        with pytest.raises(DivisionByZeroError) as err:
            parse_ratfunc(text)
        assert str(err.value) == "division by the zero rational function"


def test_precedence_fixed_cases():
    reg = VarRegistry()
    t = parse_ratfunc("t", reg)
    assert parse_ratfunc("2*t^2", reg) == (t**2).scale(2)
    assert parse_ratfunc("-t^2", reg) == -(t**2)
    assert parse_ratfunc("(-t)^2", reg) == t**2
    assert parse_ratfunc("2+3*t", reg) == t.scale(3) + RatFunc.const(reg, 2)
    assert parse_ratfunc("1/2*t", reg) == t.scale(Fraction(1, 2))
    assert parse_ratfunc("t-1-1", reg) == t - RatFunc.const(reg, 2)


def test_ratfunc_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfunc("t +")
    with pytest.raises(ParseError):
        parse_ratfunc("(t")
    with pytest.raises(ParseError):
        parse_ratfunc("t^x")
    with pytest.raises(ParseError) as err:
        parse_ratfunc("t $ u")
    assert err.value.position == 2


def test_degree_limit_on_parsed_functions(monkeypatch):
    assert parse_ratfunc(f"t^{MAX_DEGREE}").num.total_degree() == MAX_DEGREE
    with pytest.raises(DegreeGuardError) as err:
        parse_ratfunc(f"t^{MAX_DEGREE + 1}")
    assert str(err.value) == "power would reach total degree 65 > limit 64"
    # each entry is within the limit; their common denominator is not
    with pytest.raises(DegreeGuardError):
        parse_ratfunc("1/(t^40+1)+1/(t^40+2)")
    with pytest.raises(DegreeGuardError):
        parse_ratfunc("t^40*t^40")

    # an oversized power is refused before any of it is computed
    def no_power(self, k):
        raise AssertionError("power computed")

    monkeypatch.setattr(RatFunc, "__pow__", no_power)
    with pytest.raises(DegreeGuardError):
        parse_ratfunc("(t+1)^30000")


def test_coefficient_limit_on_parsed_functions(monkeypatch):
    assert parse_ratfunc("2^100").render() == str(2**100)
    with pytest.raises(DegreeGuardError) as err:
        parse_ratfunc("2^4000*2^4000")
    assert str(err.value) == f"power would reach 8000 coefficient bits > limit {MAX_COEFF_BITS}"
    # each power passes; their product does not
    with pytest.raises(DegreeGuardError) as err:
        parse_ratfunc("2^2000*2^2000*2^2000")
    assert str(err.value) == f"product would reach 6001 coefficient bits > limit {MAX_COEFF_BITS}"
    with pytest.raises(DegreeGuardError):
        parse_ratfunc("t/2^2000/2^2000/2^2000")
    assert parse_ratfunc("9" * 1233).render() == "9" * 1233
    with pytest.raises(DegreeGuardError) as err:
        parse_ratfunc("9" * 1234)
    assert str(err.value) == f"literal would reach 4100 coefficient bits > limit {MAX_COEFF_BITS}"
    # a power of 0, 1 or -1 stays 0, 1 or -1: no coefficient bits are charged
    for text, value in (("0^5000", "0"), ("1^5000", "1"), ("(0-1)^5001", "-1")):
        assert parse_ratfunc(text).render() == value
    # and its work does not grow with the exponent
    huge = "9" * 1999
    for text, value in (("0^" + huge, "0"), ("1^" + huge, "1"), ("(0-1)^" + huge, "-1")):
        assert parse_ratfunc(text).render() == value
    # a Fraction coefficient counts its 2-bit denominator
    with pytest.raises(DegreeGuardError) as err:
        parse_ratfunc("(1/2)^2049")
    assert str(err.value) == f"power would reach 4098 coefficient bits > limit {MAX_COEFF_BITS}"
    # 3 has 2 bits, so 3^2048 sits exactly at the limit
    assert parse_ratfunc("3^2048").render() == str(3**2048)

    # an oversized constant power is refused before any of it is computed
    def no_power(self, k):
        raise AssertionError("power computed")

    monkeypatch.setattr(RatFunc, "__pow__", no_power)
    with pytest.raises(DegreeGuardError):
        parse_ratfunc("3^100000000")


def test_digit_limit_in_both_grammars():
    digits = "1" * MAX_DIGITS
    assert parse_operator(f"{digits}*D{digits}").render() == f"{digits}*D{digits}"
    assert parse_ratfunc(f"t^{'0' * MAX_DIGITS}").render() == "1"
    for text, pos in [(f"1{digits}*D1", 0), (f"D1 + D1{digits}", 5)]:
        with pytest.raises(ParseError) as err:
            parse_operator(text)
        assert err.value.position == pos
    for text, pos in [(f"1{digits}", 0), (f"t^0{'0' * MAX_DIGITS}", 2)]:
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.position == pos
    assert str(err.value) == (
        f"number of {MAX_DIGITS + 1} digits > limit {MAX_DIGITS} (at position 2)"
    )


@pytest.mark.parametrize("ch", ["²", "¹", "١", "٣", "３", "é", "ß", "\u00a0", "\u3000"])
def test_only_ascii_digits_and_names_in_both_grammars(ch):
    # superscript, Arabic-Indic and fullwidth digits, non-ASCII letters and
    # non-ASCII spaces
    for text, pos in [(f"D1 + D{ch}", 5), (f"{ch}*D1", 0), (f"D1{ch}", 2)]:
        with pytest.raises(ParseError) as err:
            parse_operator(text)
        assert err.value.position == pos
    for text, pos in [(f"t^{ch}", 2), (f"t{ch}", 1), (f"{ch} + t", 0)]:
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.position == pos


def test_unknown_variable_when_frozen():
    reg = VarRegistry()
    reg.add_generator("t")
    assert parse_ratfunc("t^2", reg, allow_new_vars=False) is not None
    with pytest.raises(ParseError):
        parse_ratfunc("u", reg, allow_new_vars=False)


def test_func_list_shares_registry():
    funcs = parse_func_list("t, t^2, t+u")
    assert funcs[0].reg is funcs[1].reg is funcs[2].reg
    with pytest.raises(ParseError):
        parse_func_list("t,,u")


def random_operator(rng) -> Operator:
    terms = []
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms.append((word, coeff))
    return Operator.from_terms(terms)


def test_operator_render_parse_round_trip():
    rng = random.Random(0)
    for _ in range(250):
        op = random_operator(rng)
        assert parse_operator(op.render()) == op


_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple), _coefficients),
        max_size=4,
    )
)
def test_operator_render_parses_back(terms):
    # no identity term: its bare rational lies outside the operator grammar;
    # the zero operator renders as 0*D1
    op = Operator.from_terms(terms)
    assert parse_operator(op.render()) == op


def _poly_terms(names: int):
    monomial = st.lists(st.integers(0, 3), min_size=names, max_size=names)
    return st.lists(st.tuples(monomial, _coefficients), max_size=4)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_poly_terms(3), _poly_terms(3))
def test_ratfunc_render_parses_back(num_terms, den_terms):
    reg = VarRegistry()
    symbols = [reg.add_generator(name) for name in ("t", "u", "x1")]

    def poly(terms):
        return MPoly.from_terms(
            reg, [(tuple((v, e) for v, e in zip(symbols, exps) if e), c) for exps, c in terms]
        )

    den = poly(den_terms)
    f = RatFunc.make(poly(num_terms), den if not den.is_zero() else MPoly.const(reg, 1))
    assert parse_ratfunc(f.render(), reg, allow_new_vars=False) == f


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_ratfunc(deep).render() == "t"
    with pytest.raises(ParseError) as err:
        parse_ratfunc("(" + deep + ")")
    assert err.value.position == MAX_NESTING
    assert parse_ratfunc("-" * 5001 + "t").render() == "-t"


def random_ratfunc_text(rng) -> str:
    atoms = ["t", "u", "v", str(rng.randint(0, 9))]

    def expr(depth):
        if depth == 0:
            return rng.choice(atoms)
        a, b = expr(depth - 1), expr(depth - 1)
        op = rng.choice(["+", "-", "*", "*", "+"])
        text = f"({a} {op} {b})"
        if rng.random() < 0.2:
            text = f"-{text}"
        if rng.random() < 0.2:
            text += f"^{rng.randint(0, 3)}"
        return text

    return expr(rng.randint(1, 3))


def test_ratfunc_render_parse_round_trip():
    rng = random.Random(1)
    for _ in range(250):
        reg = VarRegistry()
        f = parse_ratfunc(random_ratfunc_text(rng), reg)
        again = parse_ratfunc(f.render(), reg)
        assert again == f


def test_canonical_text_round_trip():
    assert parse_operator("2*D1 + 3/2*D2.D3").render() == "2*D1 + 3/2*D2.D3"
    assert parse_ratfunc("t^2 + 2*t + 1").render() == "t^2 + 2*t + 1"
