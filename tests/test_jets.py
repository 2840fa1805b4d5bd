"""Jet contexts, the Leibniz action, and word operators."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from derivcover import cli
from derivcover.errors import (
    ContextMismatchError,
    PreconditionError,
    UnknownLetterError,
    WordLengthError,
)
from derivcover.jets import (
    JetContext,
    Operator,
    apply_operator,
    derive,
    word_name,
)
from derivcover.parse import parse_operator, parse_ratfunc
from derivcover.poly import MPoly, RatFunc, div_exact, mpoly_gcd, primitive_part

from helpers import random_ratfunc_small_den


def test_context_symbol_counts():
    # a context starts with its generators; jets appear as the action reaches them
    ctx = JetContext(1, 1, 2)
    assert ctx.num_vars == 1
    apply_operator(ctx, Operator.word((0, 0)), ctx.gen(0))
    assert ctx.num_vars == 3  # x, Dx, D.Dx
    ctx = JetContext(3, 2, 1)
    assert ctx.num_vars == 3
    derive(ctx, 1, ctx.gen(0) * ctx.gen(2))
    assert [ctx.name(v) for v in ctx.symbols()] == ["x1", "x2", "x3", "D2(x1)", "D2(x3)"]
    ctx = JetContext(1, 1, 0)
    assert ctx.num_vars == 1
    with pytest.raises(WordLengthError):
        derive(ctx, 0, ctx.gen(0))


def test_context_capacity_guard():
    # a full table over this alphabet would hold 699,048 jets; the context
    # holds the generators and the nine suffixes the word reaches
    ctx = JetContext(2, 4, 9)
    word = (3, 2, 1, 0, 3, 2, 1, 0, 3)
    apply_operator(ctx, Operator.word(word), ctx.gen(0))
    assert ctx.num_vars == 2 + 9
    assert ctx.name(ctx.symbols()[-1]) == "D4.D3.D2.D1.D4.D3.D2.D1.D4(x1)"
    with pytest.raises(WordLengthError):
        ctx.jet(0, (0,) * 10)
    with pytest.raises(UnknownLetterError):
        ctx.jet(0, (4,))
    assert ctx.num_vars == 2 + 9


def test_jet_index_is_the_full_table_position():
    # every jet keeps its position in the full table (generators, then jets by
    # word length, word and generator), whatever order it is asked for in
    ctx = JetContext(2, 3, 3)
    table = [(g, w) for n in (1, 2, 3) for w in product(range(3), repeat=n) for g in ctx.gens]
    for position, (g, word) in reversed(list(enumerate(table, start=len(ctx.gens)))):
        assert ctx.jet(g, word) == position
    assert ctx.symbols() == list(range(len(ctx.gens) + len(table)))


def test_symbol_table_is_injective_and_complete():
    ctx = JetContext(2, 2, 2)
    seen = set()
    for g in ctx.gens:
        for word in ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)):
            v = ctx.jet(g, word)
            assert v not in seen
            seen.add(v)
            assert ctx.base_of(v) == g
            assert ctx.word_of(v) == word
    assert len(seen) + len(ctx.gens) == ctx.num_vars
    for g in ctx.gens:
        assert ctx.base_of(g) == g
        assert ctx.word_of(g) == ()


def test_context_refuses_new_generators():
    # a generator placed after construction would take an index that a jet
    # owns, so D1(x1) would render as that generator
    ctx = JetContext(1, 2, 2)
    with pytest.raises(PreconditionError):
        parse_ratfunc("t + x1", ctx)
    assert derive(ctx, 0, ctx.gen(0)).render() == "D1(x1)"


def test_jet_rendering_outermost_first():
    ctx = JetContext(3, 2, 2)
    v = ctx.jet(ctx.gens[2], (1, 0))
    assert ctx.name(v) == "D2.D1(x3)"


def test_jet_names_are_built_from_the_index():
    # a jet's name reads its word and generator off its index, whatever
    # order the names are first asked for in; only generators are looked up
    names = []
    for seed in range(4):
        ctx = JetContext(3, 3, 4)
        ctx.place_subwords([(2, 0, 1, 0), (1, 1)])
        jets = ctx.symbols()[len(ctx.gens) :]
        random.Random(seed).shuffle(jets)
        names.append({v: ctx.name(v) for v in jets})
        for v in jets:
            assert ctx.name(v) == f"{word_name(ctx.word_of(v))}({ctx.name(ctx.base_of(v))})"
            assert ctx.lookup(ctx.name(v)) is None
    assert all(n == names[0] for n in names)
    unplaced = JetContext(3, 3, 4).jet(0, (2, 2, 2, 2))
    assert unplaced not in ctx
    with pytest.raises(KeyError):
        ctx.name(unplaced)
    assert [ctx.lookup(x) for x in ("x1", "x2", "x3", "x4")] == [0, 1, 2, None]


def test_refuted_witness_lists_every_subword_jet():
    # seven distinct letters at level 6: the witness assigns x1, then the
    # jets of the 127 nonempty subwords in (length, word) order
    word = (2, 6, 4, 5, 1, 3, 0)
    report = cli.run(["dn", "check", "--n", "6", "--op", word_name(word)])
    assert report.verdict == "refuted"
    subwords = sorted(
        {tuple(word[i] for i in pos) for r in range(1, 8) for pos in combinations(range(7), r)},
        key=lambda u: (len(u), u),
    )
    assert len(subwords) == 127
    names = [a["var"] for a in report.witness["assignments"]]
    assert names == ["x1"] + [f"{word_name(u)}(x1)" for u in subwords]


def test_derive_square_is_leibniz():
    ctx = JetContext(1, 1, 2)
    x = ctx.gen(0)
    dx = ctx.jet(0, (0,))
    got = derive(ctx, 0, x**2)
    expected = MPoly.from_terms(ctx, [(((0, 1), (dx, 1)), Fraction(2))])
    assert got.as_poly() == expected


def test_derive_constant_is_zero():
    ctx = JetContext(1, 1, 1)
    assert derive(ctx, 0, RatFunc.const(ctx, 7)).is_zero()


def test_derive_reciprocal_quotient_rule():
    ctx = JetContext(1, 1, 1)
    x = ctx.gen(0)
    dx = RatFunc.var(ctx, ctx.jet(0, (0,)))
    assert derive(ctx, 0, RatFunc.const(ctx, 1) / x) == -dx / (x * x)


# numerators over denominators with repeated and multivariate factors
FRACTIONS = [
    "(x1+x2)/((x1-x2)^2*(x1+1))",
    "(x1^2+x2)/(x1*x2+x1+1)",
    "x2/((x1^2+1)^2*(x1-3))",
    "(x1*x2-1)/(x1^3*(x2+2)^2)",
]


@pytest.mark.parametrize("text", FRACTIONS)
def test_derive_fraction_is_the_reduced_quotient_rule(text):
    # every word of length 1 and 2 over two letters: each step must give the
    # reduced form of (D(N)*den - N*D(den)) / den^2, and that form itself
    ctx = JetContext(2, 2, 2)
    start = parse_ratfunc(text, ctx, allow_new_vars=False)
    one = MPoly.const(ctx, 1)

    def poly_image(letter, p):
        return derive(ctx, letter, RatFunc.from_poly(p)).as_poly()

    for word in [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
        f = start
        for letter in reversed(word):
            num, den = f.num, f.den
            f = derive(ctx, letter, f)
            quotient_rule = poly_image(letter, num) * den - num * poly_image(letter, den)
            assert f == RatFunc.make(quotient_rule, den * den), (text, word)
            assert mpoly_gcd(f.num, f.den) == one
            assert primitive_part(f.den) == f.den


@pytest.mark.parametrize(
    "text, gens",
    [("x1/(x1^2-2)^3", 1), ("(x1^2+x1)/((x1-2)^2*x1^3)", 1), *((text, 2) for text in FRACTIONS)],
)
def test_each_letter_raises_the_denominator_by_its_radical(text, gens):
    # den(u(f)) = den(f) * r^|u| for every word u, with one r for every
    # letter: the rule dn_defect reads one denominator per word length by
    ctx = JetContext(gens, 2, 3)
    f = parse_ratfunc(text, ctx, allow_new_vars=False)
    r = div_exact(derive(ctx, 0, f).den, f.den)
    assert not r.is_constant()
    for length in (1, 2, 3):
        for word in product(range(2), repeat=length):
            image = apply_operator(ctx, Operator.word(word), f)
            assert image.den == f.den * r**length, (text, word)


def test_derive_refuses_a_fraction_from_another_context():
    ctx = JetContext(1, 1, 1)
    other = JetContext(1, 1, 1)
    for f in (other.gen(0), parse_ratfunc("1/(x1+1)", other, allow_new_vars=False)):
        with pytest.raises(ContextMismatchError):
            derive(ctx, 0, f)


def test_unknown_letter_rejected():
    ctx = JetContext(1, 1, 2)
    with pytest.raises(UnknownLetterError):
        derive(ctx, 1, ctx.gen(0))


def test_apply_twofold_word():
    # D(D(x^2)) = D(2x Dx) = 2(Dx)^2 + 2x D.Dx, expanded by hand
    ctx = JetContext(1, 1, 2)
    x = ctx.gen(0)
    dx = ctx.jet(0, (0,))
    ddx = ctx.jet(0, (0, 0))
    got = apply_operator(ctx, Operator.word((0, 0)), x**2)
    expected = MPoly.from_terms(
        ctx,
        [(((dx, 2),), Fraction(2)), (((0, 1), (ddx, 1)), Fraction(2))],
    )
    assert got.as_poly() == expected


def test_apply_linear_combination():
    ctx = JetContext(1, 2, 1)
    x = ctx.gen(0)
    op = Operator.from_terms([((0,), Fraction(1)), ((1,), Fraction(2))])
    d1x = RatFunc.var(ctx, ctx.jet(0, (0,)))
    d2x = RatFunc.var(ctx, ctx.jet(0, (1,)))
    assert apply_operator(ctx, op, x) == d1x + d2x.scale(2)


def test_length_two_words_are_not_derivations():
    # D.D(x*y) - (D.D x)*y - x*(D.D y) = 2 Dx Dy by hand expansion
    ctx = JetContext(2, 1, 2)
    x, y = ctx.gen(0), ctx.gen(1)
    dd = Operator.word((0, 0))
    violation = (
        apply_operator(ctx, dd, x * y)
        - apply_operator(ctx, dd, x) * y
        - x * apply_operator(ctx, dd, y)
    )
    dx = ctx.jet(ctx.gens[0], (0,))
    dy = ctx.jet(ctx.gens[1], (0,))
    expected = MPoly.from_terms(ctx, [(((dx, 1), (dy, 1)), Fraction(2))])
    assert violation.as_poly() == expected


def test_empty_word_is_identity():
    ctx = JetContext(1, 1, 1)
    x = ctx.gen(0)
    one = RatFunc.const(ctx, 1)
    assert apply_operator(ctx, Operator.word(()), x**2 + one) == x**2 + one


def test_leibniz_for_single_letters():
    rng = random.Random(5)
    ctx = JetContext(2, 2, 2)
    vars_ = ctx.gens + tuple(ctx.jet(g, (a,)) for g in ctx.gens for a in (0, 1))
    for _ in range(200):
        f = random_ratfunc_small_den(rng, ctx, vars_, max_terms=3, max_exp=2, span=4)
        g = random_ratfunc_small_den(rng, ctx, vars_, max_terms=3, max_exp=2, span=4)
        for letter in (0, 1):
            lhs = derive(ctx, letter, f * g)
            rhs = derive(ctx, letter, f) * g + f * derive(ctx, letter, g)
            assert lhs.num == rhs.num and lhs.den == rhs.den


def test_word_composition():
    rng = random.Random(6)
    ctx = JetContext(1, 2, 4)
    vars_ = ctx.gens
    for _ in range(40):
        total = rng.randint(2, 4)
        cut = rng.randint(1, total - 1)
        word = tuple(rng.randint(0, 1) for _ in range(total))
        w1, w2 = word[:cut], word[cut:]
        f = random_ratfunc_small_den(rng, ctx, vars_, max_terms=3, max_exp=2, span=4)
        whole = apply_operator(ctx, Operator.word(word), f)
        split = apply_operator(ctx, Operator.word(w1), apply_operator(ctx, Operator.word(w2), f))
        assert whole == split


def test_operator_additivity():
    rng = random.Random(7)
    ctx = JetContext(2, 2, 2)
    vars_ = ctx.gens
    op = Operator.from_terms([((0, 1), Fraction(3)), ((1,), Fraction(-1, 2))])
    for _ in range(50):
        f = random_ratfunc_small_den(rng, ctx, vars_, max_terms=3, den_vars=1)
        g = random_ratfunc_small_den(rng, ctx, vars_, max_terms=3, den_vars=1)
        assert apply_operator(ctx, op, f + g) == apply_operator(ctx, op, f) + apply_operator(ctx, op, g)


def test_letters_do_not_commute():
    ctx = JetContext(1, 2, 2)
    x = ctx.gen(0)
    ab = apply_operator(ctx, Operator.word((0, 1)), x)
    ba = apply_operator(ctx, Operator.word((1, 0)), x)
    assert ab != ba
    assert ab.as_poly().variables() != ba.as_poly().variables()


def test_word_length_guard_on_apply():
    ctx = JetContext(1, 1, 1)
    with pytest.raises(WordLengthError):
        apply_operator(ctx, Operator.word((0, 0)), ctx.gen(0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_a_letter_keeps_the_generator_of_a_symbol(data):
    """The grading lemma: one more letter on a symbol of generator g is a
    symbol of g, whose word is the letter before the old word.  So the
    Leibniz image of x^alpha has graded degree alpha_g in each g."""
    gens, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    word = tuple(data.draw(st.lists(st.integers(0, m - 1), max_size=3)))
    letter, g = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, gens - 1))
    ctx = JetContext(gens, m, len(word) + 1)
    v = ctx.jet(g, word) if word else ctx.gens[g]
    shifted = ctx.shifted_symbol(letter, v)
    assert ctx.base_of(shifted) == ctx.base_of(v) == g
    assert ctx.word_of(shifted) == (letter, *word)


def test_operator_canonicalization():
    op = Operator.from_terms([((0,), Fraction(1)), ((0,), Fraction(-1))])
    assert op.is_zero()
    op = Operator.from_terms([((0,), Fraction(2)), ((1, 0), Fraction(1))])
    assert op.words() == [(0,), (1, 0)]
    assert op.alphabet_span() == 2
    assert op.max_word_len() == 2


def test_operator_coefficients_are_ints_when_integral():
    # the polynomial layer's canonical type: int when integral, else Fraction
    half = Fraction(1, 2)
    cases = [
        (parse_operator("2*D1 - D2 + 3/2*D3"), {(0,): 2, (1,): -1, (2,): Fraction(3, 2)},
         "2*D1 - D2 + 3/2*D3"),
        (Operator.word((0, 1)), {(0, 1): 1}, "D1.D2"),
        (Operator.from_terms([((0,), Fraction(4, 2))]), {(0,): 2}, "2*D1"),
        (Operator.from_terms([((0,), half), ((1,), half), ((0,), half)]), {(0,): 1, (1,): half},
         "D1 + 1/2*D2"),
    ]
    for op, terms, text in cases:
        assert op.terms == terms
        assert [type(c) for c in op.terms.values()] == [type(c) for c in terms.values()]
        # equal to the operator built from Fractions, and rendered as before
        assert op == Operator({w: Fraction(c) for w, c in terms.items()})
        assert op.render() == text
