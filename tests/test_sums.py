"""The packed sums of apply_operator and level_combination against the folds
they replace on polynomials (helpers.folded_apply_operator and
helpers.folded_level_combination): equal values on polynomials and
fractions, and the same exception with the same text on bad input."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from derivcover.dclass import level_combination
from derivcover.errors import ContextMismatchError, UnknownLetterError, WordLengthError
from derivcover.jets import JetContext, Operator, apply_operator
from derivcover.parse import parse_operator
from derivcover.poly import RatFunc

from helpers import (
    folded_apply_operator,
    folded_level_combination,
    random_nonzero_poly,
    random_ratfunc_factored_den,
)


def outcome(fn, *args):
    """fn's value, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def element(rng: random.Random, ctx, vars_, rational: bool) -> RatFunc:
    """A random nonzero polynomial, or a fraction whose denominator is a
    product of binomials, with integral and fractional coefficients."""
    if rational:
        return random_ratfunc_factored_den(rng, ctx, vars_, fractions=True)
    return RatFunc.from_poly(random_nonzero_poly(rng, ctx, vars_, fractions=True))


COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]


@st.composite
def operators(draw):
    """One to three terms over D1-D3 with words of length 0 (the identity) to
    2, and in some examples a word l.w next to a drawn word w, so that two
    words share a suffix."""
    word = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    coeff = st.sampled_from(COEFFS)
    terms = draw(st.lists(st.tuples(word, coeff), min_size=1, max_size=3))
    if draw(st.booleans()):
        terms.append(((draw(st.integers(0, 2)),) + terms[0][0], draw(coeff)))
    return Operator.from_terms(terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(operators(), st.integers(0, 2**16), st.booleans(), st.booleans())
def test_apply_operator_matches_the_fold(op, seed, rational, with_jet):
    # a jet in f makes some words too long for the context: both raise then
    ctx = JetContext(2, 3, 3)
    vars_ = ctx.gens + ((ctx.jet(1, (2,)),) if with_jet else ())
    f = element(random.Random(seed), ctx, vars_, rational)
    assert outcome(apply_operator, ctx, op, f) == outcome(folded_apply_operator, ctx, op, f)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**16), st.lists(st.booleans(), min_size=5, max_size=5))
def test_level_combination_matches_the_fold(n, seed, rational):
    ctx = JetContext(3)
    rng = random.Random(seed)
    a = element(rng, ctx, ctx.gens[:2], rational[0])
    values = [element(rng, ctx, ctx.gens, r) for r in rational[1 : n + 1]]
    # the values arrive one at a time, as from a generator
    assert level_combination(n, a, iter(values)) == folded_level_combination(n, a, values)


def test_foreign_context_errors_match_the_fold():
    # a polynomial's outcomes are the fold's; a fraction takes the same
    # ones, where the fold returned a value from the other context for an
    # operator with an identity term
    home, away = JetContext(1, 2, 2), JetContext(1, 2, 2)
    x, one = away.gen(0), RatFunc.const(away, 1)
    ops = [
        Operator.word((0,)),
        Operator.zero(),
        Operator.from_terms([((), 3)]),  # the identity times 3
        Operator.from_terms([((), 1), ((1,), 2)]),
    ]
    assert [outcome(apply_operator, home, op, x * x) for op in ops] == [
        outcome(folded_apply_operator, home, op, x * x) for op in ops
    ]
    registries = (ContextMismatchError, "polynomials belong to different registries")
    for f in (x * x, one / (x + one)):
        outcomes = [outcome(apply_operator, home, op, f) for op in ops]
        assert outcomes == [
            (ContextMismatchError, "rational function does not live in this context"),
            RatFunc.zero(home),
            registries,
            registries,
        ], f


def test_the_first_unfit_word_is_reported():
    ctx = JetContext(1, 2, 2)
    x, one = ctx.gen(0), RatFunc.const(ctx, 1)
    cases = {
        # words() order: D2.D3 (length 2) before D1.D1.D1
        "D1.D1.D1 + D2.D3": (UnknownLetterError, "letter D3 outside alphabet of size 2"),
        "D2.D2.D3 + D1.D1.D1": (WordLengthError, "word D1.D1.D1 exceeds max word length 2"),
    }
    for text, error in cases.items():
        op = parse_operator(text)
        for f in (x**3, x / (x + one)):
            assert outcome(apply_operator, ctx, op, f) == error, (text, f)
            assert outcome(folded_apply_operator, ctx, op, f) == error, (text, f)


def test_level_combination_takes_exactly_n_values():
    ctx = JetContext(3)
    x, one = ctx.gen(0), RatFunc.const(ctx, 1)
    for a in (x, x / (x + one)):
        for n in (1, 2, 3):
            for count in (n - 1, n + 1):
                values = [ctx.gen(1)] * count
                got = outcome(level_combination, n, a, iter(values))
                assert got == outcome(folded_level_combination, n, a, iter(values))
                assert got[0] is ValueError and "zip() argument 2" in got[1]
