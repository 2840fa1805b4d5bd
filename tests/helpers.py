"""Shared generators for randomized tests (all seeded, all deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from derivcover.poly import MPoly, RatFunc, VarRegistry


def random_fraction(rng: random.Random, span: int = 9, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_poly(
    rng: random.Random,
    reg: VarRegistry,
    vars_: tuple[int, ...],
    *,
    max_terms: int = 4,
    max_exp: int = 2,
    span: int = 5,
    fractions: bool = False,
) -> MPoly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(
            (v, e) for v in sorted(vars_) if (e := rng.randint(0, max_exp)) > 0
        )
        c = random_fraction(rng, span) if fractions else Fraction(rng.randint(-span, span))
        terms.append((mono, c))
    return MPoly.from_terms(reg, terms)


def random_nonzero_poly(rng, reg, vars_, **kw) -> MPoly:
    while True:
        p = random_poly(rng, reg, vars_, **kw)
        if not p.is_zero():
            return p


def random_ratfunc(rng, reg, vars_, **kw) -> RatFunc:
    num = random_poly(rng, reg, vars_, **kw)
    den = random_nonzero_poly(rng, reg, vars_, **kw)
    return RatFunc.make(num, den)


def random_ratfunc_small_den(
    rng, reg, vars_, *, frac_prob: float = 0.3, den_vars: int = 2, **kw
) -> RatFunc:
    """Random function that is usually a polynomial; when it is a fraction the
    denominator is short, keeping repeated quotient-rule reductions cheap."""
    num = random_poly(rng, reg, vars_, **kw)
    if rng.random() >= frac_prob:
        return RatFunc.from_poly(num)
    den = random_nonzero_poly(
        rng, reg, vars_[:den_vars], max_terms=2, max_exp=1, span=3
    )
    return RatFunc.make(num, den)


# ---------------------------------------------------------------------------
# Grammar-aware text strategies for the CLI.  Sizes stay small, so that every
# example ends in milliseconds: a power applies to a variable alone, because
# the power of a sum is where the term count grows.

# characters that neither grammar accepts anywhere
FOREIGN_CHARS = "²١éT#"


@st.composite
def _with_foreign_char(draw, text: st.SearchStrategy[str]) -> str:
    """text, or in some examples text with one FOREIGN_CHARS character
    inserted at a random position."""
    s = draw(text)
    if draw(st.booleans()):
        return s
    i = draw(st.integers(0, len(s)))
    return s[:i] + draw(st.sampled_from(FOREIGN_CHARS)) + s[i:]


def _function_text(depth: int) -> st.SearchStrategy[str]:
    """Text of a function over at most t, u, v: exponents up to 5, and
    parentheses nested at most depth deep."""
    leaf = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from("tuv"),
        st.builds("{}^{}".format, st.sampled_from("tuv"), st.integers(0, 5)),
    )
    if depth == 0:
        return leaf
    inner = _function_text(depth - 1)
    return st.one_of(
        leaf,
        st.builds("-({})".format, inner),
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
    )


def operator_text() -> st.SearchStrategy[str]:
    """An --op value: at most 3 terms over words of at most 3 letters from
    D1-D3, each with an optional small rational coefficient."""
    word = st.lists(st.sampled_from(["D1", "D2", "D3"]), min_size=1, max_size=3).map(".".join)
    coeff = st.one_of(
        st.just(""),
        st.integers(0, 9).map("{}*".format),
        st.builds("{}/{}*".format, st.integers(0, 9), st.integers(1, 4)),
    )
    term = st.builds("{}{}".format, coeff, word)
    tail = st.lists(st.tuples(st.sampled_from([" + ", " - "]), term), max_size=2)
    text = st.builds(
        lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
        st.sampled_from(["", "-"]),
        term,
        tail,
    )
    return _with_foreign_char(text)


def function_list_text() -> st.SearchStrategy[str]:
    """A --funcs value: one to three functions, comma separated."""
    funcs = st.lists(_function_text(3), min_size=1, max_size=3).map(",".join)
    return _with_foreign_char(funcs)
