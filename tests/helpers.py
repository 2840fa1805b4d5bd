"""Shared generators for randomized tests (all seeded, all deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb, factorial

from hypothesis import strategies as st

from derivcover.jets import derive
from derivcover.poly import MPoly, RatFunc, VarRegistry


def to_sympy(p: MPoly):
    """p as a sympy expression in symbols named as p's variables."""
    import sympy

    total = sympy.Integer(0)
    for mono, c in p.sorted_terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= sympy.Symbol(p.reg.name(v)) ** e
        total += term
    return total


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


def formal_derivative(f: MPoly, v: int) -> MPoly:
    """d/dv of a polynomial in v alone."""
    unit = f.reg.unit(v)
    return MPoly.from_packed(
        f.reg, {m - unit: c * e for m, c in f.terms.items() for _, e in f.reg.exponents(m)}
    )


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


def random_ratfunc_factored_den(rng, reg, vars_, **kw) -> RatFunc:
    """Random fraction whose denominator is a product of one or two random
    binomials, each squared half the time, so that repeated and
    multivariate factors occur."""
    num = random_nonzero_poly(rng, reg, vars_, **kw)
    den = MPoly.const(reg, 1)
    for _ in range(rng.randint(1, 2)):
        factor = MPoly.const(reg, 0)
        while len(factor.terms) != 2:
            factor = random_poly(rng, reg, vars_, max_terms=2, max_exp=1, span=3)
        den = den * factor ** rng.randint(1, 2)
    return RatFunc.make(num, den)


# ---------------------------------------------------------------------------
# The folds that apply_operator and level_combination compute as packed sums
# on polynomials: each step is one RatFunc operation, and each sum is formed
# by adding one term at a time.


def folded_apply_operator(ctx, op, f: RatFunc) -> RatFunc:
    """op(f): each word's letters derived one at a time (rightmost first),
    and the scaled images added in Operator.words() order."""
    total = RatFunc.zero(ctx)
    for w in op.words():
        image = f
        for letter in reversed(w):
            image = derive(ctx, letter, image)
        total = total + image.scale(op.terms[w])
    return total


def folded_level_combination(n: int, a: RatFunc, values) -> RatFunc:
    """sum_{i=1..n} binom(n+1, i) (-1)^(n-i) (a^(n+1-i) v_i), one term at a
    time."""
    total = RatFunc.zero(a.reg)
    for i, value in zip(range(1, n + 1), values, strict=True):
        total = total + (a ** (n + 1 - i) * value).scale(comb(n + 1, i) * (-1) ** (n - i))
    return total


# ---------------------------------------------------------------------------
# Grammar-aware text strategies for the CLI.  Sizes stay small, so that every
# example ends in milliseconds: a power applies to a variable alone, because
# the power of a sum is where the term count grows.

# characters that neither grammar accepts anywhere
FOREIGN_CHARS = "²١éT#\u00a0\u3000"


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


# ---------------------------------------------------------------------------
# The Eulerian order oracle.  Letters act on products by the Leibniz rule, so
# words form the tensor algebra with the unshuffle coproduct.  Its Eulerian
# idempotents split an operator into parts pi_r, each made of symmetrized
# products of r Lie elements (Reutenauer, Free Lie Algebras, 1993, ch. 3;
# Loday, Expo. Math. 1994), and the order-n class is the sum of the images
# of pi_1 ... pi_n.  The oracle reads words as tuples and coefficients as
# Fractions: it shares no code with jets, partitions or polynomials.


def _set_partitions(k: int):
    """The partitions of range(k), as tuples of ascending blocks."""
    if k == 0:
        yield ()
        return
    for blocks in _set_partitions(k - 1):
        for i, block in enumerate(blocks):
            yield blocks[:i] + (block + (k - 1,),) + blocks[i + 1:]
        yield blocks + ((k - 1,),)


@cache
def _stirling_first(j: int, r: int) -> int:
    """The signed Stirling number of the first kind s(j, r)."""
    if j == 0 or r == 0:
        return int(j == r)
    return _stirling_first(j - 1, r - 1) - (j - 1) * _stirling_first(j - 1, r)


def eulerian_order(terms: dict[tuple[int, ...], Fraction]) -> int | None:
    """The largest r with pi_r(op) != 0 for the operator with these
    word: coefficient terms; 0 for the zero operator, and None when
    pi_0(op) != 0, that is, when op has an identity term and lies in no class.

    pi_r(w) = sum_j s(j, r)/j! S_j(w), where S_j(w) sums, over the
    surjections of w's positions onto 1..j, the concatenation of the
    subwords that the surjection sends to 1, ..., j.  A surjection is a set
    partition of the positions with its blocks in some order."""
    parts: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for w, c in terms.items():
        for blocks in _set_partitions(len(w)):
            j = len(blocks)
            weights = [(r, Fraction(s, factorial(j)))
                       for r in range(j + 1) if (s := _stirling_first(j, r))]
            for order in permutations(blocks):
                u = tuple(w[i] for block in order for i in block)
                for r, weight in weights:
                    part = parts.setdefault(r, {})
                    part[u] = part.get(u, 0) + c * weight
    orders = [r for r, part in parts.items() if any(part.values())]
    return None if 0 in orders else max(orders, default=0)
