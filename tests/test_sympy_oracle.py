"""Differential tests against sympy, which shares no code with derivcover.

Seeded random polynomials and rational functions in a few variables go
through derivcover's public API and through sympy: ring operations, exact
division and gcd against sympy.Poly and sympy.gcd, the reduced form of a
rational function against sympy.cancel, and the Leibniz action against a
chain rule written here with sympy.diff.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from derivcover.jets import JetContext, derive  # noqa: E402
from derivcover.poly import (  # noqa: E402
    MPoly,
    RatFunc,
    VarRegistry,
    div_exact,
    mpoly_gcd,
)

from helpers import random_nonzero_poly, random_poly, random_ratfunc_small_den  # noqa: E402


def to_sympy(p: MPoly) -> "sympy.Expr":
    total = sympy.Integer(0)
    for mono, c in p.sorted_terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= sympy.Symbol(p.reg.name(v)) ** e
        total += term
    return total


def ratfunc_to_sympy(f: RatFunc) -> "sympy.Expr":
    return to_sympy(f.num) / to_sympy(f.den)


def three_generators():
    reg = VarRegistry()
    vars_ = tuple(reg.add_generator(n) for n in ("a", "b", "c"))
    return reg, vars_, [sympy.Symbol(n) for n in ("a", "b", "c")]


def test_ring_operations_match_sympy():
    rng = random.Random(11)
    reg, vars_, gens = three_generators()
    for _ in range(40):
        f = random_poly(rng, reg, vars_, max_terms=5, max_exp=3, span=7)
        g = random_poly(rng, reg, vars_, max_terms=5, max_exp=3, span=7)
        F, G = sympy.Poly(to_sympy(f), *gens), sympy.Poly(to_sympy(g), *gens)
        assert sympy.Poly(to_sympy(f + g), *gens) == F + G
        assert sympy.Poly(to_sympy(f - g), *gens) == F - G
        assert sympy.Poly(to_sympy(f * g), *gens) == F * G
        k = rng.randint(0, 3)
        assert sympy.Poly(to_sympy(f**k), *gens) == F**k


def test_exact_division_and_gcd_match_sympy():
    rng = random.Random(12)
    reg, vars_, gens = three_generators()
    for _ in range(30):
        a = random_nonzero_poly(rng, reg, vars_, max_terms=3, max_exp=2)
        b = random_nonzero_poly(rng, reg, vars_, max_terms=3, max_exp=2)
        g = random_nonzero_poly(rng, reg, vars_, max_terms=3, max_exp=2)
        ag, bg = a * g, b * g
        q, r = sympy.div(sympy.Poly(to_sympy(ag), *gens), sympy.Poly(to_sympy(g), *gens))
        assert r.is_zero
        assert sympy.Poly(to_sympy(div_exact(ag, g)), *gens) == q
        ours = to_sympy(mpoly_gcd(ag, bg))
        theirs = sympy.gcd(to_sympy(ag), to_sympy(bg))
        unit = sympy.cancel(ours / theirs)
        assert unit.is_number and unit != 0


def test_ratfunc_canonical_form_matches_cancel():
    rng = random.Random(13)
    reg, vars_, gens = three_generators()
    checked = 0
    while checked < 30:
        g = random_nonzero_poly(rng, reg, vars_, max_terms=2, max_exp=2)
        num = random_poly(rng, reg, vars_, max_terms=3, max_exp=2) * g
        den = random_nonzero_poly(rng, reg, vars_, max_terms=3, max_exp=2) * g
        f = RatFunc.make(num, den)
        N, D = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        # same value, and a denominator equal to sympy's up to a constant
        assert sympy.expand(to_sympy(f.num) * D - N * to_sympy(f.den)) == 0
        unit = sympy.cancel(to_sympy(f.den) / D)
        assert unit.is_number and unit != 0
        checked += 1


def shifted_name(letter: int, name: str) -> str:
    """Name of D<letter>(s) for the symbol named `name`, e.g. D1 on
    `D2(x1)` is `D1.D2(x1)`."""
    prefix = f"D{letter + 1}"
    if "(" not in name:
        return f"{prefix}({name})"
    return f"{prefix}.{name}"


def sympy_derive(letter: int, expr: "sympy.Expr") -> "sympy.Expr":
    # Leibniz rule: D(f) = sum over the symbols s of f of df/ds * D(s)
    return sympy.cancel(
        sum(
            (sympy.diff(expr, s) * sympy.Symbol(shifted_name(letter, s.name))
             for s in expr.free_symbols),
            sympy.Integer(0),
        )
    )


def test_derive_matches_sympy_leibniz_rule():
    rng = random.Random(14)
    for _ in range(12):
        ctx = JetContext(2, 2, 2)
        f = random_ratfunc_small_den(rng, ctx, ctx.gens, max_terms=3, max_exp=2, span=4)
        first, second = rng.randrange(2), rng.randrange(2)
        ours = derive(ctx, second, derive(ctx, first, f))
        theirs = sympy_derive(second, sympy_derive(first, ratfunc_to_sympy(f)))
        assert sympy.cancel(ratfunc_to_sympy(ours) - theirs) == 0
