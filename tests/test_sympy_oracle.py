"""Differential tests against sympy, which shares no code with derivcover.

Seeded random polynomials and rational functions in a few variables go
through derivcover's public API and through sympy: ring operations, exact
division and gcd against sympy.Poly and sympy.gcd, the reduced form of a
rational function against sympy.cancel, the Leibniz action against a
chain rule written here with sympy.diff, and the affine-relation solver
and the suite's evaluation-rank oracle against the kernel of a coefficient
matrix that sympy builds and solves.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from derivcover.cosets import affine_relation  # noqa: E402
from derivcover.errors import ExactDivisionError  # noqa: E402
from derivcover.jets import JetContext, derive  # noqa: E402
from derivcover.parse import parse_func_list  # noqa: E402
from derivcover.poly import (  # noqa: E402
    MPoly,
    RatFunc,
    VarRegistry,
    div_exact,
    mpoly_gcd,
)
from derivcover.suite import _has_relation  # noqa: E402

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


def fraction_division_registries():
    reg, vars_, _ = three_generators()
    yield reg, vars_
    # jets allocated against index order, so the packed order differs too
    ctx = JetContext(2, alphabet_size=2, max_word_len=2)
    yield ctx, (ctx.jet(1, (1, 1)), ctx.jet(0, (1,)), ctx.jet(1, (0,)), ctx.gens[0])


@pytest.mark.parametrize("reg, vars_", fraction_division_registries(), ids=["gens", "jets"])
def test_exact_division_with_fraction_coefficients(reg, vars_):
    rng = random.Random(16)
    gens = [sympy.Symbol(reg.name(v)) for v in vars_]
    refused = 0
    for _ in range(25):
        a, d, extra = (
            random_nonzero_poly(rng, reg, vars_, max_terms=3, fractions=True)
            for _ in range(3)
        )
        assert div_exact(a * d, d) == a
        # one more term, which usually leaves a remainder
        f = a * d + MPoly.from_terms(reg, [extra.leading()])
        _, r = sympy.div(sympy.Poly(to_sympy(f), *gens), sympy.Poly(to_sympy(d), *gens))
        if r.is_zero:
            assert div_exact(f, d) * d == f
        else:
            with pytest.raises(ExactDivisionError):
                div_exact(f, d)
            refused += 1
    assert refused >= 15


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


# Terms of the tuples below: polynomials in t, or partial fractions in t.
POLYNOMIAL_TERMS = ("1", "t", "t^2", "t^3")
FRACTION_TERMS = ("1", "t", "1/(t - 1)", "1/(t + 2)^2", "t/(t^2 - 3)")


def random_tuple(rng: random.Random) -> list[str]:
    """Seeded tuple texts.  Each entry is a small integer combination of one
    family's terms.  Most tuples of two or three plant a relation: their last
    entry is a combination of the others plus a constant."""
    terms = rng.choice((POLYNOMIAL_TERMS, FRACTION_TERMS))
    vectors = [[rng.randint(-2, 2) for _ in terms] for _ in range(rng.randint(1, 3))]
    if len(vectors) > 1 and rng.random() < 0.7:
        weights = [rng.randint(-2, 2) for _ in vectors[:-1]]
        last = [sum(w * v[j] for w, v in zip(weights, vectors)) for j in range(len(terms))]
        last[0] += rng.randint(-3, 3)
        vectors[-1] = last
    return [" + ".join(f"({c})*({t})" for c, t in zip(v, terms)) for v in vectors]


def sympy_has_relation(exprs: list, t: "sympy.Symbol") -> bool:
    """e1*f1 + ... + en*fn = e0 with e1..en not all zero, decided from the
    kernel of the coefficient matrix of (f1*D, ..., fn*D, D) over the
    powers of t, where D clears every denominator."""
    common = sympy.lcm([sympy.fraction(sympy.cancel(f))[1] for f in exprs])
    columns = [sympy.Poly(sympy.cancel(f * common), t) for f in exprs]
    columns.append(sympy.Poly(common, t))
    degree = max(c.degree() for c in columns)
    matrix = sympy.Matrix(
        [[c.coeff_monomial(t**k) for c in columns] for k in range(degree + 1)]
    )
    return any(any(vec[:-1]) for vec in matrix.nullspace())


def test_affine_relation_matches_sympy_nullspace():
    rng = random.Random(15)
    t = sympy.Symbol("t")
    found = {True: 0, False: 0}
    for _ in range(48):
        texts = random_tuple(rng)
        exprs = [sympy.sympify(text.replace("^", "**")) for text in texts]
        funcs = parse_func_list(",".join(texts))
        relation = affine_relation(funcs)
        expected = sympy_has_relation(exprs, t)
        assert (relation is not None) == expected, texts
        assert _has_relation(funcs) == expected, texts
        found[relation is not None] += 1
        if relation is not None:
            total = sum(
                (sympy.Rational(c.numerator, c.denominator) * f
                 for c, f in zip(relation.coefficients, exprs)),
                -sympy.Rational(relation.constant.numerator, relation.constant.denominator),
            )
            assert sympy.cancel(total) == 0, texts
    assert found[True] >= 15 and found[False] >= 15
