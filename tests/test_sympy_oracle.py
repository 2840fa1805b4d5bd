"""Differential tests against sympy, which shares no code with derivcover.

Seeded random polynomials and rational functions in a few variables go
through derivcover's public API and through sympy: ring operations, exact
division and gcd against sympy.Poly and sympy.gcd, the reduced form of a
rational function against sympy.cancel, the Leibniz action against a
chain rule written here with sympy.diff, and the affine-relation solver
and the suite's evaluation-rank oracle against the kernel of a coefficient
matrix that sympy builds and solves.  The verdicts of is_in_dn and
polarization_defect are checked in concrete models, where the letters are
vector fields on Q[y1, y2, y3] applied with sympy.diff.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from derivcover.cli import run  # noqa: E402
from derivcover.cosets import affine_relation  # noqa: E402
from derivcover.dclass import (  # noqa: E402
    default_test_set,
    is_in_dn,
    polarization_defect,
)
from derivcover.errors import ExactDivisionError  # noqa: E402
from derivcover.jets import JetContext, derive  # noqa: E402
from derivcover.parse import parse_func_list, parse_operator  # noqa: E402
from derivcover.poly import (  # noqa: E402
    MPoly,
    RatFunc,
    VarRegistry,
    div_exact,
    mpoly_gcd,
)
from derivcover.suite import _has_relation  # noqa: E402

from helpers import (  # noqa: E402
    formal_derivative,
    random_nonzero_poly,
    random_poly,
    random_ratfunc_factored_den,
    random_ratfunc_small_den,
    to_sympy,
)


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
    # a single term with a Fraction coefficient takes the one-term power path
    term = MPoly.from_terms(reg, [(((vars_[0], 2), (vars_[2], 1)), Fraction(-3, 2))])
    for k in range(1, 5):
        assert sympy.Poly(to_sympy(term**k), *gens) == sympy.Poly(to_sympy(term), *gens) ** k
    # a zero operand: powers, scalings by zero and sums are the zero
    # polynomial (no terms) or the other operand, term for term
    zero = MPoly.zero(reg)
    for k in range(1, 4):
        assert zero**k == zero
    for c in (0, Fraction(0)):
        assert term.scale(c) == zero
    assert term + zero == zero + term == term


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
    # a constant on either side, and parts in disjoint variables once the
    # common monomial is split off: the gcd is primitive and is sympy's up to
    # a unit
    a, b, c = (MPoly.var(reg, v) for v in vars_)
    one = MPoly.const(reg, 1)
    cases = [
        (MPoly.const(reg, 6), a * b + one, one),
        (a * a.scale(Fraction(1, 2)), MPoly.const(reg, -4), one),
        (a + one, b.scale(2) + c, one),
        (a * a * (b + one), a.scale(3) * (c - one), a),
        (a * b * (b + one), (a * b * c).scale(-2) + a * b, a * b),
    ]
    for x, y, gcd in cases:
        for pair in ((x, y), (y, x)):
            ours = mpoly_gcd(*pair)
            assert ours == gcd
            unit = sympy.cancel(to_sympy(ours) / sympy.gcd(*map(to_sympy, pair)))
            assert unit.is_number and unit != 0


def test_univariate_gcd_matches_sympy():
    # seven pairs each with a planted common factor, with a squared factor
    # next to its derivative, and drawn independently
    rng = random.Random(17)
    reg = VarRegistry()
    t = reg.add_generator("t")
    kw = dict(max_terms=4, max_exp=5, span=9)
    for i in range(21):
        a, b, g = (random_nonzero_poly(rng, reg, (t,), **kw) for _ in range(3))
        if i % 3 == 0:
            a, b = a * g, b * g
        elif i % 3 == 1:
            a = a * g * g
            b = formal_derivative(a, t) if a.total_degree() else g
        ours = to_sympy(mpoly_gcd(a, b))
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
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
        f = a * d + MPoly.from_terms(reg, [extra.sorted_terms()[0]])
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
    # a zero numerator over a constant and over a nonconstant denominator is 0/1
    zero = MPoly.zero(reg)
    for d in (MPoly.const(reg, -6), MPoly.var(reg, vars_[1]).scale(-2) + MPoly.const(reg, 4)):
        f = RatFunc.make(zero, d)
        assert (f.num, f.den) == (zero, MPoly.const(reg, 1))
        assert sympy.fraction(sympy.cancel(0 / to_sympy(d))) == (0, 1)


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
    # denominators with repeated and multivariate factors, one letter each,
    # as sympy's cancel of a second image of these takes about 0.3 s
    rng = random.Random(15)
    for _ in range(4):
        ctx = JetContext(2, 2, 1)
        f = random_ratfunc_factored_den(rng, ctx, ctx.gens, max_terms=3, max_exp=2, span=4)
        letter = rng.randrange(2)
        theirs = sympy_derive(letter, ratfunc_to_sympy(f))
        assert sympy.cancel(ratfunc_to_sympy(derive(ctx, letter, f)) - theirs) == 0
    # a polynomial is the quotient rule's case den = 1: its image is the
    # Leibniz image over 1
    ctx = JetContext(2, 2, 2)
    f = RatFunc.from_poly(random_nonzero_poly(rng, ctx, ctx.gens, max_terms=3, max_exp=2))
    for letter in range(2):
        ours = derive(ctx, letter, f)
        assert ours.den.is_one()
        assert sympy.expand(to_sympy(ours.num) - sympy_derive(letter, to_sympy(f.num))) == 0


# Terms of the tuples below: polynomials in t, or partial fractions in t.
POLYNOMIAL_TERMS = ("1", "t", "t^2", "t^3")
FRACTION_TERMS = ("1", "t", "1/(t - 1)", "1/(t + 2)^2", "t/(t^2 - 3)")


# The same in t and u, which no oracle of the suite covers.
TU_POLYNOMIAL_TERMS = ("1", "t", "u", "t*u", "t^2 - u")
TU_FRACTION_TERMS = ("1", "t", "u", "1/(t - u)", "t/(u^2 + 1)", "1/(t*u - 2)")


def random_tuple(
    rng: random.Random, families: tuple = (POLYNOMIAL_TERMS, FRACTION_TERMS)
) -> list[str]:
    """Seeded tuple texts.  Each entry is a small integer combination of one
    family's terms.  Most tuples of two or three plant a relation: their last
    entry is a combination of the others plus a constant."""
    terms = rng.choice(families)
    vectors = [[rng.randint(-2, 2) for _ in terms] for _ in range(rng.randint(1, 3))]
    if len(vectors) > 1 and rng.random() < 0.7:
        weights = [rng.randint(-2, 2) for _ in vectors[:-1]]
        last = [sum(w * v[j] for w, v in zip(weights, vectors)) for j in range(len(terms))]
        last[0] += rng.randint(-3, 3)
        vectors[-1] = last
    return [" + ".join(f"({c})*({t})" for c, t in zip(v, terms)) for v in vectors]


def sympy_has_relation(exprs: list, *gens: "sympy.Symbol") -> bool:
    """e1*f1 + ... + en*fn = e0 with e1..en not all zero, decided from the
    kernel of the coefficient matrix of (f1*D, ..., fn*D, D) over the
    monomials in gens, where D clears every denominator."""
    common = sympy.lcm([sympy.fraction(sympy.cancel(f))[1] for f in exprs])
    columns = [sympy.Poly(sympy.cancel(f * common), *gens) for f in exprs]
    columns.append(sympy.Poly(common, *gens))
    monomials = sorted({m for c in columns for m in c.monoms()})
    matrix = sympy.Matrix([[c.coeff_monomial(m) for c in columns] for m in monomials])
    return any(any(vec[:-1]) for vec in matrix.nullspace())


def assert_relation_holds(relation, exprs: list, texts: list[str]) -> None:
    total = sum(
        (sympy.Rational(c.numerator, c.denominator) * f
         for c, f in zip(relation.coefficients, exprs)),
        -sympy.Rational(relation.constant.numerator, relation.constant.denominator),
    )
    assert sympy.cancel(total) == 0, texts


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
            assert_relation_holds(relation, exprs, texts)
    assert found[True] >= 15 and found[False] >= 15


def test_two_variable_coset_check_matches_sympy_nullspace():
    # the suite's evaluation-rank oracle takes one variable, so sympy's
    # kernel over the monomials in t and u is the only oracle here
    rng = random.Random(16)
    t, u = sympy.symbols("t u")
    found = {True: 0, False: 0}
    for _ in range(32):
        texts = random_tuple(rng, (TU_POLYNOMIAL_TERMS, TU_FRACTION_TERMS))
        exprs = [sympy.sympify(text.replace("^", "**")) for text in texts]
        expected = sympy_has_relation(exprs, t, u)
        report = run(["coset", "check", "--funcs", ",".join(texts)])
        assert report.verdict == ("refuted" if expected else "holds"), texts
        relation = affine_relation(parse_func_list(",".join(texts)))
        assert (relation is not None) == expected, texts
        found[expected] += 1
        if relation is not None:
            assert_relation_holds(relation, exprs, texts)
    assert found[True] >= 12 and found[False] >= 12


# Concrete models of the free letters: D1..D3 as vector fields
# sum_j p_ij(y) d/dy_j on Q[y1, y2, y3] with seeded coefficients of degree 2,
# applied with sympy.diff.  A zero generic defect must vanish in every model
# (the jets module's witness principle); a nonzero one should not vanish in
# all three seeded models.
Y = sympy.symbols("y1:4")
MONOMIALS_TO_DEGREE_2 = sorted(sympy.itermonomials(Y, 2), key=sympy.default_sort_key)


def seeded_poly(rng: random.Random, terms: int) -> "sympy.Poly":
    """A polynomial of degree 2 with `terms` seeded nonzero integer terms."""
    while True:
        chosen = rng.sample(MONOMIALS_TO_DEGREE_2, terms)
        expr = sum(rng.choice((-2, -1, 1, 2, 3)) * m for m in chosen)
        p = sympy.Poly(expr, *Y, domain="ZZ")
        if p.total_degree() == 2:
            return p


class VectorFieldModel:
    """Letters as seeded vector fields; images of words are memoised per
    (word, element), an element being given by a hashable key."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.fields = [[seeded_poly(rng, 3) for _ in Y] for _ in range(3)]
        self.elements = [seeded_poly(rng, 3) for _ in range(4)]
        self._images: dict = {}

    def apply_word(self, word: tuple, key, p: "sympy.Poly") -> "sympy.Poly":
        # the rightmost letter applies first
        if not word:
            return p
        if (word, key) not in self._images:
            inner = self.apply_word(word[1:], key, p)
            field = self.fields[word[0]]
            self._images[word, key] = sum(
                (c * sympy.diff(inner, v) for c, v in zip(field, Y)),
                sympy.Poly(0, *Y, domain="ZZ"),
            )
        return self._images[word, key]

    def apply(self, op, key, p: "sympy.Poly") -> "sympy.Poly":
        """op applied to p, times the lcm of op's denominators, which keeps
        every coefficient an integer and does not change which defects are
        zero."""
        scale = math.lcm(*(c.denominator for c in op.terms.values()))
        return sum(
            (self.apply_word(w, key, p) * int(c * scale) for w, c in op.terms.items()),
            sympy.Poly(0, *Y, domain="ZZ"),
        )

    def dn_defect(self, op, n: int) -> "sympy.Poly":
        """F(a^(n+1)) - sum_{i=1..n} binom(n+1, i) (-1)^(n-i) a^(n+1-i) F(a^i)."""
        a = self.elements[0]
        total = self.apply(op, ("power", n + 1), a ** (n + 1))
        for i in range(1, n + 1):
            c = math.comb(n + 1, i) * (-1) ** (n - i)
            total -= a ** (n + 1 - i) * self.apply(op, ("power", i), a**i) * c
        return total

    def polarization_defect(self, op, n: int) -> "sympy.Poly":
        """sum over nonempty S of {0..n} of (-1)^(n+1-|S|) a_{not S} F(a_S),
        with a_S the product of the elements a_t for t in S."""
        one = sympy.Poly(1, *Y, domain="ZZ")
        total = sympy.Poly(0, *Y, domain="ZZ")
        for size in range(1, n + 2):
            for subset in itertools.combinations(range(n + 1), size):
                inside = math.prod((self.elements[t] for t in subset), start=one)
                outside = math.prod(
                    (self.elements[t] for t in range(n + 1) if t not in subset), start=one
                )
                image = self.apply(op, ("product", subset), inside)
                total += outside * image * (-1) ** (n + 1 - size)
        return total


def test_generic_verdict_matches_vector_field_models():
    # D1.D2.D3 - D3.D2.D1 is zero once the letters commute, but not in D_1
    special = [
        parse_operator(text)
        for text in (
            "D1.D2 - D2.D1",
            "D1.D2.D3 - D2.D1.D3 - D3.D1.D2 + D3.D2.D1",
            "D1.D1.D1",
            "D1.D2.D3 - D3.D2.D1",
        )
    ]
    rng = random.Random(20)
    drawn = rng.sample([(op, n) for op in default_test_set(seed=0) for n in (1, 2, 3)], 18)
    pairs = drawn + [(op, n) for op in special for n in (1, 2, 3)]
    models = [VectorFieldModel(seed) for seed in (1, 2, 3)]
    seen = {True: 0, False: 0}
    for op, n in pairs:
        in_dn = is_in_dn(op, n).in_dn
        values = [model.dn_defect(op, n).is_zero for model in models]
        assert all(values) if in_dn else not all(values), (op.render(), n)
        seen[in_dn] += 1
    assert seen[True] >= 10 and seen[False] >= 10
    polarized = {True: 0, False: 0}
    for op, n in pairs[::3]:
        zero = polarization_defect(op, n).is_zero()
        values = [model.polarization_defect(op, n).is_zero for model in models]
        assert all(values) if zero else not all(values), (op.render(), n)
        polarized[zero] += 1
    assert polarized[True] >= 3 and polarized[False] >= 3
