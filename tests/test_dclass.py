"""Membership defects, polarization, parity extraction, separation witnesses.

Hand-expansion oracles used below (single letter D, one generator x):
    D(x^2)   = 2x Dx
    D.D(x^2) = 2(Dx)^2 + 2x D.Dx
    D.D(x^3) = 6x(Dx)^2 + 3x^2 D.Dx
so the level-1 defect of D.D at x is
    D.D(x^2) - 2x D.Dx = 2(Dx)^2,
and the level-2 defect of D.D at x is
    D.D(x^3) - (-3x^2 D.Dx + 3x D.D(x^2)) = 0.
The multilinear level-1 defect of D.D is
    D.D(x1 x2) - x2 D.D(x1) - x1 D.D(x2) = 2 D(x1) D(x2).
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import given, settings, strategies as st

from derivcover import cli, dclass
from derivcover.dclass import (
    default_test_set,
    dn_defect,
    find_witness,
    inductive_subsum,
    is_in_dn,
    level_combination,
    odd_extraction_check,
    polarization_defect,
    probe_zero,
)
from derivcover.errors import (
    ContextMismatchError,
    PreconditionError,
    UnknownLetterError,
    WordLengthError,
)
from derivcover.jets import JetContext, Operator, apply_operator
from derivcover.parse import parse_operator, parse_ratfunc
from derivcover.poly import _MAX_EXP, MPoly, RatFunc, _dense_in

from helpers import _set_partitions, eulerian_order


D = Operator.word((0,))
DD = Operator.word((0, 0))


def test_single_letter_is_order_one():
    ctx = JetContext(1, 1, 1)
    assert dn_defect(ctx, D, 1, ctx.gen(0)).is_zero()


def test_twofold_word_defect_at_level_one():
    ctx = JetContext(1, 1, 2)
    defect = dn_defect(ctx, DD, 1, ctx.gen(0))
    dx = ctx.jet(0, (0,))
    assert defect.as_poly() == MPoly.from_terms(ctx, [(((dx, 2),), Fraction(2))])


def test_twofold_word_vanishes_at_level_two():
    ctx = JetContext(1, 1, 2)
    assert dn_defect(ctx, DD, 2, ctx.gen(0)).is_zero()


def test_membership_verdicts():
    assert is_in_dn(D, 1).in_dn
    for n in range(1, 6):
        verdict = is_in_dn(Operator.word((0,) * (n + 1)), n)
        assert not verdict.in_dn
        assert verdict.witness is not None
        assignment, value = verdict.witness
        assert value != 0
        assert verdict.defect.evaluate(assignment) == value


def test_length_two_word_in_level_three():
    # a two-letter word lies in the order-2 class, hence in order 3
    verdict = is_in_dn(Operator.word((0, 1)), 3)
    assert verdict.in_dn
    assert verdict.defect.is_zero()


def test_polarization_of_single_letter():
    assert polarization_defect(D, 1).is_zero()


def test_polarization_of_twofold_word():
    defect = polarization_defect(DD, 1)
    # fresh context inside: gens x1=0, x2=1, then D1(x1)=2, D1(x2)=3, ...
    expected = [(((2, 1), (3, 1)), Fraction(2))]
    assert defect.as_poly().sorted_terms() == expected
    assert polarization_defect(DD, 2).is_zero()


def test_polarization_matches_diagonal():
    # assigning every generator the same value per derivation word amounts to
    # substituting x2 = x1, which turns the multilinear defect into the
    # one-variable defect
    op = Operator.from_terms([((0, 0), Fraction(1)), ((1,), Fraction(2))])
    pd = polarization_defect(op, 1)
    ctx = pd.reg
    rng = random.Random(3)
    merged: dict = {}
    point = {}
    for v in ctx.symbols():
        key = ctx.word_of(v)  # () for the generators themselves
        if key not in merged:
            merged[key] = Fraction(rng.randint(-5, 5))
        point[v] = merged[key]
    ctx1 = JetContext(1, op.alphabet_span(), op.max_word_len())
    d1 = dn_defect(ctx1, op, 1, ctx1.gen(0))
    point1 = {v: merged[ctx1.word_of(v)] for v in ctx1.symbols()}
    assert pd.evaluate(point) == d1.evaluate(point1)


def test_odd_extraction_for_members():
    assert odd_extraction_check(D, 1)
    assert odd_extraction_check(DD, 2)
    assert odd_extraction_check(Operator.word((0, 1)), 2)


def test_odd_extraction_holds_for_nonmembers():
    # the grading lemma and the inclusion-exclusion use no membership
    nonmembers = [
        (DD, 1),
        (parse_operator("2*D2 + 1/2*D3.D1"), 1),
        (Operator.from_terms([((), 3), ((0,), 1)]), 1),  # an identity term
        (Operator.word((0, 1, 2)), 2),
    ]
    for op, n in nonmembers:
        assert not is_in_dn(op, n).in_dn, (op.render(), n)
        assert odd_extraction_check(op, n), (op.render(), n)


def test_odd_extraction_compares_with_the_closed_form(monkeypatch):
    real = dclass._polarization
    monkeypatch.setattr(
        dclass, "_polarization", lambda ctx, op, n: real(ctx, op, n) + ctx.gen(0)
    )
    for op, n in ((D, 1), (DD, 2), (Operator.word((0, 1)), 2)):
        assert not odd_extraction_check(op, n)


@pytest.mark.parametrize("exponents", [(2, 0), (3, 1)], ids=["even", "too-high"])
def test_odd_extraction_tests_the_grading_of_every_image(monkeypatch, exponents):
    # t = x2^a*x3^b added to F(x2*x3), with sign -1 and shifted by x1, and
    # x1*t added to F(x1*x2*x3), with sign +1, cancel in the signed sum: only
    # the grading test sees them.  x2^2 misses x3, and x2^3*x3 has degree 4
    real = dclass.apply_operator

    def skewed(ctx, op, f):
        image = real(ctx, op, f)
        if len(ctx.gens) == 3:
            x1, x2, x3 = (ctx.gen(i) for i in range(3))
            t = x2 ** exponents[0] * x3 ** exponents[1]
            if f == x2 * x3:
                return image + t
            if f == x1 * x2 * x3:
                return image + x1 * t
        return image

    monkeypatch.setattr(dclass, "apply_operator", skewed)
    assert not odd_extraction_check(DD, 2)


def test_inductive_subsum_vanishes():
    for n in range(1, 5):
        assert inductive_subsum(n).is_zero()


def test_separation_witness_level_one():
    assignment, value = is_in_dn(DD, 1).witness
    # defect 2(Dx)^2: Dx=1 is its first nonroot, x=0 and D.Dx=0 as they do not occur
    assert value == 2
    ctx_vars = sorted(assignment)
    assert [assignment[v] for v in ctx_vars] == [0, 1, 0]


def test_separation_witness_higher_levels():
    for n in (2, 4):
        op = Operator.word((0,) * (n + 1))
        assignment, value = is_in_dn(op, n).witness
        assert value != 0
        ctx = JetContext(1, 1, n + 1)
        defect = dn_defect(ctx, op, n, ctx.gen(0))
        assert defect.evaluate(assignment) == value


def test_defect_linearity_in_the_operator():
    rng = random.Random(9)
    ctx = JetContext(1, 2, 4)
    x = ctx.gen(0)
    words = [(0,), (1,), (0, 1), (1, 0), (0, 0)]
    for _ in range(20):
        u, v = rng.choice(words), rng.choice(words)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        n = rng.randint(1, 3)
        combo = dn_defect(ctx, Operator.from_terms([(u, a), (v, b)]), n, x)
        split = (
            dn_defect(ctx, Operator.word(u), n, x).scale(a)
            + dn_defect(ctx, Operator.word(v), n, x).scale(b)
        )
        assert combo == split


def test_word_inclusion_up_to_level_four():
    from itertools import permutations

    for length in (1, 2, 3, 4):
        for word in permutations(range(4), length):
            op = Operator.word(word)
            for n in range(length, 5):
                assert is_in_dn(op, n).in_dn
            assert is_in_dn(op, 5).in_dn


def test_distinct_word_of_length_seven():
    op = Operator.word(range(7))
    assert is_in_dn(op, 7).in_dn
    verdict = is_in_dn(op, 6)
    assert not verdict.in_dn
    assignment, value = verdict.witness
    assert value != 0
    assert verdict.defect.evaluate(assignment) == value


def test_strictness_ladder():
    for n in range(1, 6):
        op = Operator.word((0,) * (n + 1))
        assert not is_in_dn(op, n).in_dn
        assert is_in_dn(op, n + 1).in_dn


def test_polarization_iff_on_test_set():
    for op in default_test_set():
        for n in (1, 2, 3):
            member = is_in_dn(op, n).in_dn
            assert member == polarization_defect(op, n).is_zero()


def test_probe_agrees_with_symbolic_verdicts():
    for op in default_test_set()[:20]:
        for n in (1, 2):
            defect = is_in_dn(op, n).defect
            assert probe_zero(defect) == defect.is_zero()


def chain_witness(defect):
    """find_witness as the chain of lowest coefficients it was first built
    as: every factor is rebuilt at every symbol, from the highest index
    down, and every symbol is searched from 0 on the way back up."""

    def lowest_coefficient(f, v):
        return next(c for c in reversed(_dense_in(f, v)) if c)

    def univariate_at(f, v, values):
        shifts = f.reg._shift
        at = [(shifts[w], x) for w, x in values.items() if x and w != v]
        kept = _MAX_EXP | _MAX_EXP << shifts[v] | sum(_MAX_EXP << s for s, _ in at)
        out = {}
        for m, c in f.terms.items():
            if not m & ~kept:  # no variable at 0
                for s, x in at:
                    c *= x ** ((m >> s) & _MAX_EXP)
                e = (m >> shifts[v]) & _MAX_EXP
                out[e] = out.get(e, 0) + c
        return out

    chain = []
    factors = [defect.num] if defect.den.is_one() else [defect.num, defect.den]
    while variables := set().union(*(f.variables() for f in factors)):
        v = max(variables)
        chain.append((v, factors))
        factors = [lowest_coefficient(f, v) for f in factors]
    values = {}
    for v, factors in reversed(chain):
        rows = [univariate_at(f, v, values) for f in factors]
        values[v] = next(
            t for t in count() if all(sum(c * t**e for e, c in r.items()) for r in rows)
        )
    point = {v: Fraction(values.get(v, 0)) for v in defect.reg.symbols()}
    return point, defect.evaluate(point)


def test_find_witness_determinism():
    ctx = JetContext(1, 1, 2)
    defect = dn_defect(ctx, DD, 1, ctx.gen(0))
    assert find_witness(defect) == find_witness(defect)


def _degree_in(p, v):
    return max((e for mono, _ in p.sorted_terms() for w, e in mono if w == v), default=0)


def test_witnesses_are_built_on_the_grid():
    # every value is an integer in 0..deg_v of the defect, as constructed
    cases = [(op, n) for op in default_test_set() for n in (1, 2, 3)]
    cases += [(Operator.word(range(k)), k - 1) for k in range(2, 7)]
    refuted = 0
    for op, n in cases:
        verdict = is_in_dn(op, n)
        if verdict.in_dn:
            continue
        refuted += 1
        defect = verdict.defect
        assignment, value = verdict.witness
        assert sorted(assignment) == defect.reg.symbols()
        assert value != 0 and defect.evaluate(assignment) == value
        for v, x in assignment.items():
            degree = _degree_in(defect.num, v) + _degree_in(defect.den, v)
            assert x.denominator == 1 and 0 <= x <= degree, (op.render(), n)
    assert refuted > 20


def test_witness_skips_the_roots_below_the_degree():
    ctx = JetContext(1, 1, 1)
    dx = ctx.jet(0, (0,))
    defect = RatFunc.const(ctx, 1)
    for a in range(-3, 4):
        defect = defect * (RatFunc.var(ctx, dx) - RatFunc.const(ctx, a))
    assignment, value = find_witness(defect)
    assert assignment == {ctx.gens[0]: 0, dx: 4}
    assert value == 5040


def test_witness_searches_every_factor_that_holds_the_symbol():
    # (Dx - 1)/Dx: 0 is a root of the denominator and 1 of the numerator
    ctx = JetContext(1, 1, 1)
    dx = RatFunc.var(ctx, ctx.jet(0, (0,)))
    assignment, value = find_witness((dx - RatFunc.const(ctx, 1)) / dx)
    assert assignment == {ctx.gens[0]: 0, ctx.jet(0, (0,)): 2}
    assert value == Fraction(1, 2)


def test_zero_defect_has_no_witness():
    ctx = JetContext(1, 1, 2)
    with pytest.raises(PreconditionError):
        find_witness(dn_defect(ctx, D, 1, ctx.gen(0)))


def test_probe_zero_at_a_pole():
    ctx = JetContext(1, 1, 1)
    f = RatFunc.const(ctx, 1) / ctx.gen(0)
    assert probe_zero(f, seed=110) is False
    assert not any(probe_zero(f, seed=seed) for seed in range(400))
    assert probe_zero(f - f, seed=110)


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        is_in_dn(D, 0)
    with pytest.raises(ValueError):
        inductive_subsum(0)
    with pytest.raises(ValueError):
        polarization_defect(D, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"level must be >= 1, got {n}$"):
            odd_extraction_check(D, n)


# Operators with an identity (empty word) term, which act as c*f on f.
IDENTITY_TERM_OPS = [
    Operator.from_terms([((), Fraction(3)), ((0, 1), Fraction(-1, 2))]),
    Operator.from_terms([((), Fraction(1)), ((0,), Fraction(2))]),
    Operator.from_terms([((), Fraction(-2, 3)), ((0, 0, 0), Fraction(1)), ((2, 0, 2), Fraction(5))]),
]

# polynomials, and fractions over squarefree and repeated factors
ELEMENTS = [
    "x1", "x1^2-3*x1+1", "2*x1^3+x1/2", "(x1^2+x1)/(x1-2)", "1/(x1^2+1)", "x1/(x1^2-2)^3",
]

# At a fraction f = N/d, with r the product of d's distinct irreducible
# factors, a block u has an image over d*r^|u|, so the level-n defect sums
# the identity's f^(n+1) over d^(n+1) and the products of a word w over
# d^(n+1)*r^|w|: at level 1, three denominator groups.
SEVERAL_DENOMINATORS_OP = Operator.from_terms(
    [((), Fraction(1, 2)), ((1,), Fraction(-1)), ((0, 2), Fraction(2)), ((2, 1, 0), Fraction(3))]
)


def expanded_dn_defect(ctx, op, n, f, cache=None):
    """F(f^(n+1)) - sum_{i=1..n} binom(n+1, i) (-1)^(n-i) f^(n+1-i) F(f^i),
    with every F(f^i) expanded by the Leibniz action, word by word.  `cache`
    keeps each word's image of each power across calls on one f."""
    cache = {} if cache is None else cache

    def image(i):
        total = RatFunc.zero(ctx)
        for w, c in op.terms.items():
            if (w, i) not in cache:
                cache[w, i] = apply_operator(ctx, Operator.word(w), f**i)
            total = total + cache[w, i].scale(c)
        return total

    return image(n + 1) - level_combination(n, f, map(image, range(1, n + 1)))


def expanded_polarization_defect(ctx, op, n):
    """F(x1...x_{n+1}) - sum_k (-1)^(k+1) sum_{|T|=k} x_T F(x_{T^c}), term by term."""
    xs = [ctx.gen(i) for i in range(n + 1)]
    one = RatFunc.const(ctx, 1)
    rhs = RatFunc.zero(ctx)
    for k in range(1, n + 1):
        for chosen in combinations(range(n + 1), k):
            x_t = math.prod((xs[i] for i in chosen), start=one)
            rest = math.prod((xs[i] for i in range(n + 1) if i not in chosen), start=one)
            rhs = rhs + (x_t * apply_operator(ctx, op, rest)).scale((-1) ** (k + 1))
    return apply_operator(ctx, op, math.prod(xs, start=one)) - rhs


def _distinct_ops(seeds):
    ops = {}
    for seed in seeds:
        for op in default_test_set(seed=seed):
            ops.setdefault(op.render(), op)
    for op in IDENTITY_TERM_OPS:
        ops.setdefault(op.render(), op)
    return list(ops.values())


@pytest.mark.parametrize("element", ELEMENTS)
def test_dn_defect_matches_the_expansion(element):
    # the operators of default_test_set at seeds 0-2, each once, and the
    # identity-term operators, in one context: a symbol's name and its place
    # in the variable order do not depend on the context's bounds
    ctx = JetContext(1, 3, 3)
    f = parse_ratfunc(element, ctx, allow_new_vars=False)
    cache = {}
    for op in _distinct_ops((0, 1, 2)) + [SEVERAL_DENOMINATORS_OP]:
        for n in (1, 2, 3, 4):
            expected = expanded_dn_defect(ctx, op, n, f, cache).render()
            assert dn_defect(ctx, op, n, f).render() == expected, (op.render(), n)


def _allocated(ctx):
    return [ctx.name(v) for v in ctx.symbols()]


def _jet_by_jet(ctx, words):
    # the jet of every nonempty subword at every generator, asked for one at
    # a time in (length, word, generator) order
    subwords = {
        tuple(w[i] for i in positions)
        for w in words
        for r in range(1, len(w) + 1)
        for positions in combinations(range(len(w)), r)
    }
    for u in sorted(subwords, key=lambda u: (len(u), u)):
        for g in ctx.gens:
            ctx.jet(g, u)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.lists(st.integers(0, 3), max_size=6).map(tuple), min_size=1, max_size=3),
    st.booleans(),
)
def test_one_pass_placement_matches_jet_by_jet(k, words, filled):
    # place_subwords, which refuted membership checks and odd_extraction_check
    # call, leaves the same symbols, fields and names as asking for each jet;
    # also in a context the Leibniz action has filled, as a refuted check's is
    op = Operator.from_terms((w, Fraction(1)) for w in words)
    contexts = []
    for place in (JetContext.place_subwords, _jet_by_jet):
        ctx = JetContext(k, 4, 6)
        if filled:
            s = sum((ctx.gen(g) for g in range(k)), RatFunc.zero(ctx))
            apply_operator(ctx, op, s**2)
        place(ctx, op.terms)
        assert len(ctx._slots) == len(set(ctx._slots)) == ctx.num_vars
        contexts.append(ctx)
    one_pass, by_jet = contexts
    assert one_pass.symbols() == by_jet.symbols()
    assert one_pass._slots == by_jet._slots
    # the guard bit of every field, the total degree's included
    fields = range(one_pass.num_vars + 1)
    assert one_pass._guard == by_jet._guard == sum(1 << (16 * s + 15) for s in fields)
    assert [one_pass.name(v) for v in one_pass._slots] == [by_jet.name(v) for v in by_jet._slots]
    # a second pass places nothing, and no index is placed twice
    one_pass.place_subwords(op.terms)
    assert one_pass._slots == by_jet._slots
    with pytest.raises(ValueError):
        one_pass._place(one_pass._slots[-1])


def test_witness_assigns_every_jet_the_expansion_allocates():
    # repeated letters (D1.D1.D1, D3.D1.D3) reach each subword more than once;
    # a refuted check holds every jet the expansion allocates, and its witness
    # assigns them all, while one that holds keeps only what its defect reached
    ops = _distinct_ops((0, 3)) + [
        Operator.from_terms([((0, 0, 0), Fraction(1)), ((2, 0, 2), Fraction(-2))]),
        Operator.from_terms([((2, 0, 2, 0), Fraction(1)), ((1,), Fraction(1, 2))]),
    ]
    refuted = held = 0
    for op in ops:
        for n in (1, 2, 3):
            ctx = JetContext(1, op.alphabet_span(), op.max_word_len())
            expanded_dn_defect(ctx, op, n, ctx.gen(0))
            verdict = is_in_dn(op, n)
            if verdict.witness is not None:
                refuted += 1
                assert _allocated(verdict.defect.reg) == _allocated(ctx), (op.render(), n)
                assignment, _ = verdict.witness
                names = [ctx.name(v) for v in sorted(assignment)]
                assert names == _allocated(ctx), (op.render(), n)
            else:
                held += 1
                reached = set(_allocated(verdict.defect.reg))
                assert reached <= set(_allocated(ctx)), (op.render(), n)
            pctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
            expanded_polarization_defect(pctx, op, n)
            polar = polarization_defect(op, n)
            if polar.is_zero():
                assert set(_allocated(polar.reg)) <= set(_allocated(pctx)), (op.render(), n)
            else:
                assert _allocated(polar.reg) == _allocated(pctx), (op.render(), n)
    assert refuted > 20 and held > 20


def test_holds_verdict_allocates_only_what_it_reached():
    # D1...D7 has no partition into 8 blocks and D1...D5 none into 6, so
    # neither defect reaches a jet: only the generators are allocated
    assert is_in_dn(Operator.word(range(7)), 7).defect.reg.num_vars == 1
    assert polarization_defect(Operator.word(range(5)), 5).reg.num_vars == 6
    # a refuted check places the jet of every subword: 2^7 - 1 jets and x1
    assert is_in_dn(Operator.word(range(7)), 6).defect.reg.num_vars == 128
    # a Lie element's block part cancels across its words, so its defects
    # place no jet: [D1,D2] is in D_1, and [[[D1,D2],D3],D4] in D_1 and D_2
    # and the product of 5 brackets [D1,D2]...[D9,D10] is in D_5
    d1, d2, d3, d4 = (Operator.word((i,)) for i in range(4))
    for op, levels in [(_bracket(d1, d2), (1,)),
                       (_bracket(_bracket(_bracket(d1, d2), d3), d4), (1, 2)),
                       (_bracket_product(5), (5,))]:
        for n in levels:
            assert is_in_dn(op, n).defect.reg.num_vars == 1, (op.render(), n)
            assert polarization_defect(op, n).reg.num_vars == n + 1, (op.render(), n)


def _bracket(a, b):
    """The commutator a.b - b.a of two operators, word by word."""
    pairs = [(u, v, c * d) for u, c in a.terms.items() for v, d in b.terms.items()]
    return Operator.from_terms([(u + v, c) for u, v, c in pairs]
                               + [(v + u, -c) for u, v, c in pairs])


def _bracket_product(k):
    """[D1,D2].[D3,D4]...[D_{2k-1},D_{2k}], the composition of k disjoint
    brackets: 2^k words of length 2k that share one letter content."""
    terms = {(): 1}
    for i in range(0, 2 * k, 2):
        bracket = _bracket(Operator.word((i,)), Operator.word((i + 1,)))
        terms = {u + v: c * d for u, c in terms.items() for v, d in bracket.terms.items()}
    return Operator.from_terms(terms.items())


def test_words_cancel_where_they_meet(monkeypatch):
    # one sorted call per state formed, and one for the blocks: the 16 words
    # of [D1,D2]...[D7,D8] meet after each bracket and share their states (a
    # counter run on each word alone makes 28,545 calls), and a single word
    # forms as many states as it did alone (2,613 calls for D1...D8 at n=3)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(dclass, "sorted", counting, raising=False)
    part, _ = dclass._blocks(_bracket_product(4), 4)
    assert part == {} and len(calls) <= 1_000
    calls.clear()
    dclass._blocks(Operator.word(range(8)), 3)
    assert len(calls) == 2_613


def test_find_witness_matches_the_chain():
    # polynomial, polarization and fraction defects, and D1...D8 at level 3
    # with 1,701 terms in 218 symbols
    ops = _distinct_ops((0,))
    defects = []
    for op in ops:
        for n in (1, 2, 3):
            defects += [is_in_dn(op, n).defect, polarization_defect(op, n)]
    ctx = JetContext(2, 3, 3)
    for text in ("(x1^2+x1)/(x1-2)", "1/(x1+1)^2", "x2/(x1*x2+1)"):
        f = parse_ratfunc(text, ctx, allow_new_vars=False)
        defects += [dn_defect(ctx, op, 1, f) for op in ops]
    defects.append(is_in_dn(Operator.word(range(8)), 3).defect)
    refuted = [d for d in defects if not d.is_zero()]
    assert len(refuted) > 100 and sum(not d.den.is_one() for d in refuted) > 40
    for defect in refuted:
        assert find_witness(defect) == chain_witness(defect), defect.render()


def test_distinct_letter_word_closed_form():
    # one partition into k blocks, all singletons: the defect at level k-1 is
    # k! times the product of the first derivatives, and level k holds
    rng = random.Random(13)
    for k in range(2, 11):
        op = Operator.word(rng.sample(range(k), k))
        assert is_in_dn(op, k).in_dn
        factors = "*".join(f"D{i}(x1)" for i in range(1, k + 1))
        assert is_in_dn(op, k - 1).defect.render() == f"{math.factorial(k)}*{factors}"
    text = ".".join(f"D{i}" for i in range(1, 11))
    report = cli.run(["dn", "check", "--n", "10", "--max-n", "10", "--op", text])
    assert report.verdict == "holds"


def test_dn_defect_checks_its_inputs_without_a_partition():
    # level 3 is above every word length here, so no word has a partition
    # into 4 blocks; the inputs are still checked against the context
    ctx = JetContext(1, 2, 2)
    with pytest.raises(ContextMismatchError):
        dn_defect(ctx, DD, 3, JetContext(1, 2, 2).gen(0))
    assert dn_defect(ctx, Operator.word((1, 0)), 3, ctx.gen(0)).is_zero()
    # one word check: dn_defect raises for a word what ctx.jet raises for it
    for word in [(0, 1, 0), (2,), (0, 3), (2, 3), (3, 0, 0), (1, 1, 1, 1)]:
        with pytest.raises((UnknownLetterError, WordLengthError)) as jet_error:
            ctx.jet(0, word)
        with pytest.raises(jet_error.type) as defect_error:
            dn_defect(ctx, Operator.word(word), 3, ctx.gen(0))
        assert type(defect_error.value) is jet_error.type, word
        assert str(defect_error.value) == str(jet_error.value), word
    # the words are checked in Operator.words() order, so the shorter unfit
    # word is reported, not the unknown letter of the longer one
    two_unfit = parse_operator("D1.D1.D1 + D1.D1.D1.D3")
    with pytest.raises(WordLengthError) as err:
        dn_defect(ctx, two_unfit, 1, ctx.gen(0))
    assert str(err.value) == "word D1.D1.D1 exceeds max word length 2"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polarization_defect_matches_the_expansion(seed):
    for op in default_test_set(seed=seed) + IDENTITY_TERM_OPS:
        for n in (1, 2, 3):
            ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
            expected = expanded_polarization_defect(ctx, op, n).render()
            assert polarization_defect(op, n).render() == expected, (op.render(), n)


# ---------------------------------------------------------------------------
# The Eulerian order oracle (tests/helpers.py) against is_in_dn


def assert_eulerian_membership(op):
    """At every level from 1 to the longest word length + 1, op is in the
    order-n class exactly when pi_0(op) = 0 and pi_r(op) = 0 for all r > n."""
    order = eulerian_order(op.terms)
    for n in range(1, op.max_word_len() + 2):
        expected = order is not None and order <= n
        verdict = is_in_dn(op, n)
        assert verdict.in_dn == expected, (op.render(), n, order)
        # the rule dn_defect rests on: a member has no identity term and a
        # zero (n+1)-block part, and its defect places no jet
        nonzero = bool(dclass._blocks(op, n)[0]) or () in op.terms
        assert nonzero == (not expected), (op.render(), n)
        assert not expected or verdict.defect.reg.num_vars == 1, (op.render(), n)
    return order


@st.composite
def operators_on_3_letters(draw):
    """Up to two terms over D1-D3 with words of length 1 to 4, and in some
    examples the commutator of two words of length 1 or 2, whose longest
    words cancel once the letters commute, or a signed sum of 2 to 4
    distinct orderings of one multiset of 3 or 4 letters, whose words share
    block multisets."""
    coeff = st.integers(-3, 3).filter(bool)
    word = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(word, coeff), max_size=2))
    if draw(st.booleans()):
        short = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)
        a, b = draw(short), draw(short)
        terms += [(a + b, 1), (b + a, -1)]
    if draw(st.booleans()):
        letters = draw(st.lists(st.integers(0, 2), min_size=3, max_size=4)
                       .filter(lambda letters: len(set(letters)) > 1))
        orderings = st.permutations(letters).map(tuple)
        terms += draw(st.lists(st.tuples(orderings, coeff), min_size=2, max_size=4,
                               unique_by=lambda term: term[0]))
    return Operator.from_terms(terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(operators_on_3_letters())
def test_membership_matches_the_eulerian_order(op):
    assert_eulerian_membership(op)


def test_eulerian_order_of_commutators_and_an_identity_term():
    commutator = parse_operator("D1.D2 - D2.D1")
    triple = parse_operator("D1.D2.D3 - D2.D1.D3 - D3.D1.D2 + D3.D2.D1")
    identity = Operator.from_terms([((), 1), ((0,), 1)])
    orders = [assert_eulerian_membership(op) for op in (commutator, triple, identity)]
    assert orders == [1, 1, None]


@st.composite
def sums_of_words(draw):
    """(word, coefficient) pairs over 1 to 3 letters: a single word of length
    0 to 7, or a signed sum of up to 4 words of length 1 to 6 that are free,
    orderings of one letter multiset, a word and some of its suffixes, or a
    commutator a.b - b.a, whose partitions into singletons cancel."""
    m = draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, m - 1), min_size=1, max_size=6).map(tuple)
    coeff = st.integers(-3, 3).filter(bool)
    kind = draw(st.sampled_from(["word", "free", "orderings", "suffixes", "commutator"]))
    if kind == "word":
        return [(tuple(draw(st.lists(st.integers(0, m - 1), max_size=7))), 1)]
    word = draw(letters)
    if kind == "free":
        words = [word] + draw(st.lists(letters, max_size=3))
    elif kind == "orderings":
        words = draw(st.lists(st.permutations(word).map(tuple), min_size=2, max_size=4))
    elif kind == "suffixes":
        words = [word] + [word[i:] for i in draw(st.lists(st.integers(1, 5), max_size=3))
                          if i < len(word)]
    else:
        i = draw(st.integers(0, len(word)))
        c = draw(coeff)
        return [(word[i:] + word[:i], c), (word, -c)]
    return [(w, draw(coeff)) for w in words]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sums_of_words())
def test_block_counts_match_the_enumerated_partitions(terms):
    # every set partition of each word's positions, grouped by its sorted
    # block subwords and weighted by the word's coefficient; r = 8 has none
    enumerated = Counter()
    for word, c in terms:
        for blocks in _set_partitions(len(word)):
            enumerated[tuple(sorted(tuple(word[i] for i in block) for block in blocks))] += c
    op = Operator.from_terms(terms)
    for r in range(1, 9):
        expected = {blocks: ways for blocks, ways in enumerated.items()
                    if len(blocks) == r and ways}
        assert dclass._blocks(op, r - 1)[0] == expected, (op.render(), r)


@pytest.mark.parametrize("k, r", [(12, 5), (14, 6)])
def test_repeated_letter_counts_are_partial_bell_coefficients(k, r):
    # the blocks of D1^k are powers of D1, and the partitions of k positions
    # into r blocks with m_j blocks of size j are the coefficient of
    # prod x_j^m_j in the partial Bell polynomial B_{k,r} (Comtet, Advanced
    # Combinatorics, 3.3)
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{k - r + 2}")
    bell = sympy.Poly(sympy.bell(k, r, xs), *xs)
    counts = {}
    for blocks, ways in dclass._blocks(Operator.word((0,) * k), r - 1)[0].items():
        sizes = Counter(map(len, blocks))
        counts[tuple(sizes[j] for j in range(1, k - r + 2))] = ways
    assert counts == {m: int(c) for m, c in bell.terms()}


def test_repeated_letter_defect_counts_every_partition():
    # S(12, 5) partitions into 13 multisets, one defect term each
    assert sum(dclass._blocks(Operator.word((0,) * 12), 4)[0].values()) == 1_379_400
    verdict = is_in_dn(Operator.word((0,) * 12), 4)
    assert not verdict.in_dn and len(verdict.defect.num.terms) == 13


@pytest.mark.parametrize("k, n", [(4, 1), (8, 3)])
def test_defects_place_their_jets_in_index_order(k, n):
    # blocks of different lengths: the short jets, which every product reads,
    # take the low packed fields, in index order
    op = Operator.word(range(k))
    ctx = JetContext(1, k, k)
    assert not dn_defect(ctx, op, n, ctx.gen(0)).is_zero()
    assert ctx._slots == sorted(ctx._slots)
    ctx = JetContext(n + 1, k, k)
    assert not dclass._polarization(ctx, op, n).is_zero()
    assert ctx._slots == sorted(ctx._slots)


def test_mean_key_width_of_large_refuted_defects():
    # a packed key is as wide as its highest field; these bounds pin the
    # index-order placement (jets reached in recursion order gave 4,217 and
    # 9,396 bits)
    def mean_bits(p):
        return sum(m.bit_length() for m in p.terms) / len(p.terms)

    assert mean_bits(is_in_dn(Operator.word(range(9)), 4).defect.num) <= 1721
    assert mean_bits(polarization_defect(Operator.word(range(8)), 3).num) <= 5436
