"""Membership defects for the order-n derivation classes.

An additive map F belongs to the order-n class when
F(a^(n+1)) = sum_{i=1..n} binom(n+1, i) (-1)^(n-i) a^(n+1-i) F(a^i) for all a.
Everything here reduces that quantified identity to a single polynomial
computation at a generic point of a free jet context: the defect (left side
minus right side) is the machine certificate.  Zero defect certifies the
identity for every complex instantiation; a nonzero defect comes with a
rational witness assignment, built by find_witness at small integers.

The defect is computed from its closed form, not by expanding F(f^(n+1)).
A word w of derivations acts on a power by the unshuffle rule,
w(f^j) = sum_r (j)_r f^(j-r) sum_{pi in Pi_r(w)} prod_{B in pi} (w|_B)(f),
where Pi_r(w) holds the set partitions of w's positions into r blocks and
w|_B keeps the letters of block B in order.  The identity's combination of
the falling factorials (i)_r is the (n+1)-th finite difference of a degree-r
polynomial at 0: (n+1)! for r = n+1 and 0 for every other r >= 1.  Only the
partitions into exactly n+1 blocks survive, so a word shorter than n+1
contributes nothing, and a word of length n+1 one product.  Partitions with
equal multisets of block subwords give equal products, so op's (n+1)-block
part is counted by block multiset, its words read together, so words cancel
where they meet (_blocks), and a multiset whose sum is zero forms nothing.
The multilinear (polarized) form keeps the surjections of w's positions onto
the n+1 generators, by inclusion-exclusion over the generators that receive
no letter.  An identity term c (the empty word) contributes (-1)^n c f^(n+1).

Order matters for the class hierarchy: the classes grow with n, and the
(n+1)-fold iterate of a single derivation letter separates level n+1 from
level n.  The parity extraction connecting the two forms reads only the
squarefree monomials x_S of s = x1+...+x_{n+1}: a letter sends a jet of a
generator to a jet of the same one, so F(x^alpha) has graded degree alpha_g
in each generator g (the grading lemma; odd_extraction_check).
"""

# Annotations are evaluated, not postponed, so NamedTuple type hints resolve.

import math
import random
from fractions import Fraction
from itertools import combinations, count, permutations, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import ContextMismatchError, PreconditionError
from .jets import JetContext, Operator, Word, apply_operator
from .poly import Coeff, MPoly, RatFunc, add_product, add_scaled

DEFAULT_LEVEL_CAP = 6
PROBE_POINTS = 5  # probe_zero: seeded points per identity test
TEST_SET_LETTERS = 3  # default_test_set: letters of the word alphabet

Assignment = dict[int, Fraction]


class MembershipVerdict(NamedTuple):
    """Outcome of a class-membership check.

    in_dn is true exactly when the defect is the zero fraction; for nonzero
    defects a witness (assignment, nonzero value) is attached.
    """

    in_dn: bool
    defect: RatFunc
    witness: tuple[Assignment, Fraction] | None = None

    @classmethod
    def of(cls, defect: RatFunc) -> "MembershipVerdict":
        """The verdict a defect gives, with a witness when it is nonzero."""
        if defect.is_zero():
            return cls(True, defect)
        return cls(False, defect, find_witness(defect))


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")


def level_coefficient(n: int, i: int) -> int:
    """binom(n+1, i) (-1)^(n-i): the weight of f^(n+1-i) F(f^i) in the
    order-n identity."""
    return -math.comb(n + 1, i) if (n - i) % 2 else math.comb(n + 1, i)


def level_combination(n: int, a: RatFunc, values: Iterable[RatFunc]) -> RatFunc:
    """sum_{i=1..n} binom(n+1, i) (-1)^(n-i) a^(n+1-i) v_i: the right side of
    the order-n identity, with v_i in the place of F(a^i).  Takes the n values
    one at a time, so a generator of them keeps only one alive.

    When a and v_i are both polynomials, the term's product a^(n+1-i) v_i is
    added into one packed dict; the others are added one at a time."""
    terms: dict[int, Coeff] = {}
    total = RatFunc.zero(a.reg)
    for i, value in zip(range(1, n + 1), values, strict=True):
        c = level_coefficient(n, i)
        if a.den.is_one() and value.den.is_one():
            add_product(terms, a.num ** (n + 1 - i), value.num, c)
        else:
            total = total + (a ** (n + 1 - i) * value).scale(c)
    return total + RatFunc.from_poly(MPoly.from_packed(a.reg, terms))


def _blocks(op: Operator, n: int) -> tuple[dict[tuple[Word, ...], Coeff], list[Word]]:
    """op's (n+1)-block part, sum_w c_w Pi_{n+1}(w) counted by block multiset
    with no zero sums, and its blocks with all their suffixes, in jet index
    order.  The words are read together, right-aligned: a letter opens a block
    or joins an open one, and equal states merge, so words cancel where they meet."""
    states: dict[Word, dict[tuple[Word, ...], Coeff]] = {}  # unread suffix -> open blocks -> sum
    for left in range(op.max_word_len() + 1, 0, -1):  # left: letters of each suffix in states
        step = {w: {(): c} for w, c in op.terms.items() if len(w) == left - 1 > n}  # words enter
        for word, opened in states.items():
            letter, into = word[:1], step.setdefault(word[1:], {})
            for state, ways in opened.items():
                grown = [state + (letter,)] if len(state) <= n else []
                if left + len(state) > n + 1:  # enough letters left to open the rest
                    grown += [state[:j] + (u + letter,) + state[j + 1 :]
                              for j, u in enumerate(state)]
                for new in map(tuple, map(sorted, grown)):
                    into[new] = into.get(new, 0) + ways
                    if not into[new]:  # words cancel where they meet
                        del into[new]
        states = step
    part = states.get((), {})
    dealt = {u[i:] for multiset in part for u in multiset for i in range(len(u))}
    return part, sorted(dealt, key=lambda u: (len(u), u))


def dn_defect(ctx: JetContext, op: Operator, n: int, f: RatFunc) -> RatFunc:
    """Defect of the order-n identity for op at the element f.

    F(f^(n+1)) minus the prescribed combination of f^(n+1-i) F(f^i), zero
    iff op satisfies the identity at f.  Computed as
    (n+1)! sum_w c_w sum_{pi in Pi_{n+1}(w)} prod_{B in pi} (w|_B)(f)
    + (-1)^n c_() f^(n+1): the finite difference of the falling factorials
    (i)_r in the unshuffle expansion of w(f^i) cancels every partition into
    fewer or more than n+1 blocks (module docstring).  Each multiset of
    op's (n+1)-block part gives one product, times its coefficient, and
    each block's image is built once, from its suffix's, in jet index order
    (_blocks).  With f over d, a block's image u(f) lies over d r^|u|
    (jets.derive), so a product of blocks of total length k lies over
    d^(n+1) r^k, and f^(n+1) over d^(n+1) is the case k = 0.  So one loop
    adds each numerator into one packed dict per total length
    (add_product), takes its denominator from the length's first multiset,
    and reduces each length's sum once (RatFunc.make).  A polynomial has
    d = r = 1.  Linear in op.  f must live in ctx, and each of op's words,
    in Operator.words() order, must pass ctx.check_word, the check behind
    ctx.jet, also when the block part is zero.
    """
    _check_level(n)
    if f.reg is not ctx:
        raise ContextMismatchError("the element does not live in this context")
    for w in op.words():
        ctx.check_word(w)
    part, dealt = _blocks(op, n)
    image = {(): f}
    for u in dealt:  # u's first letter applied to the image of its suffix
        image[u] = apply_operator(ctx, Operator.word(u[:1]), image[u[1:]])
    scale = math.factorial(n + 1)
    one = MPoly.const(ctx, 1)
    sums: dict[int, tuple[MPoly, dict[int, Coeff]]] = {}  # total length -> (den, numerators)
    if () in op.terms:  # the identity has no partition; it contributes f^(n+1)
        sums[0] = f.den ** (n + 1), {}
        add_scaled(sums[0][1], f.num ** (n + 1), op.terms[()] * (-1) ** n)
    for blocks, c in part.items():
        k = sum(map(len, blocks))
        if k not in sums:  # every product of this length shares its denominator
            dens = [image[u].den for u in blocks]
            sums[k] = math.prod([d for d in dens if not d.is_one()], start=one), {}
        factors = [image[u].num for u in blocks]
        add_product(sums[k][1], math.prod(factors[1:-1], start=factors[0]), factors[-1], c * scale)
    parts = (RatFunc.make(MPoly.from_packed(ctx, terms), den) for den, terms in sums.values())
    return sum(parts, start=RatFunc.zero(ctx))


def is_in_dn(op: Operator, n: int) -> MembershipVerdict:
    """Decide membership at a generic point (one fresh generator).

    The generic point is universal for word-algebra operators: the defect is
    a polynomial in free jet symbols, so it vanishes identically iff the
    identity holds for all complex numbers and all derivations.  Distinct
    block multisets are distinct jet monomials, so op holds exactly when it
    has no identity term and a zero (n+1)-block part (_blocks), and a holds
    verdict allocates no jet.  Before a nonzero defect's witness is built,
    the jet of every subword of op's words is placed, in one pass
    (JetContext.place_subwords), as the Leibniz action on F(f^(n+1)) reaches
    them all, so the witness assigns every jet that any term of that
    expansion reads.  A jet's index depends only on its generator and word,
    so placing after the defect changes no symbol.  dn_defect checks the
    level.
    """
    ctx = JetContext(1, op.alphabet_span(), op.max_word_len())
    defect = dn_defect(ctx, op, n, ctx.gen(0))
    if not defect.is_zero():
        ctx.place_subwords(op.terms)
    return MembershipVerdict.of(defect)


def polarization_defect(op: Operator, n: int) -> RatFunc:
    """Defect of the multilinear identity for op at n+1 fresh generators.

    F(x1...x_{n+1}) minus the multilinear combination, zero iff the
    polarized identity holds at level n.  Computed as
    sum_w c_w sum_phi prod_t (w|_{phi^-1(t)})(x_t) + (-1)^n c_() x1...x_{n+1},
    with phi running over the surjections of w's positions onto the
    generators: w(x_S) spreads w's letters over the generators of S, and the
    signed sum over the S that contain a map's image vanishes unless that
    image is every generator (inclusion-exclusion).  A surjection is a
    partition into n+1 blocks with the blocks dealt to the generators in
    some order, and each factor is one jet symbol, so every term is a
    squarefree monomial in the jets; each multiset of op's (n+1)-block part
    is dealt in every order, times its coefficient (_blocks), so a holds
    verdict allocates only the generators, and, as in is_in_dn, the jet of
    every subword is placed at every generator only for a nonzero defect.
    """
    _check_level(n)
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    defect = _polarization(ctx, op, n)
    if not defect.is_zero():
        ctx.place_subwords(op.terms)
    return defect


def _polarization(ctx: JetContext, op: Operator, n: int) -> RatFunc:
    """polarization_defect in ctx, a context of n+1 generators; it places
    only the jets of the blocks that _blocks lists, in that order."""
    gens = range(n + 1)
    part, dealt = _blocks(op, n)
    units = {u: [ctx.unit(ctx.jet(g, u)) for g in gens] for u in dealt}  # u's packed jets
    terms: dict[int, Coeff] = {}
    if () in op.terms:
        terms[sum(map(ctx.unit, ctx.gens))] = op.terms[()] * (-1) ** n
    for blocks, c in part.items():
        rows = [units[u] for u in blocks]
        for order in permutations(gens):
            m = sum(row[g] for g, row in zip(order, rows))
            terms[m] = terms.get(m, 0) + c
    return RatFunc.from_poly(MPoly.from_packed(ctx, terms))


def odd_extraction_check(op: Operator, n: int) -> bool:
    """Verify the parity-extraction step linking the two identities.

    With s = x1+...+x_{n+1}, the part of F(s^(n+1)) odd in every generator
    must be (n+1)! F(x1...x_{n+1}), and the same part of the right side of
    the order-n identity (n+1)! times the multilinear combination.  Both
    hold for every word operator; the paper uses them on members.  By the
    grading lemma (module docstring) a term x^beta F(x^gamma) of either side
    has graded degree beta + gamma, and odd in each of the n+1 generators at
    total degree n+1 leaves beta + gamma = (1, ..., 1).  So the left part
    holds when each F(x_S) has graded degree 1 in each generator of S and 0
    in the rest, and the right part, with the multinomials (n+1-|S|)! |S|!, when
    sum_{S nonempty} (-1)^(n+1-|S|) x^(S^c) F(x_S) is the closed form of
    polarization_defect.  So op is applied to the 2^(n+1) - 1 monomials
    x_S, each image term is tested for that grading, and the signed sum is
    compared with the closed form.  The test reads each generator's jet
    fields, so the jet of every subword is placed first, at every generator
    (JetContext.place_subwords): every jet an image reaches is among them.
    """
    _check_level(n)
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    ctx.place_subwords(op.terms)  # every jet an image reaches, for the masks below
    closed = _polarization(ctx, op, n).as_poly()
    low = [0] * (n + 1)  # the lowest bit of the field of each jet of a generator
    for v in ctx.symbols():
        low[ctx.base_of(v)] |= ctx.unit(v) - 1
    units = [ctx.unit(g) for g in ctx.gens]
    terms: dict[int, Coeff] = {}
    for size in range(1, n + 2):
        for subset in combinations(range(n + 1), size):
            x_s = sum(units[g] for g in subset)
            image = apply_operator(ctx, op, RatFunc.from_poly(MPoly(ctx, {x_s: 1}))).num
            # an odd-power jet of each g in S, total degree <= |S|: degree 1 in S, 0 elsewhere
            if image.total_degree() > size or not all(
                m & low[g] for m in image.terms for g in subset
            ):
                return False
            sign, rest = (-1) ** (n + 1 - size), sum(units) - x_s
            for m, c in image.terms.items():
                terms[m + rest] = terms.get(m + rest, 0) + sign * c
    return MPoly.from_packed(ctx, terms) == closed


def inductive_subsum(n: int) -> RatFunc:
    """The cross-term sum showing one derivation letter iterated n+1 times
    satisfies the order-(n+1) identity:
    sum_{i=1..n+1} binom(n+2, i) (-1)^(n+1-i) D(x^(n+2-i)) D^n(x^i).

    Vanishes identically; callers assert the returned fraction is zero.
    """
    _check_level(n)
    ctx = JetContext(1, 1, n)
    x = ctx.gen(0)
    single = Operator.word((0,))
    iterated = Operator.word((0,) * n)
    total = RatFunc.zero(ctx)
    for i in range(1, n + 2):
        c = level_coefficient(n + 1, i)
        term = apply_operator(ctx, single, x ** (n + 2 - i)) * apply_operator(
            ctx, iterated, x**i
        )
        total = total + term.scale(c)
    return total


def find_witness(defect: RatFunc) -> tuple[Assignment, Fraction]:
    """A point of every allocated symbol where a nonzero defect is defined
    and nonzero, with the defect's value there.

    Built for P = num * den, without forming the product.  Order each
    factor's monomials lexicographically, comparing exponents from the
    symbol of highest index down, and let low be the lowest.  For a symbol
    v, let f_v be the factor's terms that agree with low above v, with the
    symbols above v set aside: the factor's lowest coefficient in each
    symbol above v in turn, from the highest down.  The symbols get values
    from the lowest index up, so that every f_v is nonzero at the values
    given so far.  Unless v divides low, f_v at v = 0 is f_u for the symbol
    u just below v (below every symbol, low's coefficient), so a symbol
    that divides no factor's low gets 0 without any evaluation.  Any other
    symbol gets the first of 1, 2, ..., deg_v P where every f_v is nonzero.
    Each f_v is a nonzero polynomial in v there, and 0 is a root of their
    product, which has degree at most deg_v P; so one of those values is
    not a root (the grid argument behind the Combinatorial Nullstellensatz).
    Each term is read once, and the search at v evaluates only the terms
    that agree with low above v.
    """
    if defect.is_zero():
        raise PreconditionError("a zero defect has no witness")
    factors = [defect.num] if defect.den.is_one() else [defect.num, defect.den]
    searched: set[int] = set()
    parted = []  # each factor's terms as (parting, monomial, coefficient)
    for f in factors:
        # (symbol, exponent) pairs from the highest symbol down, so that
        # comparing the tuples is the lexicographic order
        terms = [
            (tuple(sorted(f.reg.exponents(m), reverse=True)), c) for m, c in f.terms.items()
        ]
        low = min(key for key, _ in terms)
        searched.update(v for v, _ in low)
        terms = [(_parting(key, low), key, c) for key, c in terms]
        parted.append(sorted(terms, key=itemgetter(0)))
    values: dict[int, int] = {}  # the nonzero values; every other symbol is at 0
    for v in sorted(searched):
        rows = [_row(terms, v, values) for terms in parted]
        values[v] = next(
            t for t in count(1) if all(sum(c * t**e for e, c in r.items()) for r in rows)
        )
    zero = Fraction(0)  # one shared value for every symbol left at 0
    point = {v: Fraction(values[v]) if v in values else zero for v in defect.reg.symbols()}
    return point, defect.evaluate(point)


def _parting(key: tuple, low: tuple) -> int:
    """The highest symbol where the monomial key differs from low, or -1."""
    for a, b in zip(key, low):
        if a != b:
            return max(a[0], b[0])
    rest = key[len(low) :] or low[len(key) :]
    return rest[0][0] if rest else -1


def _row(terms: list, v: int, values: dict[int, int]) -> dict[int, Coeff]:
    """f_v of find_witness as a polynomial in v alone (exponent ->
    coefficient), with the symbols below v at their values or at 0; terms
    are one factor's, sorted by their parting symbol."""
    out: dict[int, Coeff] = {}
    for parting, key, c in terms:
        if parting > v:
            break
        k = 0
        for u, e in key:
            if u == v:
                k = e
            elif u < v:
                x = values.get(u)
                if x is None:
                    break
                c *= x**e
        else:
            out[k] = out.get(k, 0) + c
    return out


def probe_zero(f: RatFunc, *, seed: int = 0) -> bool:
    """Randomized identity test: evaluate at seeded rational points.

    Returns True when f vanished at every probe point.  Independent of the
    symbolic path: uses only polynomial evaluation.  Only the numerator is
    evaluated, so a point where the denominator vanishes does no harm.
    """
    rng = random.Random(seed)
    occurring = sorted(set(f.num.variables()) | set(f.den.variables()))
    for _ in range(PROBE_POINTS):
        assignment = {
            v: Fraction(rng.randint(-99, 99), rng.randint(1, 7)) for v in occurring
        }
        if f.num.evaluate(assignment) != 0:
            return False
    return True


def default_test_set(*, seed: int = 0) -> list[Operator]:
    """Fixed operator battery: all words of length <= 3 over TEST_SET_LETTERS letters,
    plus five seeded two-term rational combinations of short words."""
    letters = range(TEST_SET_LETTERS)
    words = [w for length in (1, 2, 3) for w in product(letters, repeat=length)]
    ops = [Operator.word(w) for w in words]
    rng = random.Random(seed)
    short = [w for w in words if len(w) <= 2]
    coeffs = [Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "3/2")]
    for _ in range(5):
        w1, w2 = rng.sample(short, 2)
        c1, c2 = rng.choice(coeffs), rng.choice(coeffs)
        ops.append(Operator.from_terms([(w1, c1), (w2, c2)]))
    return ops

