"""Membership defects for the order-n derivation classes.

An additive map F belongs to the order-n class when
F(a^(n+1)) = sum_{i=1..n} binom(n+1, i) (-1)^(n-i) a^(n+1-i) F(a^i) for all a.
Everything here reduces that quantified identity to a single polynomial
computation at a generic point of a free jet context: the defect (left side
minus right side) is the machine certificate.  Zero defect certifies the
identity for every complex instantiation; a nonzero defect comes with a
rational witness assignment, built by find_witness at small integers.

Order matters for the class hierarchy: the classes grow with n, and the
(n+1)-fold iterate of a single derivation letter separates level n+1 from
level n.  The multilinear (polarized) form of the same identity and the
parity-extraction argument connecting the two are implemented alongside.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Iterable, Sequence

from .errors import PreconditionError
from .jets import JetContext, Operator, apply_operator, odd_component
from .poly import RatFunc, lowest_coefficient, univariate_at

DEFAULT_LEVEL_CAP = 6
PROBE_POINTS = 5  # probe_zero: seeded points per identity test
TEST_SET_LETTERS = 3  # default_test_set: letters of the word alphabet

Assignment = dict[int, Fraction]


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a class-membership check.

    in_dn is true exactly when the defect is the zero fraction; for nonzero
    defects a witness (assignment, nonzero value) is attached.
    """

    in_dn: bool
    defect: RatFunc
    witness: tuple[Assignment, Fraction] | None = None

    @classmethod
    def of(cls, defect: RatFunc) -> MembershipVerdict:
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
    one at a time, so a generator of them keeps only one alive."""
    total = RatFunc.zero(a.reg)
    for i, value in zip(range(1, n + 1), values, strict=True):
        c = level_coefficient(n, i)
        total = total + (a ** (n + 1 - i) * value).scale(c)
    return total


def dn_defect(ctx: JetContext, op: Operator, n: int, f: RatFunc) -> RatFunc:
    """Defect of the order-n identity for op at the element f.

    Returns F(f^(n+1)) minus the prescribed combination of f^(n+1-i) F(f^i);
    zero iff op satisfies the identity at f.  Linear in op.
    """
    _check_level(n)
    lhs = apply_operator(ctx, op, f ** (n + 1))
    images = (apply_operator(ctx, op, f**i) for i in range(1, n + 1))
    return lhs - level_combination(n, f, images)


def is_in_dn(op: Operator, n: int) -> MembershipVerdict:
    """Decide membership at a generic point (one fresh generator).

    The generic point is universal for word-algebra operators: the defect is
    a polynomial in free jet symbols, so it vanishes identically iff the
    identity holds for all complex numbers and all derivations.
    """
    _check_level(n)
    ctx = JetContext(1, op.alphabet_span(), op.max_word_len())
    return MembershipVerdict.of(dn_defect(ctx, op, n, ctx.gen(0)))


def _polarized(ctx: JetContext, op: Operator, xs: Sequence[RatFunc]) -> RatFunc:
    """F(x1...x_{n+1}) minus the multilinear combination
    sum_k (-1)^(k+1) sum_{|T|=k} x_T F(x_rest), as one signed sum over the
    proper subsets T of the generators: sum_T (-1)^|T| x_T F(x_rest)."""
    # products[mask] multiplies the xs[i] whose bit i is set in mask
    products = [RatFunc.const(ctx, 1)]
    for x in xs:
        products += [p * x for p in products]
    everything = len(products) - 1
    total = RatFunc.zero(ctx)
    for mask in range(everything):  # the proper subsets T
        term = products[mask] * apply_operator(ctx, op, products[everything ^ mask])
        total = total - term if mask.bit_count() % 2 else total + term
    return total


def polarization_defect(op: Operator, n: int) -> RatFunc:
    """Defect of the multilinear identity for op at n+1 fresh generators.

    Returns F(x1...x_{n+1}) minus the multilinear combination; zero iff the
    polarized identity holds at level n.
    """
    _check_level(n)
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    return _polarized(ctx, op, [ctx.gen(i) for i in range(n + 1)])


def odd_extraction_check(op: Operator, n: int) -> bool:
    """Verify the parity-extraction step linking the two identities.

    With s = x1+...+x_{n+1}: the part of F(s^(n+1)) odd in every generator
    must be (n+1)! F(x1...x_{n+1}), and the same extraction applied to the
    right side of the order-n identity must give (n+1)! times the multilinear
    combination.  Requires op to satisfy the order-n identity.
    """
    if not is_in_dn(op, n).in_dn:
        raise PreconditionError(
            "parity extraction is only asserted for members of the class"
        )
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    xs = [ctx.gen(i) for i in range(n + 1)]
    s = sum(xs, RatFunc.zero(ctx))
    factorial = math.factorial(n + 1)
    left = odd_component(apply_operator(ctx, op, s ** (n + 1)).as_poly())
    whole = apply_operator(ctx, op, math.prod(xs[1:], start=xs[0]))
    if left != whole.scale(factorial).as_poly():
        return False
    images = (apply_operator(ctx, op, s**i) for i in range(1, n + 1))
    right = odd_component(level_combination(n, s, images).as_poly())
    right_target = (whole - _polarized(ctx, op, xs)).scale(factorial)
    return right == right_target.as_poly()


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

    Built for P = num * den, without forming the product: take the symbol
    v of highest index in P, write P = sum_k c_k v^k, build a point for the
    lowest nonzero c_k with every other symbol at 0, and give v the first of
    0, 1, ..., deg_v P where P is nonzero.  There P is a nonzero polynomial
    in v of degree at most deg_v P, so one of those values is not a root
    (the grid argument behind the Combinatorial Nullstellensatz).
    """
    if defect.is_zero():
        raise PreconditionError("a zero defect has no witness")
    chain = []  # (v, the factors v was taken from), outermost first
    factors = [defect.num] if defect.den.is_one() else [defect.num, defect.den]
    while variables := set().union(*(f.variables() for f in factors)):
        v = max(variables)
        chain.append((v, factors))
        factors = [lowest_coefficient(f, v) for f in factors]
    values: dict[int, int] = {}  # a symbol without a value is at 0
    for v, factors in reversed(chain):
        rows = [univariate_at(f, v, values) for f in factors]
        values[v] = next(
            t for t in count() if all(sum(c * t**e for e, c in r.items()) for r in rows)
        )
    point = {v: Fraction(values.get(v, 0)) for v in defect.reg.symbols()}
    return point, defect.evaluate(point)


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

