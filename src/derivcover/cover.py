"""Additive covers of the field sort: pairs, lifted operations, automorphism moves.

The sort S consists of pairs (base, fiber).  Addition is componentwise, the
projection keeps the base, the field sort acts on each fiber by shifting, and
the product (base1*base2, base1*fiber2 + base2*fiber1) is the dual-numbers
multiplication.  The level-n structure adds an (n+1)-ary relation tying the
chain of base powers to a fixed linear combination of fibers; an additive map
F moves points by shifting each fiber by F(base), and preserving the relation
at a generic point is equivalent to F satisfying the order-n derivation
identity.

Base and fiber live in one shared jet context so the checks below are exact
polynomial identities at generic points.
"""

# Annotations are evaluated, not postponed, so NamedTuple type hints resolve.

from fractions import Fraction
from typing import NamedTuple

from .dclass import MembershipVerdict, _check_level, level_combination
from .errors import ArityError, ContextMismatchError
from .jets import JetContext, Operator, apply_operator
from .poly import RatFunc


class CoverPoint(NamedTuple):
    """An element of the pair sort: (base, fiber)."""

    base: RatFunc
    fiber: RatFunc

    def render(self) -> str:
        return f"({self.base.render()} | {self.fiber.render()})"


def _check_pair(p: CoverPoint, q: CoverPoint) -> None:
    if p.base.reg is not q.base.reg:
        raise ContextMismatchError("points belong to different contexts")


def oplus(p: CoverPoint, q: CoverPoint) -> CoverPoint:
    _check_pair(p, q)
    return CoverPoint(p.base + q.base, p.fiber + q.fiber)


def ominus(p: CoverPoint, q: CoverPoint) -> CoverPoint:
    _check_pair(p, q)
    return CoverPoint(p.base - q.base, p.fiber - q.fiber)


def scalar(c: Fraction, p: CoverPoint) -> CoverPoint:
    """Rational scaling; the pair group is uniquely divisible, so this is the
    meaning of dividing a point by an integer."""
    return CoverPoint(p.base.scale(c), p.fiber.scale(c))


def star(beta: RatFunc, p: CoverPoint) -> CoverPoint:
    """Shift the fiber by a field element; the base is untouched."""
    if beta.reg is not p.base.reg:
        raise ContextMismatchError("field element and point contexts differ")
    return CoverPoint(p.base, p.fiber + beta)


def pi(p: CoverPoint) -> RatFunc:
    """Projection onto the field sort (the base coordinate)."""
    return p.base


def otimes(p: CoverPoint, q: CoverPoint) -> CoverPoint:
    """Dual-numbers product: (ab, a*fiber(q) + b*fiber(p))."""
    _check_pair(p, q)
    return CoverPoint(
        p.base * q.base, p.base * q.fiber + q.base * p.fiber
    )


def otimes_power(p: CoverPoint, k: int) -> CoverPoint:
    """k-fold product of p with itself, k >= 1."""
    if k < 1:
        raise ValueError("otimes_power needs k >= 1")
    out = p
    for _ in range(k - 1):
        out = otimes(out, p)
    return out


def _fiber_defect(n: int, points: list[CoverPoint]) -> RatFunc:
    """Last fiber minus the level-n combination of the earlier fibers, with
    the first base as alpha: zero exactly when the fiber equation holds."""
    expected = level_combination(n, points[0].base, [p.fiber for p in points[:n]])
    return points[n].fiber - expected


def rn_holds(n: int, points: list[CoverPoint]) -> bool:
    """Exact check of the level-n relation on a tuple of n+1 points."""
    _check_level(n)
    if len(points) != n + 1:
        raise ArityError(f"relation takes {n + 1} points, got {len(points)}")
    for p in points[1:]:
        _check_pair(points[0], p)
    alpha = points[0].base
    for i, p in enumerate(points, start=1):
        if p.base != alpha**i:
            return False
    return _fiber_defect(n, points).is_zero()


def sigma(op: Operator, p: CoverPoint) -> CoverPoint:
    """The move of the additive map op on the pair sort: shift the fiber by
    op applied to the base.  Fixes the field sort pointwise."""
    ctx = p.base.reg
    if not isinstance(ctx, JetContext):
        raise ContextMismatchError("point does not live in a jet context")
    return CoverPoint(p.base, p.fiber + apply_operator(ctx, op, p.base))


def generic_rn_point(op: Operator, n: int) -> list[CoverPoint]:
    """Generic tuple satisfying the level-n relation: base generator alpha,
    free fiber generators for the first n points, last fiber forced."""
    _check_level(n)
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    alpha = ctx.gen(0)
    fibers = [ctx.gen(i) for i in range(1, n + 1)]
    fibers.append(level_combination(n, alpha, fibers))
    return [CoverPoint(alpha**i, fiber) for i, fiber in enumerate(fibers, start=1)]


def rn_preservation(op: Operator, n: int) -> MembershipVerdict:
    """Does the move of op preserve the level-n relation at the generic point?

    Returns the defect of the relation's fiber equation after the move; zero
    defect is equivalent to membership in the order-n derivation class.
    """
    moved = [sigma(op, p) for p in generic_rn_point(op, n)]
    return MembershipVerdict.of(_fiber_defect(n, moved))


def psi_defines_otimes() -> bool:
    """Verify that the product is recovered from squares alone: with
    z1 = a*a, z2 = b*b, z3 = (a+b)*(a+b) (products in the pair sort),
    (z3 - z2 - z1)/2 equals a*b at generic a, b."""
    ctx = JetContext(4)
    a = CoverPoint(ctx.gen(0), ctx.gen(1))
    b = CoverPoint(ctx.gen(2), ctx.gen(3))
    z1 = otimes(a, a)
    z2 = otimes(b, b)
    z3 = otimes(oplus(a, b), oplus(a, b))
    recovered = scalar(Fraction(1, 2), ominus(ominus(z3, z2), z1))
    return recovered == otimes(a, b)


def rn_reduct_check(n: int) -> bool:
    """Verify, at generic points, that the level-n relation is equivalent to:
    each point is a fiber shift of the matching product power of the first,
    with the last shift equal to a fixed combination of the earlier shifts.

    For n = 1 the combination is an empty sum, so the last shift must be 0
    and the relation degenerates to `second point = first point squared`.
    generic_rn_point checks the level.
    """

    def shift_constraint(alpha: RatFunc, eps: dict[int, RatFunc]) -> RatFunc:
        # the first point is unshifted: its term of the combination is zero
        shifts = [RatFunc.zero(alpha.reg)] + [eps[i] for i in range(2, n + 1)]
        return level_combination(n, alpha, shifts)

    # forward: a generic relation tuple determines unique shifts satisfying
    # the constraint
    points = generic_rn_point(Operator.zero(), n)
    a1 = points[0]
    eps: dict[int, RatFunc] = {}
    for i in range(2, n + 2):
        power = otimes_power(a1, i)
        if points[i - 1].base != power.base:
            return False
        eps[i] = points[i - 1].fiber - power.fiber
        if star(eps[i], power) != points[i - 1]:
            return False
    if eps[n + 1] != shift_constraint(pi(a1), eps):
        return False

    # backward: generic shifts satisfying the constraint produce a relation
    # tuple
    ctx = JetContext(n + 1)
    alpha = ctx.gen(0)
    a1 = CoverPoint(alpha, ctx.gen(1))
    eps = {i: ctx.gen(i) for i in range(2, n + 1)}
    eps[n + 1] = shift_constraint(alpha, eps)
    points = [a1]
    for i in range(2, n + 2):
        points.append(star(eps[i], otimes_power(a1, i)))
    return rn_holds(n, points)


def sigma_ring_defect(op: Operator) -> CoverPoint:
    """Pointwise defect of the move of op against the pair-sort product at
    generic a, b: sigma(a*b) minus sigma(a)*sigma(b).  The base component is
    always zero; the fiber component is the Leibniz defect of op."""
    ctx = JetContext(4, op.alphabet_span(), op.max_word_len())
    a = CoverPoint(ctx.gen(0), ctx.gen(1))
    b = CoverPoint(ctx.gen(2), ctx.gen(3))
    return ominus(sigma(op, otimes(a, b)), otimes(sigma(op, a), sigma(op, b)))


def sigma_ring_check(op: Operator) -> bool:
    """True when the move of op respects the pair-sort product, i.e. exactly
    when op satisfies the Leibniz rule."""
    defect = sigma_ring_defect(op)
    return defect.base.is_zero() and defect.fiber.is_zero()
