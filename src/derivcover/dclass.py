"""Membership defects for the order-n derivation classes.

An additive map F belongs to the order-n class when
F(a^(n+1)) = sum_{i=1..n} binom(n+1, i) (-1)^(n-i) a^(n+1-i) F(a^i) for all a.
Everything here reduces that quantified identity to a single polynomial
computation at a generic point of a free jet context: the defect (left side
minus right side) is the machine certificate.  Zero defect certifies the
identity for every complex instantiation; a nonzero defect comes with a
rational witness assignment found by seeded search.

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
from itertools import combinations
from typing import Iterable, Sequence

from .errors import PreconditionError, SearchExhaustedError
from .jets import JetContext, Operator, apply_operator
from .poly import RatFunc, odd_component

DEFAULT_LEVEL_CAP = 6

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


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")


def level_coefficient(n: int, i: int) -> int:
    """binom(n+1, i) (-1)^(n-i): the weight of f^(n+1-i) F(f^i) in the
    order-n identity."""
    return -math.comb(n + 1, i) if (n - i) % 2 else math.comb(n + 1, i)


def dn_defect(ctx: JetContext, op: Operator, n: int, f: RatFunc) -> RatFunc:
    """Defect of the order-n identity for op at the element f.

    Returns F(f^(n+1)) minus the prescribed combination of f^(n+1-i) F(f^i);
    zero iff op satisfies the identity at f.  Linear in op.
    """
    _check_level(n)
    lhs = apply_operator(ctx, op, f ** (n + 1))
    rhs = RatFunc.zero(ctx)
    for i in range(1, n + 1):
        c = level_coefficient(n, i)
        rhs = rhs + (f ** (n + 1 - i) * apply_operator(ctx, op, f**i)).scale(c)
    return lhs - rhs


def is_in_dn(op: Operator, n: int, *, seed: int = 0) -> MembershipVerdict:
    """Decide membership at a generic point (one fresh generator).

    The generic point is universal for word-algebra operators: the defect is
    a polynomial in free jet symbols, so it vanishes identically iff the
    identity holds for all complex numbers and all derivations.
    """
    _check_level(n)
    ctx = JetContext(1, op.alphabet_span(), op.max_word_len())
    defect = dn_defect(ctx, op, n, ctx.gen(0))
    if defect.is_zero():
        return MembershipVerdict(True, defect)
    witness = find_witness(defect, seed=seed)
    return MembershipVerdict(False, defect, witness)


def _products_without(xs: Sequence[RatFunc], skip: frozenset[int]) -> RatFunc:
    out = None
    for i, x in enumerate(xs):
        if i in skip:
            continue
        out = x if out is None else out * x
    assert out is not None
    return out


def multilinear_rhs(ctx: JetContext, op: Operator, xs: Sequence[RatFunc]) -> RatFunc:
    """The multilinear combination sum_k (-1)^(k+1) sum_{|T|=k} x_T F(x_complement)."""
    n = len(xs) - 1
    total = RatFunc.zero(ctx)
    for k in range(1, n + 1):
        sign = (-1) ** (k + 1)
        for chosen in combinations(range(n + 1), k):
            skip = frozenset(chosen)
            coeff_part = _products_without(xs, frozenset(range(n + 1)) - skip)
            f_part = apply_operator(ctx, op, _products_without(xs, skip))
            total = total + (coeff_part * f_part).scale(sign)
    return total


def polarization_defect(op: Operator, n: int) -> RatFunc:
    """Defect of the multilinear identity for op at n+1 fresh generators.

    Returns F(x1...x_{n+1}) minus the multilinear combination; zero iff the
    polarized identity holds at level n.
    """
    _check_level(n)
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    xs = [ctx.gen(i) for i in range(n + 1)]
    lhs = apply_operator(ctx, op, _products_without(xs, frozenset()))
    return lhs - multilinear_rhs(ctx, op, xs)


def odd_extraction_check(op: Operator, n: int) -> bool:
    """Verify the parity-extraction step linking the two identities.

    With s = x1+...+x_{n+1}: the part of F(s^(n+1)) odd in every generator
    must be (n+1)! F(x1...x_{n+1}), and the same extraction applied to the
    right side of the order-n identity must give (n+1)! times the multilinear
    combination.  Requires op to satisfy the order-n identity.
    """
    _check_level(n)
    probe_ctx = JetContext(1, op.alphabet_span(), op.max_word_len())
    if not dn_defect(probe_ctx, op, n, probe_ctx.gen(0)).is_zero():
        raise PreconditionError(
            "parity extraction is only asserted for members of the class"
        )
    ctx = JetContext(n + 1, op.alphabet_span(), op.max_word_len())
    xs = [ctx.gen(i) for i in range(n + 1)]
    s = RatFunc.zero(ctx)
    for x in xs:
        s = s + x
    gens = ctx.gens
    factorial = Fraction(1)
    for i in range(2, n + 2):
        factorial *= i
    left = odd_component(apply_operator(ctx, op, s ** (n + 1)).as_poly(), gens)
    left_target = apply_operator(ctx, op, _products_without(xs, frozenset())).scale(
        factorial
    )
    if left != left_target.as_poly():
        return False
    rhs = RatFunc.zero(ctx)
    for i in range(1, n + 1):
        c = level_coefficient(n, i)
        rhs = rhs + (s ** (n + 1 - i) * apply_operator(ctx, op, s**i)).scale(c)
    right = odd_component(rhs.as_poly(), gens)
    right_target = multilinear_rhs(ctx, op, xs).scale(factorial)
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


def separation_witness(n: int, *, seed: int = 0) -> tuple[Assignment, Fraction]:
    """Rational jet values making the level-n defect of the (n+1)-fold iterate
    of one derivation letter evaluate to something nonzero.

    Deterministic for a fixed seed; raises SearchExhaustedError only on a bug,
    since the defect polynomial is nonzero.
    """
    _check_level(n)
    ctx = JetContext(1, 1, n + 1)
    op = Operator.word((0,) * (n + 1))
    defect = dn_defect(ctx, op, n, ctx.gen(0))
    return find_witness(defect, seed=seed)


def find_witness(
    defect: RatFunc,
    *,
    seed: int = 0,
    attempts: int = 1000,
    widenings: int = 8,
) -> tuple[Assignment, Fraction]:
    """Find an assignment where the defect is nonzero.

    The assignment covers every symbol allocated in the defect's registry:
    its generators and the jets reached so far.  Tries the distinguished
    point (the first allocated length-1 jet = 1, all else 0) first, then
    seeded uniform draws from {-3..3}, doubling the range after every
    `attempts` failures.  Deterministic given the seed.
    """
    reg = defect.reg
    all_vars = reg.symbols()
    first_jet = next(
        (v for v in all_vars if len(reg.word_of(v) or ()) == 1),
        None,
    )
    if first_jet is not None:
        assignment = {v: Fraction(1 if v == first_jet else 0) for v in all_vars}
        value = defect.evaluate(assignment)
        if value != 0:
            return assignment, value
    rng = random.Random(seed)
    span = 3
    for round_ in range(widenings):
        for _ in range(attempts):
            assignment = {v: Fraction(rng.randint(-span, span)) for v in all_vars}
            value = defect.evaluate(assignment)
            if value != 0:
                return assignment, value
        span *= 2
    raise SearchExhaustedError(
        "no nonzero point found; the defect polynomial should be nonzero"
    )


def probe_zero(f: RatFunc, *, points: int = 5, seed: int = 0) -> bool:
    """Randomized identity test: evaluate at seeded rational points.

    Returns True when f vanished at every probe point.  Independent of the
    symbolic path: uses only polynomial evaluation.
    """
    rng = random.Random(seed)
    occurring = sorted(set(f.num.variables()) | set(f.den.variables()))
    for _ in range(points):
        assignment = {
            v: Fraction(rng.randint(-99, 99), rng.randint(1, 7)) for v in occurring
        }
        if f.evaluate(assignment) != 0:
            return False
    return True


def default_test_set(*, seed: int = 0, letters: int = 3) -> list[Operator]:
    """Fixed operator battery: all words of length <= 3 over the given letters,
    plus five seeded two-term rational combinations of short words."""
    ops: list[Operator] = []
    words: list[tuple[int, ...]] = []
    for length in (1, 2, 3):
        for w in _all_words(letters, length):
            words.append(w)
            ops.append(Operator.word(w))
    rng = random.Random(seed)
    short = [w for w in words if len(w) <= 2]
    coeffs = [
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(3, 2),
    ]
    for _ in range(5):
        w1, w2 = rng.sample(short, 2)
        c1, c2 = rng.choice(coeffs), rng.choice(coeffs)
        ops.append(Operator.from_terms([(w1, c1), (w2, c2)]))
    return ops


def _all_words(letters: int, length: int) -> Iterable[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for w in _all_words(letters, length - 1):
        for a in range(letters):
            yield w + (a,)
