"""Shared generators for randomized tests (all seeded, all deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

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
