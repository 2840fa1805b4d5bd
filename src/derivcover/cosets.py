"""Affine-relation detection: does a tuple of rational functions lie on a
proper linear variety over the constants?

A tuple (f1, ..., fn) admits a relation e1*f1 + ... + en*fn = e_{n+1} with
rational e's (not all of e1..en zero) iff, after clearing denominators to a
common one, the corresponding homogeneous linear system on monomial
coefficients has a nontrivial kernel.  Solving over the rationals decides
existence over any field extension of the rationals as well: the system has
rational data, and a rational linear system solvable over an extension field
is solvable over the rationals (row reduction never leaves the ground field).
A tuple with no such relation is free of proper additive cosets defined over
the algebraic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContextMismatchError
from .poly import RatFunc, VarRegistry, div_exact, mpoly_gcd


@dataclass(frozen=True)
class AffineRelation:
    """A nontrivial relation sum(coefficients[i] * f[i]) = constant,
    normalized so the first nonzero coefficient is 1."""

    coefficients: tuple[Fraction, ...]
    constant: Fraction


def solve_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel of the homogeneous system rows * x = 0, by exact
    Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(vec)
    return basis


def affine_relation(funcs: list[RatFunc]) -> AffineRelation | None:
    """Find a nontrivial rational affine relation among the tuple, or None.

    Clears denominators to a common one and solves the induced linear system
    on monomial coefficients exactly.  Any relation returned is re-checked
    symbolically before being handed back.
    """
    if not funcs:
        raise ValueError("need at least one function")
    reg = funcs[0].reg
    for f in funcs[1:]:
        if f.reg is not reg:
            raise ContextMismatchError("functions belong to different registries")
    n = len(funcs)
    common = funcs[0].den
    for f in funcs[1:]:
        g = mpoly_gcd(common, f.den)
        common = div_exact(common, g) * f.den
    cleared = [f.num * div_exact(common, f.den) for f in funcs]
    columns = [p.terms for p in cleared] + [(-common).terms]
    # rows in any order: the reduced echelon form, so the relation, is unique
    monomials = {m for col in columns for m in col}
    rows = [[col.get(m, 0) for col in columns] for m in monomials]
    basis = solve_nullspace(rows, n + 1)
    for vec in basis:
        if any(vec[i] != 0 for i in range(n)):
            lead = next(i for i in range(n) if vec[i] != 0)
            scale = vec[lead]
            coeffs = tuple(v / scale for v in vec[:n])
            const = vec[n] / scale
            _verify(funcs, coeffs, const)
            return AffineRelation(coeffs, const)
    return None


def _verify(funcs: list[RatFunc], coeffs: tuple[Fraction, ...], const: Fraction) -> None:
    total = RatFunc.zero(funcs[0].reg)
    for c, f in zip(coeffs, funcs):
        total = total + f.scale(c)
    if not (total - RatFunc.const(total.reg, const)).is_zero():
        raise AssertionError("solver returned a relation that does not hold")


def coset_free_powers(n: int) -> bool:
    """True when (t, t^2, ..., t^n) admits no affine relation over the
    constants; holds for every n since t is a free generator."""
    if n < 1:
        raise ValueError("need n >= 1")
    reg = VarRegistry()
    t = RatFunc.var(reg, reg.add_generator("t"))
    funcs = [t**i for i in range(1, n + 1)]
    return affine_relation(funcs) is None
