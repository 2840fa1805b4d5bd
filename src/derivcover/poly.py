"""Sparse multivariate polynomials and reduced rational functions over the rationals.

Representation
--------------
A monomial is a tuple of (variable index, exponent) pairs, sorted by index,
with all exponents > 0; the empty tuple is the constant monomial.  A
polynomial maps monomials to nonzero Fraction coefficients, so two
polynomials are equal exactly when their term dictionaries are equal.  The
canonical term order is graded lexicographic: higher total degree first, ties
broken by comparing exponents variable by variable in index order.

A rational function is a pair num/den in fully reduced form: gcd(num, den)
is constant, den has integer coefficients with content 1 and a positive
leading coefficient.  Equality of values is therefore equality of
representation.

Variables live in a VarRegistry, which assigns indices and remembers,
for each variable, whether it is an ordinary generator or a jet symbol (the
formal image of a derivation word applied to a generator).  Jet metadata is
what lets odd_component grade a jet symbol by its base generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    ContextMismatchError,
    DegreeGuardError,
    DenominatorVanishesError,
    DivisionByZeroError,
    ExactDivisionError,
    MissingVariableError,
)

Monomial = tuple[tuple[int, int], ...]

_DEFAULT_DEGREE_LIMIT = 64
_degree_limit = _DEFAULT_DEGREE_LIMIT


def get_degree_limit() -> int:
    return _degree_limit


def set_degree_limit(limit: int) -> int:
    """Set the total-degree guard for products and powers; returns the old limit."""
    global _degree_limit
    if limit < 1:
        raise ValueError("degree limit must be positive")
    old = _degree_limit
    _degree_limit = limit
    return old


class VarRegistry:
    """Allocation of variables plus per-variable metadata.

    Polynomials hold a reference to their registry; operations on polynomials
    from different registries raise ContextMismatchError.  Registries are
    append-only: existing indices never change meaning.  Plain registries
    number their variables densely; a subclass may place a variable at an
    explicit index, so the allocated indices need not be contiguous.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._base: dict[int, int | None] = {}
        self._word: dict[int, tuple[int, ...] | None] = {}
        self._by_name: dict[str, int] = {}

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return len(self._names)

    def __contains__(self, v: int) -> bool:
        return v in self._names

    def symbols(self) -> list[int]:
        """Every allocated variable index, ascending."""
        return sorted(self._names)

    def add_generator(self, name: str) -> int:
        return self._add(name, None, None, len(self._names))

    def add_jet(self, name: str, base: int, word: tuple[int, ...], index: int) -> int:
        if not word:
            raise ValueError("jet symbols require a nonempty word")
        return self._add(name, base, word, index)

    def _add(self, name, base, word, idx) -> int:
        if name in self._by_name or idx in self._names:
            raise ValueError(f"variable {name!r} or index {idx} already allocated")
        self._names[idx] = name
        self._base[idx] = base
        self._word[idx] = word
        self._by_name[name] = idx
        return idx

    def name(self, v: int) -> str:
        return self._names[v]

    def base_of(self, v: int) -> int | None:
        """The generator a jet symbol belongs to; None for a generator."""
        return self._base[v]

    def word_of(self, v: int) -> tuple[int, ...] | None:
        """The derivation word of a jet symbol; None for a generator."""
        return self._word[v]

    def lookup(self, name: str) -> int | None:
        return self._by_name.get(name)


# ---------------------------------------------------------------------------
# Monomial helpers


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    if not b:
        return a
    quota = dict(a)
    for v, e in b:
        have = quota.get(v, 0)
        if have < e:
            return None
        if have == e:
            del quota[v]
        else:
            quota[v] = have - e
    return tuple(sorted(quota.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial) -> tuple:
    """Sort key: ascending order of keys == descending graded-lex order of monomials."""
    return (-mono_degree(m), tuple((v, -e) for v, e in m))


class MPoly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: VarRegistry, terms: dict[Monomial, Fraction]) -> None:
        # terms is trusted to be canonical (no zero coefficients)
        self.reg = reg
        self.terms = terms

    # -- constructors

    @classmethod
    def zero(cls, reg: VarRegistry) -> "MPoly":
        return cls(reg, {})

    @classmethod
    def const(cls, reg: VarRegistry, c) -> "MPoly":
        c = Fraction(c)
        return cls(reg, {} if c == 0 else {(): c})

    @classmethod
    def var(cls, reg: VarRegistry, v: int) -> "MPoly":
        if v not in reg:
            raise ValueError(f"variable index {v} is not allocated")
        return cls(reg, {((v, 1),): Fraction(1)})

    @classmethod
    def from_terms(cls, reg: VarRegistry, items: Iterable[tuple[Monomial, Fraction]]) -> "MPoly":
        terms: dict[Monomial, Fraction] = {}
        for m, c in items:
            c = Fraction(c)
            acc = terms.get(m, Fraction(0)) + c
            if acc == 0:
                terms.pop(m, None)
            else:
                terms[m] = acc
        return cls(reg, terms)

    # -- predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): Fraction(1)}

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return tuple(sorted(seen))

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term in graded-lex order; requires a nonzero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=mono_key)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in sorted(self.terms, key=mono_key)]

    # -- arithmetic

    def _check(self, other: "MPoly") -> None:
        if self.reg is not other.reg:
            raise ContextMismatchError("polynomials belong to different registries")

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.reg, other)
        return None

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, Fraction(0)) + c
            if acc == 0:
                terms.pop(m, None)
            else:
                terms[m] = acc
        return MPoly(self.reg, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.reg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _mul_raw(self, other: "MPoly") -> "MPoly":
        """Product without the degree guard (internal use: gcd, division)."""
        self._check(other)
        if not self.terms or not other.terms:
            return MPoly.zero(self.reg)
        terms: dict[Monomial, Fraction] = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = mono_mul(ma, mb)
                acc = terms.get(m, Fraction(0)) + ca * cb
                if acc == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = acc
        return MPoly(self.reg, terms)

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MPoly.zero(self.reg)
        bound = self.total_degree() + other.total_degree()
        if bound > _degree_limit:
            raise DegreeGuardError(
                f"product would reach total degree {bound} > limit {_degree_limit}"
            )
        return self._mul_raw(other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("MPoly powers take nonnegative integer exponents")
        if k == 0:
            return MPoly.const(self.reg, 1)
        bound = self.total_degree() * k
        if bound > _degree_limit:
            raise DegreeGuardError(
                f"power would reach total degree {bound} > limit {_degree_limit}"
            )
        result = MPoly.const(self.reg, 1)
        base = self
        e = k
        while e:
            if e & 1:
                result = result._mul_raw(base)
            e >>= 1
            if e:
                base = base._mul_raw(base)
        return result

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return MPoly.zero(self.reg)
        return MPoly(self.reg, {m: co * c for m, co in self.terms.items()})

    # -- evaluation

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a point; the assignment must cover every variable."""
        for v in self.variables():
            if v not in assignment:
                raise MissingVariableError(
                    f"no value for variable {self.reg.name(v)!r}"
                )
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    # -- equality and display

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.reg is other.reg and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not intended as a dict key

    def render(self) -> str:
        """Canonical text: terms in descending graded-lex order, ^ for powers."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors = []
            if mag != 1 or not m:
                factors.append(str(mag))
            for v, e in m:
                nm = self.reg.name(v)
                factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"


# ---------------------------------------------------------------------------
# Content, exact division, gcd


def content_and_primitive(f: MPoly) -> tuple[Fraction, MPoly]:
    """Write f = c * p with p having coprime integer coefficients and a
    positive leading coefficient.  f = 0 returns (0, 0)."""
    if f.is_zero():
        return Fraction(0), f
    num_gcd = 0
    den_lcm = 1
    for c in f.terms.values():
        num_gcd = math.gcd(num_gcd, c.numerator)
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    c = Fraction(num_gcd, den_lcm)
    _, lead = f.leading()
    if lead < 0:
        c = -c
    return c, f.scale(1 / c)


def primitive_part(f: MPoly) -> MPoly:
    return content_and_primitive(f)[1]


def div_exact(f: MPoly, d: MPoly) -> MPoly:
    """Quotient f/d when the division is exact; raises ExactDivisionError otherwise."""
    if d.is_zero():
        raise DivisionByZeroError("division by the zero polynomial")
    if f.is_zero():
        return f
    if f.reg is not d.reg:
        raise ContextMismatchError("polynomials belong to different registries")
    if d.is_one():
        return f
    lm, lc = d.leading()
    q: dict[Monomial, Fraction] = {}
    r = f
    while not r.is_zero():
        rm, rc = r.leading()
        m = mono_div(rm, lm)
        if m is None:
            raise ExactDivisionError("division is not exact")
        c = rc / lc
        q[m] = c
        r = r - MPoly(f.reg, {m: c})._mul_raw(d)
    return MPoly(f.reg, q)


def _degree_in(f: MPoly, v: int) -> int:
    deg = 0
    for m in f.terms:
        for w, e in m:
            if w == v and e > deg:
                deg = e
    return deg


def _coeff_in(f: MPoly, v: int, k: int) -> MPoly:
    """Coefficient of v**k in f, as a polynomial in the remaining variables."""
    terms: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        e = 0
        rest = []
        for w, ew in m:
            if w == v:
                e = ew
            else:
                rest.append((w, ew))
        if e == k:
            terms[tuple(rest)] = c
    return MPoly(f.reg, terms)


def _var_power(reg: VarRegistry, v: int, k: int) -> MPoly:
    if k == 0:
        return MPoly.const(reg, 1)
    return MPoly(reg, {((v, k),): Fraction(1)})


def _pow_raw(f: MPoly, k: int) -> MPoly:
    out = MPoly.const(f.reg, 1)
    for _ in range(k):
        out = out._mul_raw(f)
    return out


def _pseudo_rem(f: MPoly, g: MPoly, v: int) -> MPoly:
    """Pseudo-remainder lc_v(g)^(deg f - deg g + 1) * f mod g, for deg f >= deg g."""
    df = _degree_in(f, v)
    dg = _degree_in(g, v)
    lg = _coeff_in(g, v, dg)
    r = f
    steps = 0
    while not r.is_zero():
        dr = _degree_in(r, v)
        if dr < dg:
            break
        lr = _coeff_in(r, v, dr)
        r = lg._mul_raw(r) - lr._mul_raw(_var_power(f.reg, v, dr - dg))._mul_raw(g)
        steps += 1
    # normalize to the full lc power so the subresultant divisions stay exact
    missing = df - dg + 1 - steps
    if missing > 0 and not r.is_zero():
        r = r._mul_raw(_pow_raw(lg, missing))
    return r


def _content_pp_in(f: MPoly, v: int) -> tuple[MPoly, MPoly]:
    """Content and primitive part of f viewed as a polynomial in v."""
    coeffs = [_coeff_in(f, v, k) for k in range(_degree_in(f, v) + 1)]
    cont = MPoly.zero(f.reg)
    for c in coeffs:
        if not c.is_zero():
            cont = mpoly_gcd(cont, c)
            if cont.is_one():
                break
    return cont, div_exact(f, cont)


def _monomial_content(f: MPoly) -> Monomial:
    """Largest monomial dividing every term of f (f nonzero)."""
    common: dict[int, int] | None = None
    for m in f.terms:
        if common is None:
            common = dict(m)
        else:
            exps = dict(m)
            common = {
                v: min(e, exps[v]) for v, e in common.items() if v in exps
            }
        if not common:
            return ()
    return tuple(sorted(common.items()))


def _divides(d: MPoly, f: MPoly) -> bool:
    try:
        div_exact(f, d)
        return True
    except ExactDivisionError:
        return False


def _gcd_in_var(a: MPoly, b: MPoly, v: int) -> MPoly:
    """Subresultant pseudo-remainder sequence in the main variable v.

    Both inputs must have positive v-degree and content 1 with respect to v;
    returns their gcd up to a constant factor.
    """
    if _degree_in(a, v) < _degree_in(b, v):
        a, b = b, a
    one = MPoly.const(a.reg, 1)
    g = one
    h = one
    while True:
        delta = _degree_in(a, v) - _degree_in(b, v)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return _content_pp_in(b, v)[1]
        if _degree_in(r, v) == 0:
            return one
        a, b = b, div_exact(r, g._mul_raw(_pow_raw(h, delta)))
        g = _coeff_in(a, v, _degree_in(a, v))
        if delta == 1:
            h = g
        elif delta > 1:
            h = div_exact(_pow_raw(g, delta), _pow_raw(h, delta - 1))


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, returned primitive with positive leading coefficient.

    Classical content/primitive-part recursion with a subresultant
    pseudo-remainder sequence in the smallest shared variable; monomial
    content and trial division handle the common easy shapes first.
    gcd(0, 0) = 0.
    """
    if a.reg is not b.reg:
        raise ContextMismatchError("polynomials belong to different registries")
    if a.is_zero():
        return primitive_part(b) if not b.is_zero() else b
    if b.is_zero():
        return primitive_part(a)
    pa = primitive_part(a)
    pb = primitive_part(b)
    if pa == pb:
        return pa
    if pa.is_constant() or pb.is_constant():
        return MPoly.const(a.reg, 1)
    # split off the common monomial factor; the remaining parts have no
    # variable dividing every term, so gcd factors through
    mono = mono_gcd_pair(_monomial_content(pa), _monomial_content(pb))
    pa = div_exact(pa, MPoly(a.reg, {_monomial_content(pa): Fraction(1)}))
    pb = div_exact(pb, MPoly(a.reg, {_monomial_content(pb): Fraction(1)}))
    if pa.is_constant() or pb.is_constant():
        core = MPoly.const(a.reg, 1)
    elif _divides(pb, pa):
        core = pb
    elif _divides(pa, pb):
        core = pa
    else:
        shared = set(pa.variables()) & set(pb.variables())
        if not shared:
            core = MPoly.const(a.reg, 1)
        else:
            v = min(shared)
            ca, fa = _content_pp_in(pa, v)
            cb, fb = _content_pp_in(pb, v)
            cg = mpoly_gcd(ca, cb)
            core = cg._mul_raw(_gcd_in_var(fa, fb, v))
    if mono:
        core = core._mul_raw(MPoly(a.reg, {mono: Fraction(1)}))
    return primitive_part(core)


def mono_gcd_pair(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return ()
    eb = dict(b)
    return tuple(
        sorted((v, min(e, eb[v])) for v, e in a if v in eb)
    )


# ---------------------------------------------------------------------------
# Rational functions


class RatFunc:
    """Reduced fraction of two polynomials over one registry.

    Invariants: den != 0, gcd(num, den) constant, den integer-primitive with
    positive leading coefficient.  Values are immutable; equality of values
    coincides with equality of the (num, den) representation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly) -> None:
        # trusted canonical; use make() to normalize
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: MPoly, den: MPoly) -> "RatFunc":
        if num.reg is not den.reg:
            raise ContextMismatchError("num and den belong to different registries")
        if den.is_zero():
            raise DivisionByZeroError("zero denominator")
        if num.is_zero():
            return cls(num, MPoly.const(num.reg, 1))
        if not den.is_one():
            g = mpoly_gcd(num, den)
            if not g.is_constant():
                num = div_exact(num, g)
                den = div_exact(den, g)
        return cls._normalized(num, den)

    @classmethod
    def _normalized(cls, num: MPoly, den: MPoly) -> "RatFunc":
        """Finish canonicalization of an already coprime num/den pair: make the
        denominator integer-primitive with positive leading coefficient."""
        if num.is_zero():
            return cls(num, MPoly.const(num.reg, 1))
        c, den = content_and_primitive(den)
        if c != 1:
            num = num.scale(1 / c)
        return cls(num, den)

    @classmethod
    def zero(cls, reg: VarRegistry) -> "RatFunc":
        return cls(MPoly.zero(reg), MPoly.const(reg, 1))

    @classmethod
    def const(cls, reg: VarRegistry, c) -> "RatFunc":
        return cls(MPoly.const(reg, c), MPoly.const(reg, 1))

    @classmethod
    def var(cls, reg: VarRegistry, v: int) -> "RatFunc":
        return cls(MPoly.var(reg, v), MPoly.const(reg, 1))

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFunc":
        return cls(p, MPoly.const(p.reg, 1))

    @property
    def reg(self) -> VarRegistry:
        return self.num.reg

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> MPoly:
        if not self.den.is_one():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.reg, other)
        return None

    def __add__(self, other) -> "RatFunc":
        # denominators are reduced pairwise (gcd of the dens, then gcd with the
        # cross sum), so no full-size gcd is ever taken
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, self.den)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g0 = mpoly_gcd(self.den, other.den)
        if g0.is_constant():
            return RatFunc._normalized(
                self.num * other.den + other.num * self.den,
                self.den * other.den,
            )
        da = div_exact(self.den, g0)
        db = div_exact(other.den, g0)
        t = self.num * db + other.num * da
        if t.is_zero():
            return RatFunc.zero(self.reg)
        g1 = mpoly_gcd(t, g0)
        if g1.is_constant():
            return RatFunc._normalized(t, self.den * db)
        return RatFunc._normalized(div_exact(t, g1), div_exact(self.den, g1) * db)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        # cross-cancellation keeps the result coprime without a final gcd
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.reg)
        na, da = self.num, self.den
        nb, db = other.num, other.den
        g1 = mpoly_gcd(na, db)
        if not g1.is_constant():
            na = div_exact(na, g1)
            db = div_exact(db, g1)
        g2 = mpoly_gcd(nb, da)
        if not g2.is_constant():
            nb = div_exact(nb, g2)
            da = div_exact(da, g2)
        return RatFunc._normalized(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZeroError("division by the zero rational function")
        return self * RatFunc._normalized(other.den, other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RatFunc":
        if not isinstance(k, int):
            raise ValueError("RatFunc powers take integer exponents")
        if k < 0:
            if self.is_zero():
                raise DivisionByZeroError("negative power of zero")
            inv = RatFunc.make(self.den, self.num)
            return inv ** (-k)
        # num and den are coprime, so the powers stay coprime (Gauss)
        return RatFunc(self.num**k, self.den**k)

    def scale(self, c) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den) if c != 0 else RatFunc.zero(self.reg)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a point; raises if the denominator vanishes there."""
        dv = self.den.evaluate(assignment)
        if dv == 0:
            raise DenominatorVanishesError("denominator vanishes at the assignment")
        return self.num.evaluate(assignment) / dv

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MPoly)):
            coerced = self._coerce(other)
            return self.num == coerced.num and self.den == coerced.den
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


# ---------------------------------------------------------------------------
# Parity extraction


def graded_degree(m: Monomial, reg: VarRegistry, v: int) -> int:
    """Degree of a monomial in generator v, counting a jet symbol of v as degree 1
    per exponent unit (the Leibniz action preserves this grading)."""
    deg = 0
    for w, e in m:
        if w == v or reg.base_of(w) == v:
            deg += e
    return deg


def odd_component(f: MPoly, vars: Iterable[int]) -> MPoly:
    """Sum of the terms of f whose graded degree is odd in every listed generator."""
    vs = tuple(vars)
    reg = f.reg
    terms = {
        m: c
        for m, c in f.terms.items()
        if all(graded_degree(m, reg, v) % 2 == 1 for v in vs)
    }
    return MPoly(reg, terms)
