"""Sparse multivariate polynomials and reduced rational functions over the rationals.

Representation
--------------
A polynomial maps packed monomials to nonzero coefficients.  A packed
monomial is one Python int made of 16-bit fields: the lowest field holds the
total degree, and every variable of the registry owns one field above it, in
the order the variables were allocated (slot s sits at bits 16(s+1) and up).
The top bit of each field is a guard bit that valid monomials keep clear, so a
field holds values up to 2**15 - 1.  Multiplying monomials is adding their
ints, the total degree is the lowest field, and b divides a exactly when
a - b leaves every guard bit clear: a field that borrows sets its own.  A
coefficient is an int whenever it is integral and a Fraction only otherwise,
so two polynomials are equal exactly when their term dictionaries are equal.

Two orders are in play.  Comparing packed ints is a lex order with the
last-allocated variable most significant; it is admissible, so exact division
runs in it, and the quotient does not depend on the order.  Every order a
caller can see is graded lexicographic by variable index (higher total degree
first, ties broken by comparing exponents variable by variable in index
order), computed from the unpacked exponents: leading(), sorted_terms(),
render() and mono_key().  At the boundary a monomial is a tuple of
(variable index, exponent) pairs sorted by index, with all exponents > 0; the
empty tuple is the constant monomial.  from_terms() packs such tuples.

No field may overflow.  A monomial whose total degree exceeds 2**15 - 1 is
refused with DegreeGuardError wherever it could arise: when packing, in every
product and power.  Exact division builds no product of higher degree than
its dividend.

A rational function is a pair num/den in fully reduced form: gcd(num, den)
is constant, den has integer coefficients with content 1 and a positive
leading coefficient.  Equality of values is therefore equality of
representation.

Each binary operator of MPoly and RatFunc takes an operand of its own class
only; a number enters arithmetic through const() or scale().

Variables live in a VarRegistry, which assigns indices and remembers,
for each variable, whether it is an ordinary generator or a jet symbol (the
formal image of a derivation word applied to a generator).  Jet metadata is
what lets odd_component grade a jet symbol by its base generator.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .errors import (
    ContextMismatchError,
    DegreeGuardError,
    DenominatorVanishesError,
    DivisionByZeroError,
    ExactDivisionError,
    MissingVariableError,
)

Monomial = tuple[tuple[int, int], ...]
Coeff = int | Fraction

_FIELD_BITS = 16  # exponents() reads the fields as array("H") items
_MAX_EXP = (1 << (_FIELD_BITS - 1)) - 1  # largest exponent or total degree


def _field_guard(bound: int, what: str) -> None:
    if bound > _MAX_EXP:
        raise DegreeGuardError(
            f"{what} would reach total degree {bound} > {_MAX_EXP}, "
            "the most an exponent field holds"
        )


def _norm(c: Coeff) -> Coeff:
    """A coefficient in canonical type: int when integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _quo(c: Coeff, d: Coeff) -> Coeff:
    """Exact quotient of two coefficients in canonical type."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return _norm(c / d)


class VarRegistry:
    """Allocation of variables plus per-variable metadata.

    Polynomials hold a reference to their registry; operations on polynomials
    from different registries raise ContextMismatchError.  Registries are
    append-only: existing indices never change meaning.  Plain registries
    number their variables densely; a subclass may place a variable at an
    explicit index, so the allocated indices need not be contiguous.  Each
    variable also gets the next exponent field of the packed monomials, in
    allocation order, so a new variable never moves an existing field.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._base: dict[int, int | None] = {}
        self._word: dict[int, tuple[int, ...] | None] = {}
        self._by_name: dict[str, int] = {}
        self._slots: list[int] = []  # variable index of each field, bottom up
        self._shift: dict[int, int] = {}  # variable index -> bit offset of its field
        self._guard = 1 << (_FIELD_BITS - 1)  # guard bits of every field

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
        shift = (len(self._slots) + 1) * _FIELD_BITS
        self._slots.append(idx)
        self._shift[idx] = shift
        self._guard |= 1 << (shift + _FIELD_BITS - 1)
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

    # -- packed monomials

    def unit(self, v: int) -> int:
        """The packed monomial v**1."""
        return (1 << self._shift[v]) + 1

    def pack(self, mono: Monomial) -> int:
        """Packed form of a tuple monomial."""
        m = deg = 0
        for v, e in mono:
            if v not in self._shift:
                raise ValueError(f"variable index {v} is not allocated")
            if e < 0:
                raise ValueError("monomial exponents must be nonnegative")
            _field_guard(e, "monomial")
            m += e << self._shift[v]
            deg += e
        _field_guard(deg, "monomial")
        return m + deg

    def exponents(self, m: int) -> list[tuple[int, int]]:
        """(variable, exponent) pairs of a packed monomial, in allocation order."""
        fields = array("H", m.to_bytes((m.bit_length() + 15) // 16 * 2, "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        return [(v, e) for v, e in zip(self._slots, fields[1:]) if e]

    def unpack(self, m: int) -> Monomial:
        """Tuple form of a packed monomial, sorted by variable index."""
        return tuple(sorted(self.exponents(m)))


def mono_key(m: Monomial) -> tuple:
    """Sort key: ascending order of keys == descending graded-lex order of monomials."""
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


class MPoly:
    """Sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: VarRegistry, terms: dict[int, Coeff]) -> None:
        # terms is trusted to be canonical: packed monomials, no zero
        # coefficients, int whenever integral
        self.reg = reg
        self.terms = terms

    # -- constructors

    @classmethod
    def zero(cls, reg: VarRegistry) -> "MPoly":
        return cls(reg, {})

    @classmethod
    def const(cls, reg: VarRegistry, c) -> "MPoly":
        if type(c) is not int:
            c = _norm(Fraction(c))
        return cls(reg, {0: c} if c else {})

    @classmethod
    def var(cls, reg: VarRegistry, v: int) -> "MPoly":
        if v not in reg:
            raise ValueError(f"variable index {v} is not allocated")
        return cls(reg, {reg.unit(v): 1})

    @classmethod
    def from_terms(cls, reg: VarRegistry, items: Iterable[tuple[Monomial, Fraction]]) -> "MPoly":
        terms: dict[int, Coeff] = {}
        for m, c in items:
            key = reg.pack(m)
            terms[key] = terms.get(key, 0) + Fraction(c)
        return cls.from_packed(reg, terms)

    @classmethod
    def from_packed(cls, reg: VarRegistry, terms: dict[int, Coeff]) -> "MPoly":
        """Polynomial from packed terms that may hold zero or integral Fraction
        coefficients."""
        return cls(
            reg, {m: c if type(c) is int else _norm(c) for m, c in terms.items() if c}
        )

    # -- predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def total_degree(self) -> int:
        return max(map(_MAX_EXP.__and__, self.terms), default=0)

    def variables(self) -> tuple[int, ...]:
        seen = 0
        for m in self.terms:
            seen |= m
        return tuple(sorted(v for v, _ in self.reg.exponents(seen)))

    def _lead(self) -> int:
        """Packed monomial of the graded-lex leading term (nonzero polynomial)."""
        top = self.total_degree()
        tied = [m for m in self.terms if m & _MAX_EXP == top]
        if len(tied) == 1:
            return tied[0]
        unpack = self.reg.unpack
        return min(tied, key=lambda m: mono_key(unpack(m)))

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term in graded-lex order; requires a nonzero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = self._lead()
        return self.reg.unpack(m), Fraction(self.terms[m])

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """(tuple monomial, coefficient) pairs in descending graded-lex order."""
        unpack = self.reg.unpack
        out = [(unpack(m), c) for m, c in self.terms.items()]
        out.sort(key=lambda t: mono_key(t[0]))
        return out

    # -- arithmetic

    def _check(self, other: "MPoly") -> None:
        if self.reg is not other.reg:
            raise ContextMismatchError("polynomials belong to different registries")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        get = terms.get
        for m, c in other.terms.items():
            acc = get(m, 0) + c
            if acc:
                terms[m] = acc if type(acc) is int else _norm(acc)
            else:
                del terms[m]
        return MPoly(self.reg, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.reg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def _times(self, other: "MPoly") -> "MPoly":
        """Product of two nonzero polynomials whose degrees were checked."""
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ma, ca),) = a.items()
            return MPoly.from_packed(
                self.reg, {ma + mb: ca * cb for mb, cb in b.items()}
            )
        terms: dict[int, Coeff] = {}
        get = terms.get
        items = b.items()
        for ma, ca in a.items():
            for mb, cb in items:
                m = ma + mb
                terms[m] = get(m, 0) + ca * cb
        return MPoly.from_packed(self.reg, terms)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if not self.terms or not other.terms:
            return MPoly.zero(self.reg)
        self._check(other)
        _field_guard(self.total_degree() + other.total_degree(), "product")
        return self._times(other)

    def __pow__(self, k: int) -> "MPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("MPoly powers take nonnegative integer exponents")
        if k == 0:
            return MPoly.const(self.reg, 1)
        _field_guard(self.total_degree() * k, "power")
        if not self.terms:
            return self
        result = None
        base = self
        e = k
        while e:
            if e & 1:
                result = base if result is None else result._times(base)
            e >>= 1
            if e:
                base = base._times(base)
        return result

    def scale(self, c) -> "MPoly":
        if type(c) is not int:
            c = _norm(Fraction(c))
        if c == 0:
            return MPoly.zero(self.reg)
        if c == 1:
            return self
        return MPoly.from_packed(self.reg, {m: co * c for m, co in self.terms.items()})

    # -- evaluation

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a point; the assignment must cover every variable."""
        values = {}
        for v in self.variables():
            if v not in assignment:
                raise MissingVariableError(
                    f"no value for variable {self.reg.name(v)!r}"
                )
            values[v] = _norm(Fraction(assignment[v]))
        exponents = self.reg.exponents
        total = 0
        for m, c in self.terms.items():
            for v, e in exponents(m):
                c *= values[v] ** e
            total += c
        return Fraction(total)

    # -- equality and display

    def __eq__(self, other) -> bool:
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
    num, den, p = _primitive(f)
    return Fraction(num, den), p


def primitive_part(f: MPoly) -> MPoly:
    return _primitive(f)[2] if f.terms else f


def _primitive(f: MPoly) -> tuple[int, int, MPoly]:
    """(num, den, p) with f = num/den * p and p as in content_and_primitive;
    f is nonzero."""
    coeffs = f.terms.values()
    try:
        num_gcd, den_lcm = math.gcd(*coeffs), 1
    except TypeError:  # some coefficient is a Fraction
        num_gcd = math.gcd(*(c.numerator for c in coeffs))
        den_lcm = math.lcm(*(c.denominator for c in coeffs))
    if min(coeffs) < 0 and f.terms[f._lead()] < 0:
        num_gcd = -num_gcd
    if den_lcm == 1:
        if num_gcd == 1:
            return 1, 1, f
        prim = {m: c // num_gcd for m, c in f.terms.items()}
    else:
        prim = {
            m: c.numerator * (den_lcm // c.denominator) // num_gcd
            for m, c in f.terms.items()
        }
    return num_gcd, den_lcm, MPoly(f.reg, prim)


def div_exact(f: MPoly, d: MPoly) -> MPoly:
    """Quotient f/d when the division is exact; raises ExactDivisionError otherwise.

    Long division in the packed order: while the remainder is nonzero, its
    largest term over the leading term of d gives the next quotient term, and
    that term times d is subtracted from the remainder.  A quotient term that
    cannot belong to an exact quotient (a monomial not divisible by the
    leading one, a total degree above deg f - deg d, or a monomial below
    trailing(f)/trailing(d)) stops the division, so no product exceeds deg f.
    """
    if d.is_zero():
        raise DivisionByZeroError("division by the zero polynomial")
    if f.is_zero():
        return f
    if f.reg is not d.reg:
        raise ContextMismatchError("polynomials belong to different registries")
    if d.is_one():
        return f
    guard = f.reg._guard
    q_deg = f.total_degree() - d.total_degree()
    q_low = min(f.terms) - min(d.terms)
    lm = max(d.terms)
    if q_deg < 0 or q_low & guard or (max(f.terms) - lm) & guard:
        raise ExactDivisionError("division is not exact")
    lc = d.terms[lm]
    rest = [(m, c) for m, c in d.terms.items() if m != lm]
    r = dict(f.terms)
    q: dict[int, Coeff] = {}
    while r:
        m = max(r)
        qm = m - lm
        if qm & guard or qm < q_low or qm & _MAX_EXP > q_deg:
            raise ExactDivisionError("division is not exact")
        qc = q[qm] = _quo(r.pop(m), lc)
        for dm, dc in rest:
            dm += qm
            c = r.get(dm, 0) - qc * dc
            if c:
                r[dm] = c
            else:
                del r[dm]
    return MPoly(f.reg, q)


def _degree_in(f: MPoly, v: int) -> int:
    field = f.reg._shift[v].__rrshift__  # m -> m >> shift
    return max(map(_MAX_EXP.__and__, map(field, f.terms)), default=0)


def _coeff_in(f: MPoly, v: int, k: int) -> MPoly:
    """Coefficient of v**k in f, as a polynomial in the remaining variables."""
    shift = f.reg._shift[v]
    strip = (k << shift) + k
    return MPoly(
        f.reg,
        {m - strip: c for m, c in f.terms.items() if (m >> shift) & _MAX_EXP == k},
    )


def lowest_coefficient(f: MPoly, v: int) -> MPoly:
    """Coefficient of the lowest power of v in f, as a polynomial in the
    remaining variables; nonzero whenever f is."""
    shift = f.reg._shift[v]
    return _coeff_in(f, v, min(((m >> shift) & _MAX_EXP for m in f.terms), default=0))


def univariate_at(f: MPoly, v: int, values: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """f as a polynomial in v alone (exponent -> coefficient), with every
    other variable at its value in values, or at 0 where values has none."""
    shifts = f.reg._shift
    at = [(shifts[w], x) for w, x in values.items() if x and w != v]
    kept = _MAX_EXP | _MAX_EXP << shifts[v] | sum(_MAX_EXP << s for s, _ in at)
    out: dict[int, Coeff] = {}
    for m, c in f.terms.items():
        if not m & ~kept:  # no variable at 0
            for s, x in at:
                c *= x ** ((m >> s) & _MAX_EXP)
            e = (m >> shifts[v]) & _MAX_EXP
            out[e] = out.get(e, 0) + c
    return out


def _var_power(reg: VarRegistry, v: int, k: int) -> MPoly:
    _field_guard(k, "power")
    return MPoly(reg, {(k << reg._shift[v]) + k: 1})


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
        r = lg * r - lr * _var_power(f.reg, v, dr - dg) * g
        steps += 1
    # normalize to the full lc power so the subresultant divisions stay exact
    missing = df - dg + 1 - steps
    if missing > 0 and not r.is_zero():
        r = r * lg**missing
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


def _coeffs_over(f: MPoly, keep: Iterable[int]) -> list[MPoly]:
    """Coefficients of f viewed as a polynomial in the variables outside
    keep; each is a polynomial in the variables of keep."""
    shifts = [f.reg._shift[v] for v in keep]
    groups: dict[int, dict[int, Coeff]] = {}
    for m, c in f.terms.items():
        kept = 0
        for s in shifts:
            e = (m >> s) & _MAX_EXP
            kept += (e << s) + e
        groups.setdefault(m - kept, {})[kept] = c
    return [MPoly(f.reg, t) for t in groups.values()]


def _mono_min(reg: VarRegistry, monos: Collection[int]) -> int:
    """Largest packed monomial dividing every one of monos (at least one)."""
    if 0 in monos:
        return 0
    common: dict[int, int] | None = None
    for m in monos:
        exps = dict(reg.exponents(m))
        if common is None:
            common = exps
        else:
            common = {v: min(e, exps[v]) for v, e in common.items() if v in exps}
        if not common:
            return 0
    return reg.pack(tuple(common.items()))


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
        a, b = b, div_exact(r, g * h**delta)
        g = _coeff_in(a, v, _degree_in(a, v))
        if delta == 1:
            h = g
        elif delta > 1:
            h = div_exact(g**delta, h ** (delta - 1))


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
    reg = a.reg
    ma = _mono_min(reg, pa.terms)
    mb = _mono_min(reg, pb.terms)
    mono = _mono_min(reg, (ma, mb))
    pa = MPoly(reg, {m - ma: c for m, c in pa.terms.items()})
    pb = MPoly(reg, {m - mb: c for m, c in pb.terms.items()})
    if pa.is_constant() or pb.is_constant():
        core = MPoly.const(reg, 1)
    elif _divides(pb, pa):
        core = pb
    elif _divides(pa, pb):
        core = pa
    else:
        va, vb = set(pa.variables()), set(pb.variables())
        shared = va & vb
        if not shared:
            core = MPoly.const(reg, 1)
        elif va != vb:
            # a common factor lives in the shared variables, so it divides
            # every coefficient of pa and pb over their other variables
            parts = _coeffs_over(pa, shared) + _coeffs_over(pb, shared)
            parts.sort(key=lambda p: len(p.terms))
            core = MPoly.zero(reg)
            for p in parts:
                core = mpoly_gcd(core, p)
                if core.is_one():
                    break
        else:
            v = min(shared)
            ca, fa = _content_pp_in(pa, v)
            cb, fb = _content_pp_in(pb, v)
            cg = mpoly_gcd(ca, cb)
            core = cg * _gcd_in_var(fa, fb, v)
    if mono:
        core = MPoly(reg, {m + mono: c for m, c in core.terms.items()})
    return primitive_part(core)


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

    def as_poly(self) -> MPoly:
        if not self.den.is_one():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    def __add__(self, other: "RatFunc") -> "RatFunc":
        # denominators are reduced pairwise (gcd of the dens, then gcd with the
        # cross sum), so no full-size gcd is ever taken
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

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        # cross-cancellation keeps the result coprime without a final gcd
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

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DivisionByZeroError("division by the zero rational function")
        return self * RatFunc._normalized(other.den, other.num)

    def __pow__(self, k: int) -> "RatFunc":
        if not isinstance(k, int) or k < 0:
            raise ValueError("RatFunc powers take nonnegative integer exponents")
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


def odd_component(f: MPoly, vars: Iterable[int]) -> MPoly:
    """Sum of the terms of f whose graded degree is odd in every listed generator.

    The graded degree of a monomial in generator v counts v and every jet
    symbol of v once per exponent unit (the Leibniz action preserves this
    grading).  Its parity is the parity of the number of odd exponents among
    those symbols, so one mask of their fields' lowest bits per generator
    decides it.
    """
    reg = f.reg
    masks = [
        sum(1 << reg._shift[w] for w in reg.symbols() if v in (w, reg.base_of(w)))
        for v in vars
    ]
    terms = {
        m: c
        for m, c in f.terms.items()
        if all((m & mask).bit_count() & 1 for mask in masks)
    }
    return MPoly(reg, terms)
