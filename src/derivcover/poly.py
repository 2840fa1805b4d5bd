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
order), computed from the unpacked exponents: sorted_terms(), render() and
mono_key().  At the boundary a monomial is a tuple of (variable index,
exponent) pairs sorted by index, with all exponents > 0; the empty tuple is
the constant monomial.  Tuples enter only through from_terms(), which builds
each term from const(), var(), products and powers (for tests and the suite's
coset sampler), and leave only through sorted_terms(), render() and the
leading-term choice; every computing path builds packed ints directly.

No field may overflow.  A monomial whose total degree exceeds 2**15 - 1 is
refused with DegreeGuardError wherever it could arise: in every product and
power.  Exact division builds no product of higher degree than its dividend.

A rational function is a pair num/den in fully reduced form: gcd(num, den)
is constant, den has integer coefficients with content 1 and a positive
leading coefficient.  Equality of values is therefore equality of
representation.  Reduction takes gcds by one subresultant sequence, run on
dense coefficient lists in one variable: the coefficients are ints when both
polynomials are in that variable alone, and polynomials in the other
variables otherwise.

Each binary operator of MPoly and RatFunc takes an operand of its own class
only; a number enters arithmetic through const() or scale().

Variables live in a VarRegistry, which gives each one an index, a name and
an exponent field.  Operands from two registries raise ContextMismatchError,
also when one of them is zero.
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


def canonical(c) -> Coeff:
    """Any number that Fraction takes, as a coefficient in canonical type."""
    return c if type(c) is int else _norm(Fraction(c))


def _quo(c: Coeff, d: Coeff) -> Coeff:
    """Exact quotient of two coefficients in canonical type."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return _norm(c / d)


class VarRegistry:
    """Allocation of variables.

    Polynomials hold a reference to their registry; operations on polynomials
    from different registries raise ContextMismatchError.  Registries are
    append-only: existing indices never change meaning.  Plain registries
    number their variables densely; a subclass may place a variable at an
    explicit index, so the allocated indices need not be contiguous.  Placing
    a variable gives it the next exponent field of the packed monomials, in
    placement order, so a new variable never moves an existing field.  The
    placed fields alone say which variables exist; the name record is kept
    apart, so a subclass may place a variable without naming it and build
    its name when it is first asked for.  lookup finds the names recorded
    by add_generator.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._by_name: dict[str, int] = {}
        self._slots: list[int] = []  # variable index of each field, bottom up
        self._shift: dict[int, int] = {}  # variable index -> bit offset of its field

    @property
    def _guard(self) -> int:
        """The top bit of every two-byte field: the total degree's and each variable's."""
        return int.from_bytes(b"\x00\x80" * (len(self._slots) + 1), "little")

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return len(self._slots)

    def __contains__(self, v: int) -> bool:
        return v in self._shift

    def symbols(self) -> list[int]:
        """Every allocated variable index, ascending."""
        return sorted(self._slots)

    def add_generator(self, name: str) -> int:
        """Place the next variable and record its name."""
        if name in self._by_name:
            raise ValueError(f"variable {name!r} already allocated")
        idx = len(self._slots)
        self._place(idx)
        self._names[idx] = name
        self._by_name[name] = idx
        return idx

    def _place(self, *indices: int) -> None:
        """Give each variable of indices the next exponent field, in order."""
        slots, shifts = self._slots, self._shift
        for idx in indices:
            if idx in shifts:
                raise ValueError(f"variable index {idx} already allocated")
            slots.append(idx)
            shifts[idx] = len(slots) * _FIELD_BITS

    def name(self, v: int) -> str:
        return self._names[v]

    def lookup(self, name: str) -> int | None:
        return self._by_name.get(name)

    # -- packed monomials

    def unit(self, v: int) -> int:
        """The packed monomial v**1."""
        return (1 << self._shift[v]) + 1

    def exponents(self, m: int) -> list[tuple[int, int]]:
        """(variable, exponent) pairs of a packed monomial, in allocation order."""
        fields = array("H", m.to_bytes((m.bit_length() + 15) // 16 * 2, "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        return [(v, e) for v, e in zip(self._slots, fields[1:]) if e]

    def unpack(self, m: int) -> Monomial:
        """Tuple form of a packed monomial, sorted by variable index."""
        return tuple(sorted(self.exponents(m)))


def signed_sum(pairs: Iterable[tuple[Coeff, str]]) -> str:
    """Text of the sum of the terms c*body, e.g. `a - 2*b + 1/2`, from
    (c, body) pairs with c nonzero; an empty body stands for the bare
    coefficient.  The empty sum gives the empty string."""
    chunks: list[str] = []
    for c, body in pairs:
        mag = -c if c < 0 else c
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if chunks:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            chunks.append(f"-{body}" if c < 0 else body)
    return "".join(chunks)


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
            c = canonical(c)
        return cls(reg, {0: c} if c else {})

    @classmethod
    def var(cls, reg: VarRegistry, v: int) -> "MPoly":
        if v not in reg:
            raise ValueError(f"variable index {v} is not allocated")
        return cls(reg, {reg.unit(v): 1})

    @classmethod
    def from_terms(cls, reg: VarRegistry, items: Iterable[tuple[Monomial, Fraction]]) -> "MPoly":
        terms = (
            math.prod((cls.var(reg, v) ** e for v, e in m), start=cls.const(reg, c))
            for m, c in items
        )
        return sum(terms, cls.zero(reg))

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

    def __bool__(self) -> bool:
        return bool(self.terms)

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

    def __mul__(self, other: "MPoly") -> "MPoly":
        terms: dict[int, Coeff] = {}
        add_product(terms, self, other, 1)
        return MPoly.from_packed(self.reg, terms)

    def __pow__(self, k: int) -> "MPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("MPoly powers take nonnegative integer exponents")
        if k == 0:
            return MPoly.const(self.reg, 1)
        _field_guard(self.total_degree() * k, "power")
        if len(self.terms) < 2:  # zero or one term: no product loop, whatever k is
            return MPoly(self.reg, {m * k: c**k for m, c in self.terms.items()})
        # repeated multiplication, which for sparse multivariate operands
        # usually beats repeated squaring (Fateman 1974)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def scale(self, c) -> "MPoly":
        if type(c) is not int:
            c = canonical(c)
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
        name = self.reg.name
        return signed_sum(
            (c, "*".join([name(v) if e == 1 else f"{name(v)}^{e}" for v, e in m]))
            for m, c in self.sorted_terms()
        ) or "0"

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"


# ---------------------------------------------------------------------------
# Content, exact division, gcd


def primitive_part(f: MPoly) -> MPoly:
    return _primitive(f)[2] if f.terms else f


def _primitive(f: MPoly) -> tuple[int, int, MPoly]:
    """(num, den, p) with f = num/den * p, where p has coprime integer
    coefficients and a positive leading coefficient; f is nonzero."""
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
    f._check(d)
    if f.is_zero() or d.is_one():
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


def _dense_in(f: MPoly, v: int) -> list[MPoly]:
    """Coefficients of f in v, leading first: each is a polynomial in the
    other variables."""
    shift = f.reg._shift[v]
    parts: dict[int, dict[int, Coeff]] = {}
    for m, c in f.terms.items():
        k = (m >> shift) & _MAX_EXP
        parts.setdefault(k, {})[m - (k << shift) - k] = c
    return [MPoly(f.reg, parts.get(k, {})) for k in range(max(parts), -1, -1)]


def _content_pp_in(coeffs: list[MPoly]) -> tuple[MPoly, list[MPoly]]:
    """Content and primitive part of a polynomial in one variable, given by
    its dense coefficients (_dense_in)."""
    cont = _gcd_all(coeffs[0].reg, reversed(coeffs))
    return cont, [div_exact(c, cont) for c in coeffs]


def _gcd_all(reg: VarRegistry, polys: Iterable[MPoly]) -> MPoly:
    """gcd of the polys, folded in their order up to the first 1."""
    g = MPoly.zero(reg)
    for p in polys:
        g = mpoly_gcd(g, p)
        if g.is_one():
            break
    return g


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
    return sum((e << reg._shift[v]) + e for v, e in common.items())


def _divides(d: MPoly, f: MPoly) -> bool:
    try:
        div_exact(f, d)
        return True
    except ExactDivisionError:
        return False


def _int_quo(n: int, d: int) -> int:
    """n // d, raising ExactDivisionError if d does not divide n."""
    q, r = divmod(n, d)
    if r:
        raise ExactDivisionError("division is not exact")
    return q


def _subresultant(fa: list, fb: list, quo) -> list:
    """Last nonzero remainder, a constant one undivided, of the subresultant
    sequence (Collins 1967; Brown and Traub 1971) of two polynomials in one
    variable with positive degree and content 1; their gcd is its primitive part.

    Each polynomial is a dense list of coefficients, leading first.  The
    coefficients are ints, with quo = _int_quo, or polynomials in the other
    variables, with quo = div_exact; either kind is false when zero.
    """
    if len(fa) < len(fb):
        fa, fb = fb, fa
    g = h = fa[0] ** 0  # the coefficients' one
    while True:
        delta = len(fa) - len(fb)
        # pseudo-remainder lc(fb)^(delta + 1) * fa mod fb
        lc, r, steps = fb[0], fa, 0
        while len(r) >= len(fb):
            lr = r[0]
            r = [lc * c for c in r[1:]]
            for i, c in enumerate(fb[1:]):
                r[i] -= lr * c
            steps += 1
            while r and not r[0]:
                r.pop(0)
        if len(r) < 2:  # fb divides fa, or the pair is coprime
            return r or fb
        missing = delta + 1 - steps
        if missing > 0:
            scale = lc**missing
            r = [c * scale for c in r]
        d = g * h**delta
        fa, fb = fb, [quo(c, d) for c in r]
        g = fa[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = quo(g**delta, h ** (delta - 1))


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, returned primitive with positive leading coefficient.

    Monomial content and trial division handle the common easy shapes
    first.  Two parts in the same variables then run one subresultant
    sequence (_subresultant) on their dense coefficient lists in the
    smallest of them, v.  In v alone the coefficients are ints, read from
    the packed terms.  In more variables they are polynomials in the others:
    each part is split into its content and primitive part in v, and the
    gcd is the gcd of the contents times the primitive part in v of the
    sequence's last remainder.  gcd(0, 0) = 0.
    """
    a._check(b)
    if a.is_zero():
        return primitive_part(b)
    if b.is_zero():
        return primitive_part(a)
    pa = primitive_part(a)
    pb = primitive_part(b)
    if pa == pb:
        return pa
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
        if va != vb:
            # a common factor lives in the shared variables, so it divides
            # every coefficient of pa and pb over their other variables
            parts = _coeffs_over(pa, shared) + _coeffs_over(pb, shared)
            core = _gcd_all(reg, sorted(parts, key=lambda p: len(p.terms)))
        else:
            v = min(shared)
            unit = reg.unit(v)  # v**k packs as k * unit
            if len(shared) == 1:
                # integer coefficients, read straight from the packed terms
                last = _subresultant(
                    *([f.terms.get(k * unit, 0) for k in range(f.total_degree(), -1, -1)]
                      for f in (pa, pb)),
                    _int_quo,
                )
                core = MPoly(reg, {(len(last) - 1 - k) * unit: c for k, c in enumerate(last) if c})
            else:
                ca, fa = _content_pp_in(_dense_in(pa, v))
                cb, fb = _content_pp_in(_dense_in(pb, v))
                cg = mpoly_gcd(ca, cb)
                _, last = _content_pp_in(_subresultant(fa, fb, div_exact))
                core = cg * MPoly(reg, {
                    m + (len(last) - 1 - k) * unit: c
                    for k, p in enumerate(last) for m, c in p.terms.items()
                })
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
        if not den.is_one():
            g = mpoly_gcd(num, den)
            num = div_exact(num, g)
            den = div_exact(den, g)
        return cls._normalized(num, den)

    @classmethod
    def _normalized(cls, num: MPoly, den: MPoly) -> "RatFunc":
        """Finish canonicalization of an already coprime num/den pair: make the
        denominator integer-primitive with positive leading coefficient."""
        if num.is_zero():
            return cls(num, MPoly.const(num.reg, 1))
        c_num, c_den, den = _primitive(den)
        if c_num != c_den:
            num = num.scale(Fraction(c_den, c_num))
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
        self.num._check(other.num)
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, self.den)
        if self.is_zero():
            return other
        g0 = mpoly_gcd(self.den, other.den)
        if g0.is_constant():
            return RatFunc._normalized(
                self.num * other.den + other.num * self.den,
                self.den * other.den,
            )
        da = div_exact(self.den, g0)
        db = div_exact(other.den, g0)
        t = self.num * db + other.num * da
        g1 = mpoly_gcd(t, g0)
        return RatFunc._normalized(div_exact(t, g1), div_exact(self.den, g1) * db)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        # cross-cancellation keeps the result coprime without a final gcd
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den)
        na, da = self.num, self.den
        nb, db = other.num, other.den
        g1 = mpoly_gcd(na, db)
        na = div_exact(na, g1)
        db = div_exact(db, g1)
        g2 = mpoly_gcd(nb, da)
        nb = div_exact(nb, g2)
        da = div_exact(da, g2)
        return RatFunc._normalized(na * nb, da * db)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DivisionByZeroError("division by the zero rational function")
        if self.den.is_one() and other.den.is_one():
            # one make() for the inverse and the product: without it a parse takes 20% longer
            return RatFunc.make(self.num, other.num)
        return self * RatFunc._normalized(other.den, other.num)

    def __pow__(self, k: int) -> "RatFunc":
        if not isinstance(k, int) or k < 0:
            raise ValueError("RatFunc powers take nonnegative integer exponents")
        # num and den are coprime, so the powers stay coprime (Gauss)
        return RatFunc(self.num**k, self.den if self.den.is_one() else self.den**k)

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


def add_scaled(terms: dict[int, Coeff], p: MPoly, c: Coeff) -> None:
    """Add c*p into packed terms in place.  The sums may be zero or integral
    Fractions; MPoly.from_packed makes them canonical."""
    get = terms.get
    for m, v in p.terms.items():
        terms[m] = get(m, 0) + c * v


def add_product(terms: dict[int, Coeff], p: MPoly, q: MPoly, c: Coeff) -> None:
    """Add c*p*q into packed terms in place: the one schoolbook product, which
    MPoly.__mul__ runs into an empty dict.  The shorter operand runs the outer
    loop.  The sums may be zero or integral Fractions; MPoly.from_packed
    makes them canonical."""
    p._check(q)
    if p.terms and q.terms:
        _field_guard(p.total_degree() + q.total_degree(), "product")
        a, b = p.terms, q.terms
        if len(a) > len(b):
            a, b = b, a
        get = terms.get
        items = b.items()
        for ma, ca in a.items():
            ca *= c
            for mb, cb in items:
                m = ma + mb
                terms[m] = get(m, 0) + ca * cb
