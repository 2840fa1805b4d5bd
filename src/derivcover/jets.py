"""Free differential contexts: derivation letters, words, operators, Leibniz action.

A JetContext owns a set of base generators x1..xk and, for every word of
length 1..L over an alphabet of derivation letters D1..Dm, a jet symbol
`word(generator)` standing for the value of that composition of derivations
at the generator.  Letters satisfy no relations and do not commute, so an
identity of jet polynomials that holds here holds for every choice of
derivations on the complex numbers and every transcendental instantiation of
the generators; a nonzero defect conversely yields a complex counterexample
by assigning the jets freely.  This witness principle is what turns the
universally quantified identities into finite computations.

Jet symbols are allocated when first asked for, as differential algebra
treats the derivatives of an indeterminate, so a context holds only the
symbols the Leibniz action has reached.  A membership check places the jet
of every subword of the operator's words (JetContext.place_subwords) only
when it refutes, so that its witness assigns them all; the parity
extraction places them for its grading test.  A jet is placed by its index
alone, and its name is built from that index when it is first printed:
word_name spells its word, the one spelling of a word everywhere.
Names are looked up only for the generators: the expression grammar's names
(`[a-z][0-9]*`) cannot spell a jet.

No nonconstant polynomial p divides its own image D(p) under a letter D.
D sends a symbol v of p with the longest word to a symbol D(v) that p does
not contain, and D(p) is linear in D(v) with the coefficient dp/dv.  So p
dividing D(p) would divide dp/dv, which is nonzero and of lower degree in v
than p.  Every irreducible p is thus normal in the sense of Hermite
reduction (Bronstein, Symbolic Integration I, ch. 5), which lets derive
reduce a fraction's image with one gcd.

Words are tuples of 0-based letter indices written outermost-first:
(0, 1) is D1∘D2, which applies D2 first.  Jet symbols render accordingly,
e.g. `D2.D1(x3)`.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .errors import (
    ContextMismatchError,
    PreconditionError,
    UnknownLetterError,
    WordLengthError,
)
from .poly import Coeff, MPoly, RatFunc, VarRegistry, add_scaled, canonical
from .poly import div_exact, mpoly_gcd, signed_sum

Word = tuple[int, ...]


@cache
def word_name(word: Word) -> str:
    """Text of a word, e.g. `D2.D1`; it does not depend on the context."""
    return ".".join(f"D{letter + 1}" for letter in word)


class JetContext(VarRegistry):
    """Registry of generators plus jet symbols allocated on first use.

    `alphabet_size` and `max_word_len` bound the words a symbol may carry.
    A jet symbol word(g) always gets the same index, whatever else has been
    allocated: generators come first, then jets ordered by word length, then
    word, then generator.  Variable order, and with it every rendered
    polynomial, therefore does not depend on which symbols were reached.
    The index alone says which generator and word a symbol stands for, so
    the generators are fixed when the context is built, and a jet is placed
    without a name: name builds it on first use.  lookup finds generators
    only; a jet's name gives None.
    """

    def __init__(
        self, num_generators: int, alphabet_size: int = 0, max_word_len: int = 0
    ) -> None:
        if num_generators < 1:
            raise ValueError("need at least one generator")
        if alphabet_size < 0 or max_word_len < 0:
            raise ValueError("alphabet size and word length must be nonnegative")
        super().__init__()
        self.alphabet_size = alphabet_size
        self.max_word_len = max_word_len
        self._gens = tuple(
            VarRegistry.add_generator(self, f"x{i + 1}") for i in range(num_generators)
        )
        # packed steps of _derive_poly: letter -> v -> unit(shifted symbol) - unit(v)
        self._steps: dict[int, dict[int, int]] = {}

    def add_generator(self, name: str) -> int:
        raise PreconditionError(
            f"a jet context takes no generator after it is built: {name!r}"
        )

    @property
    def gens(self) -> tuple[int, ...]:
        return self._gens

    def gen(self, i: int = 0) -> RatFunc:
        """The i-th generator as a rational function."""
        return RatFunc.var(self, self._gens[i])

    def jet(self, g: int, word: Word) -> int:
        """Variable index of the jet symbol word(g), allocated on first request.

        The index is g's position among the generators plus their count times
        the word read as a bijective base-m numeral (letter i is digit i + 1),
        which is the word's rank in (length, word) order counted from 1.
        """
        if not 0 <= g < len(self._gens) or not word:
            raise ValueError(f"no jet symbol for generator {g} and word {word!r}")
        self.check_word(word)
        number = 0
        for letter in word:
            number = number * self.alphabet_size + letter + 1
        v = len(self._gens) * number + g
        if v not in self:
            self._place(v)
        return v

    def place_subwords(self, words: Iterable[Word]) -> None:
        """Place the jet of every nonempty subword (letters kept in order) of
        words at every generator, in index order, skipping the jets already
        placed.  Each word must pass check_word.

        Works on numerals alone: appending letter l to the word of numeral u
        gives the numeral u·m + l + 1 (see jet), so no word or name is built.
        Placing in index order gives the short words the low fields of a
        packed monomial.
        """
        m, k = self.alphabet_size, len(self._gens)
        numbers: set[int] = set()
        for w in words:
            self.check_word(w)
            own = {0}
            for letter in w:
                own |= {u * m + letter + 1 for u in own}
            numbers |= own
        numbers.discard(0)
        new = [v for u in sorted(numbers) for v in range(k * u, k * u + k) if v not in self]
        self._place(*new)

    def name(self, v: int) -> str:
        """Name of symbol v, e.g. `D2.D1(x3)`.  A jet's name is built from
        its index on first use; KeyError if v is not allocated."""
        text = self._names.get(v)
        if text is None:
            if v not in self._shift:
                raise KeyError(v)
            g = self.base_of(v)
            text = self._names[v] = f"{word_name(self.word_of(v))}({self._names[g]})"
        return text

    def check_word(self, word: Word) -> None:
        """Raise unless word's letters are in the alphabet and it fits the
        max word length; the empty word fits every context."""
        for letter in word:
            if not 0 <= letter < self.alphabet_size:
                raise UnknownLetterError(
                    f"letter D{letter + 1} outside alphabet of size {self.alphabet_size}"
                )
        if len(word) > self.max_word_len:
            raise WordLengthError(
                f"word {word_name(word)} exceeds max word length {self.max_word_len}"
            )

    def base_of(self, v: int) -> int:
        """The generator symbol v belongs to; a generator belongs to itself."""
        return v % len(self._gens)

    def word_of(self, v: int) -> Word:
        """The derivation word of symbol v, decoded from its index; () for a
        generator."""
        number, word = v // len(self._gens), ()
        while number:
            number, letter = divmod(number - 1, self.alphabet_size)
            word = (letter,) + word
        return word

    def shifted_symbol(self, letter: int, v: int) -> int:
        """Variable for one more derivation applied to v: letter·(word of v)."""
        return self.jet(self.base_of(v), (letter,) + self.word_of(v))


# ---------------------------------------------------------------------------
# The Leibniz action


def _derive_poly(ctx: JetContext, letter: int, p: MPoly) -> MPoly:
    # the term c*m contributes c*e * m/v * d for every v^e in m, with d the
    # shifted symbol of v; in packed form m/v * d is m plus unit(d) - unit(v)
    step = ctx._steps.setdefault(letter, {})
    terms: dict = {}
    get = terms.get
    for m, c in p.terms.items():
        for v, e in ctx.exponents(m):
            s = step.get(v)
            if s is None:
                s = step[v] = ctx.unit(ctx.shifted_symbol(letter, v)) - ctx.unit(v)
            n = m + s
            terms[n] = get(n, 0) + c * e
    return MPoly.from_packed(ctx, terms)


def derive(ctx: JetContext, letter: int, f: RatFunc) -> RatFunc:
    """Apply one derivation letter D to f (Leibniz rule, quotient rule on
    fractions).

    A fraction N/den is reduced by the one gcd g = gcd(den, D(den)): with
    r = den/g the result is (D(N)·r − N·D(den)/g) / (den·r), already in
    lowest terms.  For an irreducible factor p of den with multiplicity e,
    p does not divide D(p) (module docstring), so p divides D(den) exactly
    e − 1 times, g = prod p^(e−1) and r = prod p.  Modulo p the numerator
    is −N·e·D(p)·prod_{q != p} q, which is nonzero, so it shares no factor
    with den·r.  The result's denominator d·r has the same radical r, so
    every word u of letters sends f over d to u(f) over d·r^|u|.  A
    polynomial is the case den = 1: D(1) = 0, so g = r = 1.
    """
    if f.reg is not ctx:
        raise ContextMismatchError("rational function does not live in this context")
    dd = _derive_poly(ctx, letter, f.den)
    g = mpoly_gcd(f.den, dd)
    r = div_exact(f.den, g)
    num = _derive_poly(ctx, letter, f.num) * r - f.num * div_exact(dd, g)
    return RatFunc._normalized(num, f.den * r)


# ---------------------------------------------------------------------------
# Operators: rational linear combinations of derivation words


class Operator:
    """Formal linear combination of derivation words with rational
    coefficients.

    The empty word acts as the identity map.  Operators are immutable and
    canonical: no zero coefficients, no duplicate words, and each
    coefficient in the polynomial layer's canonical type (an int when
    integral, a Fraction otherwise).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Coeff]) -> None:
        self.terms = terms

    @classmethod
    def zero(cls) -> "Operator":
        return cls({})

    @classmethod
    def word(cls, letters: Iterable[int]) -> "Operator":
        return cls({tuple(letters): 1})

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Word, Coeff]]) -> "Operator":
        """The sum of the terms c*w; a coefficient is anything Fraction
        takes."""
        terms: dict[Word, Coeff] = {}
        for w, c in items:
            acc = canonical(terms.get(w, 0) + canonical(c))
            if acc == 0:
                terms.pop(w, None)
            else:
                terms[w] = acc
        return cls(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def words(self) -> list[Word]:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def max_word_len(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def alphabet_span(self) -> int:
        """Smallest alphabet size containing every letter used."""
        top = -1
        for w in self.terms:
            for letter in w:
                if letter > top:
                    top = letter
        return top + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def render(self) -> str:
        """Canonical text in the operator grammar, e.g. `2*D1 + 3/2*D2.D3`.

        The zero operator renders as `0*D1` so it stays parseable; an
        identity (empty word) term renders as a bare rational, which lies
        outside the input grammar.
        """
        return signed_sum((self.terms[w], word_name(w)) for w in self.words()) or "0*D1"

    def __repr__(self) -> str:
        return f"Operator({self.render()})"


def apply_operator(ctx: JetContext, op: Operator, f: RatFunc) -> RatFunc:
    """Apply a linear combination of words to f; additive and linear in both
    slots.  A word applies its rightmost letter first, and the words go in
    Operator.words() order.

    On a polynomial the images are packed: each word's letters run through
    the Leibniz rule on packed terms, and the scaled images are added into
    one dict.  A fraction takes derive's quotient rule letter by letter, and
    its images are added one at a time.  An f from another context is
    refused unless op is zero."""
    if f.reg is not ctx and op.terms:
        # what a fold of a polynomial's images raises at the first word: in
        # adding the identity's image across registries, or in derive
        raise ContextMismatchError(
            "polynomials belong to different registries" if () in op.terms
            else "rational function does not live in this context"
        )
    if not f.den.is_one():
        total = RatFunc.zero(ctx)
        for w in op.words():
            image = f
            for letter in reversed(w):
                image = derive(ctx, letter, image)
            total = total + image.scale(op.terms[w])
        return total
    terms: dict[int, Coeff] = {}
    for w in op.words():
        image = f.num
        for letter in reversed(w):
            image = _derive_poly(ctx, letter, image)
        add_scaled(terms, image, op.terms[w])
    return RatFunc.from_poly(MPoly.from_packed(ctx, terms))
