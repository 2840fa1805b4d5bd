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
symbols the Leibniz action has reached.

Words are tuples of 0-based letter indices written outermost-first:
(0, 1) is D1∘D2, which applies D2 first.  Jet symbols render accordingly,
e.g. `D2.D1(x3)`.
"""

from __future__ import annotations

from fractions import Fraction
from .errors import UnknownLetterError, WordLengthError
from .poly import MPoly, RatFunc, VarRegistry

Word = tuple[int, ...]


def word_name(word: Word) -> str:
    return ".".join(f"D{letter + 1}" for letter in word)


class JetContext(VarRegistry):
    """Registry of generators plus jet symbols allocated on first use.

    `alphabet_size` and `max_word_len` bound the words a symbol may carry.
    A jet symbol word(g) always gets the same index, whatever else has been
    allocated: generators come first, then jets ordered by word length, then
    word, then generator.  Variable order, and with it every rendered
    polynomial, therefore does not depend on which symbols were reached.
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
            self.add_generator(f"x{i + 1}") for i in range(num_generators)
        )
        self._shifted: dict[tuple[int, int], int] = {}

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
        number = 0
        for letter in word:
            if not 0 <= letter < self.alphabet_size:
                raise UnknownLetterError(
                    f"letter D{letter + 1} outside alphabet of size {self.alphabet_size}"
                )
            number = number * self.alphabet_size + letter + 1
        if len(word) > self.max_word_len:
            raise WordLengthError(
                f"word {word_name(word)} exceeds max word length {self.max_word_len}"
            )
        v = len(self._gens) * number + g
        if v not in self:
            self.add_jet(f"{word_name(word)}({self.name(g)})", g, word, v)
        return v

    def shifted_symbol(self, letter: int, v: int) -> int:
        """Variable for one more derivation applied to v: letter·(word of v)."""
        key = (letter, v)
        d = self._shifted.get(key)
        if d is None:
            word = self.word_of(v)
            if word is None:
                d = self.jet(v, (letter,))
            else:
                d = self.jet(self.base_of(v), (letter,) + word)
            self._shifted[key] = d
        return d


# ---------------------------------------------------------------------------
# The Leibniz action


def _derive_poly(ctx: JetContext, letter: int, p: MPoly) -> MPoly:
    # the term c*m contributes c*e * m/v * d for every v^e in m, with d the
    # shifted symbol of v; in packed form m/v * d is m plus unit(d) - unit(v)
    step: dict[int, int] = {}
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
    """Apply one derivation letter to f (Leibniz rule, quotient rule on fractions)."""
    if f.reg is not ctx:
        raise ValueError("rational function does not live in this context")
    if f.den.is_one():
        return RatFunc(_derive_poly(ctx, letter, f.num), f.den)
    # quotient rule as d(num)/den - f * d(den)/den: every gcd stays input-sized
    dn = _derive_poly(ctx, letter, f.num)
    dd = _derive_poly(ctx, letter, f.den)
    return RatFunc.make(dn, f.den) - f * RatFunc.make(dd, f.den)


# ---------------------------------------------------------------------------
# Operators: rational linear combinations of derivation words


class Operator:
    """Formal linear combination of derivation words with Fraction coefficients.

    The empty word acts as the identity map.  Operators are immutable and
    canonical: no zero coefficients, no duplicate words.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction]) -> None:
        self.terms = terms

    @classmethod
    def zero(cls) -> "Operator":
        return cls({})

    @classmethod
    def word(cls, letters: Iterable[int], coeff=1) -> "Operator":
        c = Fraction(coeff)
        w = tuple(letters)
        return cls({} if c == 0 else {w: c})

    @classmethod
    def letter(cls, index: int) -> "Operator":
        return cls.word((index,))

    @classmethod
    def from_terms(cls, items: Iterable[tuple[Word, Fraction]]) -> "Operator":
        terms: dict[Word, Fraction] = {}
        for w, c in items:
            acc = terms.get(w, Fraction(0)) + Fraction(c)
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

    def __add__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w, Fraction(0)) + c
            if acc == 0:
                terms.pop(w, None)
            else:
                terms[w] = acc
        return Operator(terms)

    def __neg__(self) -> "Operator":
        return Operator({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c) -> "Operator":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = Fraction(c)
        if c == 0:
            return Operator.zero()
        return Operator({w: co * c for w, co in self.terms.items()})

    __rmul__ = __mul__

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
        if not self.terms:
            return "0*D1"
        chunks: list[str] = []
        for w in self.words():
            c = self.terms[w]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if not w:
                body = str(mag)
            elif mag == 1:
                body = word_name(w)
            else:
                body = f"{mag}*{word_name(w)}"
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Operator({self.render()})"


def apply_word(ctx: JetContext, word: Word, f: RatFunc) -> RatFunc:
    """Apply a composition of letters, rightmost letter first."""
    for letter in reversed(word):
        f = derive(ctx, letter, f)
    return f


def apply_operator(ctx: JetContext, op: Operator, f: RatFunc) -> RatFunc:
    """Apply a linear combination of words to f; additive and linear in both slots."""
    total = RatFunc.zero(ctx)
    for w in op.words():
        total = total + apply_word(ctx, w, f).scale(op.terms[w])
    return total
