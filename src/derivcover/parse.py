"""Expression language for operators and rational functions.

Operator grammar:
    operator := term (('+'|'-') term)*
    term     := [rational '*'] word
    word     := letter ('.' letter)*
    letter   := 'D' digits            (letters are numbered from 1)
    rational := ['-'] digits ['/' digits]

Word letters compose left-to-right as outermost-first: `D1.D2` applies D2
first and D1 last.

Rational-function grammar: usual arithmetic over variables matching
[a-z][0-9]*, nonnegative integer literals, + - * / ^ and parentheses.
`^` (with an integer literal exponent) binds tightest, then unary minus,
then * and /, then + and -.  Parentheses nest at most MAX_NESTING deep.
No numerator or denominator, of the function or of any step on the way to
it, may pass total degree MAX_DEGREE, and no literal or + - * / result may
hold a coefficient of more than MAX_COEFF_BITS bits (in its numerator or
denominator).  A power is refused before it is computed, when the exponent
times the base's degree passes MAX_DEGREE or the exponent times the base's
largest coefficient bit length passes MAX_COEFF_BITS.

In both grammars a run of digits read as a number holds at most MAX_DIGITS
digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeGuardError, ParseError
from .jets import Operator
from .poly import RatFunc, VarRegistry

# Deeper parentheses would exhaust the interpreter stack in the recursive descent.
MAX_NESTING = 100
# Text is the one unbounded source of degree (the level commands reach n+2)
# and of coefficient size (4096 bits is about 1,233 decimal digits).
MAX_DEGREE = 64
MAX_COEFF_BITS = 4096
# Longest digit run read as a number: below CPython's 4,300-digit limit on
# int/str conversion, and above the 1,234 digits that pass MAX_COEFF_BITS.
MAX_DIGITS = 2000


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str, letters: bool) -> list[_Token]:
    """Shared tokenizer; `letters` switches D-letter recognition on."""
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9" or (letters and ch == "D"):
            j = k = i + (ch == "D")
            while k < n and "0" <= text[k] <= "9":
                k += 1
            if k == j:
                raise ParseError("expected digits after 'D'", i)
            if k - j > MAX_DIGITS:
                raise ParseError(f"number of {k - j} digits > limit {MAX_DIGITS}", i)
            tokens.append(_Token("letter" if ch == "D" else "int", text[i:k], i))
            i = k
            continue
        if not letters and "a" <= ch <= "z":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^().,":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()


# ---------------------------------------------------------------------------
# Operators


def parse_operator(text: str) -> Operator:
    """Parse operator text into canonical form (duplicates merged, zeros dropped)."""
    cur = _Cursor(_tokenize(text, letters=True))
    terms: list[tuple[tuple[int, ...], Fraction]] = []
    sign = Fraction(1)
    if cur.peek().kind == "-":
        cur.next()
        sign = Fraction(-1)
    terms.append(_operator_term(cur, sign))
    while cur.peek().kind in ("+", "-"):
        sep = cur.next()
        sign = Fraction(1) if sep.kind == "+" else Fraction(-1)
        terms.append(_operator_term(cur, sign))
    cur.expect("end")
    return Operator.from_terms(terms)


def _operator_term(cur: _Cursor, sign: Fraction) -> tuple[tuple[int, ...], Fraction]:
    coeff = sign
    tok = cur.peek()
    if tok.kind in ("int", "-"):
        coeff = coeff * _rational(cur)
        cur.expect("*")
    word = [_letter(cur)]
    while cur.peek().kind == ".":
        cur.next()
        word.append(_letter(cur))
    return tuple(word), coeff


def _rational(cur: _Cursor) -> Fraction:
    sign = 1
    if cur.peek().kind == "-":
        cur.next()
        sign = -1
    num = int(cur.expect("int").text)
    if cur.peek().kind == "/":
        save = cur.i
        cur.next()
        if cur.peek().kind != "int":
            cur.i = save
            return Fraction(sign * num)
        den_tok = cur.next()
        den = int(den_tok.text)
        if den == 0:
            raise ParseError("rational with zero denominator", den_tok.pos)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _letter(cur: _Cursor) -> int:
    tok = cur.expect("letter")
    number = int(tok.text[1:])
    if number < 1:
        raise ParseError("derivation letters are numbered from 1", tok.pos)
    return number - 1


# ---------------------------------------------------------------------------
# Rational functions


def parse_ratfunc(
    text: str, reg: VarRegistry | None = None, *, allow_new_vars: bool = True
) -> RatFunc:
    """Parse arithmetic text into a canonical reduced rational function.

    Variable names are resolved in `reg` (allocated on first use when
    `allow_new_vars`); a fresh registry is created when none is given.
    """
    if reg is None:
        reg = VarRegistry()
    cur = _Cursor(_tokenize(text, letters=False))
    value = _sum(cur, reg, allow_new_vars)
    cur.expect("end")
    return value


def _degree_guard(value: RatFunc, what: str, exp: int = 1) -> RatFunc:
    """Refuse value**exp if its numerator or denominator would pass MAX_DEGREE
    in total degree or MAX_COEFF_BITS in coefficient bits (exp times the
    largest bit length of a coefficient's numerator or denominator)."""
    for part in (value.num, value.den):
        degree = part.total_degree() * exp
        if degree > MAX_DEGREE:
            raise DegreeGuardError(
                f"{what} would reach total degree {degree} > limit {MAX_DEGREE}"
            )
        bits = exp * max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for c in part.terms.values()),
            default=0,
        )
        if bits > MAX_COEFF_BITS:
            raise DegreeGuardError(
                f"{what} would reach {bits} coefficient bits > limit {MAX_COEFF_BITS}"
            )
    return value


def _sum(cur: _Cursor, reg, allow_new) -> RatFunc:
    value = _product(cur, reg, allow_new)
    while cur.peek().kind in ("+", "-"):
        op = cur.next().kind
        rhs = _product(cur, reg, allow_new)
        value = _degree_guard(value + rhs if op == "+" else value - rhs, "sum")
    return value


def _product(cur: _Cursor, reg, allow_new) -> RatFunc:
    value = _signed(cur, reg, allow_new)
    while cur.peek().kind in ("*", "/"):
        op = cur.next().kind
        rhs = _signed(cur, reg, allow_new)
        value = _degree_guard(value * rhs if op == "*" else value / rhs, "product")
    return value


def _signed(cur: _Cursor, reg, allow_new) -> RatFunc:
    negate = False
    while cur.peek().kind == "-":
        cur.next()
        negate = not negate
    value = _power(cur, reg, allow_new)
    return -value if negate else value


def _power(cur: _Cursor, reg, allow_new) -> RatFunc:
    value = _atom(cur, reg, allow_new)
    while cur.peek().kind == "^":
        cur.next()
        exp = int(cur.expect("int").text)
        value = _degree_guard(value, "power", exp) ** exp
    return value


def _atom(cur: _Cursor, reg, allow_new) -> RatFunc:
    tok = cur.peek()
    if tok.kind == "int":
        cur.next()
        return _degree_guard(RatFunc.const(reg, int(tok.text)), "literal")
    if tok.kind == "name":
        cur.next()
        v = reg.lookup(tok.text)
        if v is None:
            if not allow_new:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            v = reg.add_generator(tok.text)
        return RatFunc.var(reg, v)
    if tok.kind == "(":
        if cur.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
        cur.next()
        cur.depth += 1
        value = _sum(cur, reg, allow_new)
        cur.depth -= 1
        cur.expect(")")
        return value
    raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)


def parse_func_list(text: str) -> list[RatFunc]:
    """Parse a comma-separated list of rational functions in one shared registry."""
    reg = VarRegistry()
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise ParseError("empty entry in function list", 0)
    return [parse_ratfunc(p, reg) for p in parts]
