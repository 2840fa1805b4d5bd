"""Known answers for derivcover's checks, derived without derivcover.

Nothing in this module imports derivcover.  It holds:

* the verdict rules the benchmark knows from the paper's claims
  (`dn_member`, `coset_related`);
* an evaluator for the defect strings derivcover renders
  (`evaluate_rendered`), used to re-evaluate every witness;
* an independent value oracle for the Leibniz action (`operator_value`,
  `dn_defect_value`): with free derivations D1, D2, ... and an element
  g(x) of one generator x, a word applied to g expands over the set
  partitions of the word's letter positions (Faa di Bruno for
  noncommuting derivations):

      Dw(g(x)) = sum over partitions P of g^(|P|)(x) * prod_{B in P} D_{w|B}(x)

  where w|B keeps the letters of block B in their original order.

An operator is a list of (coefficient, word) pairs; a word is a tuple of
1-based letter numbers written outermost-first, so (2, 1) is D2.D1 and
applies D1 first.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

Term = tuple[Fraction, tuple[int, ...]]

# ---------------------------------------------------------------------------
# Operators


def parse_operator(text: str) -> list[Term]:
    """Read operator text as derivcover renders it, e.g. `-D1.D3 + 1/2*D2.D2`."""
    terms: list[Term] = []
    body = text.strip()
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:].strip()
    for i, chunk in enumerate(re.split(r"\s*([+-])\s*", body)):
        if i % 2 == 1:
            sign = 1 if chunk == "+" else -1
            continue
        coeff, _, word = chunk.rpartition("*")
        c = Fraction(coeff) if coeff else Fraction(1)
        letters = tuple(int(part[1:]) for part in word.split("."))
        terms.append((sign * c, letters))
    return terms


def word_text(word: Sequence[int]) -> str:
    return ".".join(f"D{letter}" for letter in word)


def dn_member(terms: Sequence[Term], n: int) -> bool | None:
    """Is the operator in the order-n class?  None when no rule decides it.

    A word of length k is in D_n iff n >= k, D_n is closed under linear
    combination and contains the commutator of two derivations.  Hence an
    operator whose words have length <= n is a member; one whose longest
    words have length n+1 is a member iff that top part vanishes once the
    letters commute (the commutator parts have lower order); an operator
    whose top part survives commuting has order equal to that length.
    """
    top = max(len(w) for _, w in terms)
    if top <= n:
        return True
    image: Counter = Counter()
    for c, w in terms:
        if len(w) == top:
            image[tuple(sorted(w))] += c
    if any(image.values()):
        return False
    return True if top == n + 1 else None


# ---------------------------------------------------------------------------
# Coset-freeness by linear algebra on basis coordinates


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def coset_related(vectors: Sequence[Sequence[Fraction]]) -> bool:
    """Does a tuple of functions satisfy a nontrivial affine relation?

    Each vector holds a function's coordinates over a basis that is linearly
    independent together with the constant 1 (powers t^j, j >= 1, and
    partial fractions with distinct poles), constant coordinate excluded.
    A relation exists iff the vectors are linearly dependent.
    """
    return rank(vectors) < len(vectors)


# ---------------------------------------------------------------------------
# Evaluating rendered expressions

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>(?:D\d+\.)*D\d+\([a-z]\d*\)|[a-z]\d*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokens(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
        pos = m.end()
    out.append(("end", ""))
    return out


def evaluate_rendered(text: str, value: Callable[[str], Fraction]) -> Fraction:
    """Exact value of an arithmetic expression over named symbols.

    Reads derivcover's polynomial and rational-function rendering (signed
    terms, `3/2*x1^2`, jet names such as `D2.D1(x1)`, `(num)/(den)`).
    `value` maps a symbol name to its value.
    """
    toks = _tokens(text)
    pos = 0

    def peek() -> tuple[str, str]:
        return toks[pos]

    def take() -> tuple[str, str]:
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr() -> Fraction:
        total = signed()
        while peek()[1] in ("+", "-") and peek()[0] == "op":
            op = take()[1]
            rhs = signed()
            total = total + rhs if op == "+" else total - rhs
        return total

    def signed() -> Fraction:
        if peek() == ("op", "-"):
            take()
            return -signed()
        return product()

    def product() -> Fraction:
        acc = power()
        while peek()[0] == "op" and peek()[1] in ("*", "/"):
            op = take()[1]
            rhs = power()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def power() -> Fraction:
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, exp = take()
            if kind != "int":
                raise ValueError("exponent must be an integer literal")
            base = base ** int(exp)
        return base

    def atom() -> Fraction:
        kind, tok = take()
        if kind == "int":
            return Fraction(int(tok))
        if kind == "name":
            return Fraction(value(tok))
        if tok == "(":
            inner = expr()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            return inner
        raise ValueError(f"unexpected token {tok!r}")

    result = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input at token {peek()[1]!r}")
    return result


# ---------------------------------------------------------------------------
# Independent value oracle for the Leibniz action


@lru_cache(maxsize=None)
def set_partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All set partitions of positions 0..k-1; blocks keep ascending order."""
    if k == 0:
        return ((),)
    out = []
    for part in set_partitions(k - 1):
        last = k - 1
        out.append(part + ((last,),))
        for i in range(len(part)):
            out.append(part[:i] + (part[i] + (last,),) + part[i + 1 :])
    return tuple(out)


def jet_name(word: Sequence[int], gen: str) -> str:
    return f"{word_text(word)}({gen})"


def series_of_ratio(num: Sequence[int], den: Sequence[int], x0: Fraction, order: int) -> list[Fraction]:
    """Taylor coefficients at x0, up to `order`, of num(x)/den(x);
    coefficient lists are lowest degree first."""

    def shifted(coeffs: Sequence[int]) -> list[Fraction]:
        out = [Fraction(0)] * (order + 1)
        for d, c in enumerate(coeffs):
            for j in range(min(d, order) + 1):
                out[j] += c * math.comb(d, j) * x0 ** (d - j)
        return out

    p, q = shifted(num), shifted(den)
    if q[0] == 0:
        raise ZeroDivisionError("denominator vanishes at the expansion point")
    s: list[Fraction] = []
    for j in range(order + 1):
        s.append((p[j] - sum(q[i] * s[j - i] for i in range(1, j + 1))) / q[0])
    return s


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    order = len(a) - 1
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(order + 1)]


def operator_value(
    terms: Sequence[Term], series: Sequence[Fraction], jet: Callable[[tuple[int, ...]], Fraction]
) -> Fraction:
    """Value of the operator applied to g(x), where `series` holds g's Taylor
    coefficients at the evaluation point (order >= longest word) and `jet`
    gives the value of D_w(x) for a nonempty word w."""
    total = Fraction(0)
    for c, word in terms:
        acc = Fraction(0)
        for part in set_partitions(len(word)):
            r = len(part)
            term = series[r] * math.factorial(r)
            for block in part:
                term *= jet(tuple(word[i] for i in block))
            acc += term
        total += c * acc
    return total


def dn_defect_value(
    terms: Sequence[Term],
    n: int,
    series: Sequence[Fraction],
    jet: Callable[[tuple[int, ...]], Fraction],
) -> Fraction:
    """Value of F(f^(n+1)) - sum_i binom(n+1, i) (-1)^(n-i) f^(n+1-i) F(f^i),
    for f with Taylor coefficients `series` at the evaluation point."""
    powers = [None, list(series)]
    for _ in range(n):
        powers.append(series_mul(powers[-1], series))
    f0 = series[0]
    lhs = operator_value(terms, powers[n + 1], jet)
    rhs = Fraction(0)
    for i in range(1, n + 1):
        c = math.comb(n + 1, i) * (-1) ** (n - i)
        rhs += c * f0 ** (n + 1 - i) * operator_value(terms, powers[i], jet)
    return lhs - rhs
