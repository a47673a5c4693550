"""Recursive-descent parser for polynomial expressions.

Accepts the ASCII syntax used throughout the paper and this repository::

    4*x^2*y - 3*x + 7
    (x + 3*y)^2
    5x(x-1)(x-2)y(y-1) + 3z^2        # implicit multiplication is allowed

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*')? factor)*          # adjacency multiplies
    factor  := base ('^' | '**') integer | base
    base    := integer | identifier | '(' expr ')' | ('+'|'-') factor

Exponents must be non-negative integer literals; division is deliberately
not part of the input language (algebraic division is an *algorithm* here,
not a syntax).
"""

from __future__ import annotations

import re
from typing import Iterable

from .polynomial import Polynomial

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<pow>\*\*|\^)"
    r"|(?P<op>[-+*()]))"
)


class PolynomialSyntaxError(ValueError):
    """Raised when polynomial text cannot be parsed."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            snippet = text[pos:pos + 12]
            raise PolynomialSyntaxError(f"unexpected character at {pos}: {snippet!r}")
        pos = match.end()
        if match.lastgroup == "int":
            tokens.append(("int", match.group("int")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        elif match.lastgroup == "pow":
            tokens.append(("pow", "^"))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> tuple[str, str]:
        return self._tokens[self._index]

    def _advance(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def parse(self) -> Polynomial:
        result = self._expr()
        kind, value = self._peek()
        if kind != "end":
            raise PolynomialSyntaxError(f"trailing input at token {value!r}")
        return result

    def _expr(self) -> Polynomial:
        kind, value = self._peek()
        negate = False
        if kind == "op" and value in "+-":
            self._advance()
            negate = value == "-"
        result = self._term()
        if negate:
            result = -result
        while True:
            kind, value = self._peek()
            if kind == "op" and value in "+-":
                self._advance()
                rhs = self._term()
                result = result - rhs if value == "-" else result + rhs
            else:
                return result

    def _term(self) -> Polynomial:
        result = self._factor()
        while True:
            kind, value = self._peek()
            if kind == "op" and value == "*":
                self._advance()
                result = result * self._factor()
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                # Implicit multiplication by adjacency: 5x, x(x-1), 2(x+y).
                result = result * self._factor()
            else:
                return result

    def _factor(self) -> Polynomial:
        base = self._base()
        kind, _ = self._peek()
        if kind == "pow":
            self._advance()
            exp_kind, exp_value = self._advance()
            if exp_kind != "int":
                raise PolynomialSyntaxError(f"exponent must be an integer, got {exp_value!r}")
            return base ** int(exp_value)
        return base

    def _base(self) -> Polynomial:
        kind, value = self._advance()
        if kind == "int":
            return Polynomial.constant(int(value))
        if kind == "name":
            return Polynomial.variable(value)
        if kind == "op" and value == "(":
            inner = self._expr()
            close_kind, close_value = self._advance()
            if close_kind != "op" or close_value != ")":
                raise PolynomialSyntaxError(f"expected ')', got {close_value!r}")
            return inner
        if kind == "op" and value in "+-":
            inner = self._factor()
            return -inner if value == "-" else inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}")


def parse_polynomial(
    text: str,
    variables: Iterable[str] | None = None,
    single_letter_vars: bool = False,
) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial`.

    When ``variables`` is given, the result is expressed over exactly that
    variable tuple (parsing fails if the text uses a variable outside it);
    otherwise the variables are the sorted set of names appearing in the
    text.

    ``single_letter_vars=True`` enables the paper's notation where ``4xy^2``
    means ``4*x*y^2``: every identifier token is split into single-letter
    variables.  Leave it off (the default) when names like ``x1`` or
    ``tmp`` are in play — adjacency of bare letters is ambiguous then.
    """
    tokens = _tokenize(text)
    if single_letter_vars:
        split: list[tuple[str, str]] = []
        for kind, value in tokens:
            if kind == "name" and len(value) > 1:
                if not value.isalpha():
                    raise PolynomialSyntaxError(
                        f"cannot split {value!r} into single-letter variables"
                    )
                split.extend(("name", ch) for ch in value)
            else:
                split.append((kind, value))
        tokens = split
    result = _Parser(tokens).parse()
    if variables is not None:
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise PolynomialSyntaxError(f"duplicate variable names in {vars_tuple}")
        extra = set(result.used_vars()) - set(vars_tuple)
        if extra:
            raise PolynomialSyntaxError(
                f"text uses variables {sorted(extra)} outside {vars_tuple}"
            )
        return result.with_vars(vars_tuple)
    return result.trim().with_vars(tuple(sorted(result.used_vars())))


def parse_system(texts: Iterable[str]) -> list[Polynomial]:
    """Parse several polynomials and unify them over a common variable tuple."""
    polys = [parse_polynomial(t) for t in texts]
    return Polynomial.unify_all(polys)
