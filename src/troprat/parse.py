"""Text format for tropical polynomials: tokenizer, parser, pretty-printer.

Grammar (EBNF):

    poly   := term ('+' term)*
    term   := factor ('*'? factor)*
    factor := base ('^' sint)?
    base   := number | '(' number '/' number ')' | '(' poly ')' | variable
    number := sint | sint '.' digits

'+' is the tropical sum, '*' (or juxtaposition) the tropical product, '^' the
tropical power, so "3x^2" is 3 (.) x (.) x.  A bare number is a constant term.
"-inf" is accepted only as the entire input and denotes the empty polynomial.
'/' appears only inside a parenthesized rational literal like "(1/2)";
rational functions are always supplied as two separate polynomial strings.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import TropPoly
from .errors import LexError, ParseError, TropError

NUMBER = "Number"
VARIABLE = "Variable"
PLUS = "Plus"
STAR = "Star"
CARET = "Caret"
SLASH = "Slash"
LPAREN = "LParen"
RPAREN = "RParen"
MINUS_INF = "MinusInf"
EOF = "Eof"

DEFAULT_VARS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}

_SINGLE = {"+": PLUS, "*": STAR, "^": CARET, "/": SLASH, "(": LPAREN, ")": RPAREN}


class Token(NamedTuple):
    kind: str
    lexeme: str
    position: int


# optional whitespace, then one token or the end of the input; numbers and
# variables are ASCII only, and group 5 takes any other character
_TOKEN = re.compile(
    r"\s*(?:(-inf)|(-?[0-9]+(?:\.[0-9]+)?)|([A-Za-z]+)|([+*^/()])|(.)|\Z)", re.DOTALL
)
_GROUP_KIND = (None, MINUS_INF, NUMBER, VARIABLE)


def tokenize(src: str) -> list[Token]:
    """Full token cover of the input minus whitespace."""
    out = []
    for match in _TOKEN.finditer(src):
        group = match.lastindex
        if group is None:  # trailing whitespace
            continue
        lexeme, i = match[group], match.start(group)
        if group == 5:
            if lexeme == "-":
                raise LexError("stray '-' (use '-inf' or a signed number)", i)
            raise LexError(f"unexpected character {lexeme!r}", i)
        out.append(Token(_SINGLE[lexeme] if group == 4 else _GROUP_KIND[group], lexeme, i))
    out.append(Token(EOF, "", len(src)))
    return out


_FACTOR_START = (NUMBER, VARIABLE, LPAREN)
_RATIONAL = (NUMBER, SLASH, NUMBER, RPAREN)  # after the '(' of "(p/q)"


class _Parser:
    """Recursive descent that folds as it goes: each rule returns its
    TropPoly, so no syntax tree is built."""

    def __init__(self, tokens: list[Token], vars: tuple):
        self.toks = tokens
        self.kinds = tuple(t.kind for t in tokens)
        self.vars = vars
        self.arity = len(vars)
        # juxtaposed identifiers split longest declared name first
        self.order = sorted(range(len(vars)), key=lambda k: -len(vars[k]))
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def take(self, kind: str) -> Token:
        t = self.toks[self.i]
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.kind}", t.position)
        self.i += 1
        return t

    def parse(self) -> TropPoly:
        if self.peek().kind == MINUS_INF:
            self.i += 1
            self.take(EOF)
            return TropPoly.zero(self.arity)
        p = self.poly()
        self.take(EOF)
        return p

    def poly(self) -> TropPoly:
        terms = [self.term()]
        while self.peek().kind == PLUS:
            self.i += 1
            terms.append(self.term())
        return TropPoly._sum(self.arity, terms)

    def term(self) -> TropPoly:
        """A product of factors: numbers and variables add up to one exponent
        and one coefficient; only parenthesised sums are multiplied."""
        exponent, p, q, out = [0] * self.arity, 0, 1, None  # coefficient p / q, q > 0
        while True:
            t = self.peek()
            self.i += 1
            if t.kind == VARIABLE:
                # "xy^2" is one factor per name, the power bound to the last
                names = self.split_vars(t)
                for k in names[:-1]:
                    exponent[k] += 1
                exponent[names[-1]] += self.power()
            elif t.kind == NUMBER:  # a decimal goes through Fraction
                a, b = (Fraction if "." in t.lexeme else int)(t.lexeme).as_integer_ratio()
                p, q = p * b + a * self.power() * q, q * b
            elif t.kind == LPAREN and self.kinds[self.i : self.i + 4] == _RATIONAL:
                num, _, den, _ = self.toks[self.i : self.i + 4]
                self.i += 4
                if "." in num.lexeme or "." in den.lexeme:
                    raise ParseError("rational literal parts must be integers", num.position)
                a, b = int(num.lexeme), int(den.lexeme)
                if b <= 0:  # signed as Fraction signs it; b = 0 raises its ZeroDivisionError
                    a, b = Fraction(a, b).as_integer_ratio()
                p, q = p * b + a * self.power() * q, q * b
            elif t.kind == LPAREN:
                g = self.poly()
                self.take(RPAREN)
                k = self.power()
                try:
                    g = g**k
                except TropError as exc:
                    raise ParseError(str(exc), t.position) from None
                out = g if out is None else out * g
            elif t.kind == MINUS_INF:
                raise ParseError("'-inf' is only valid as the whole input", t.position)
            elif t.kind == SLASH:
                raise ParseError(
                    "'/' is only valid inside a parenthesized rational literal", t.position
                )
            else:
                raise ParseError(f"expected a term, found {t.kind}", t.position)
            kind = self.peek().kind
            if kind == STAR:
                self.i += 1
            elif kind not in _FACTOR_START:
                break
        if out is None:  # ints only: nothing left to validate
            return TropPoly._from_ints(self.arity, q, {tuple(exponent): p})
        return out.shift(exponent).scale(Fraction(p, q))

    def split_vars(self, t: Token) -> list[int]:
        """The declared variable indices of a juxtaposed identifier like "xy"."""
        lexeme, vars = t.lexeme, self.vars
        out = []
        i = 0
        while i < len(lexeme):
            for k in self.order:
                if lexeme.startswith(vars[k], i):
                    out.append(k)
                    i += len(vars[k])
                    break
            else:
                raise ParseError(
                    f"unknown variable {lexeme[i:]!r} (declared: {', '.join(vars)})",
                    t.position + i,
                )
        return out

    def power(self) -> int:
        """The optional '^' integer power of the factor just read; 1 if none."""
        if self.peek().kind != CARET:
            return 1
        self.i += 1
        t = self.take(NUMBER)
        try:
            return int(t.lexeme)
        except ValueError:
            raise ParseError("exponent must be an integer", t.position) from None


def parse_poly(src: str, vars=("x",)) -> TropPoly:
    """Parse a tropical polynomial over the ordered variable list `vars`."""
    vars = tuple(vars)
    if not vars or len(set(vars)) != len(vars):
        raise ParseError("variable list must be nonempty and distinct", 0)
    return _Parser(tokenize(src), vars).parse()


def default_vars(arity: int):
    if arity not in DEFAULT_VARS:
        raise ParseError(f"no default variable list for arity {arity}", 0)
    return DEFAULT_VARS[arity]


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator) if c >= 0 else f"({c.numerator})"
    return f"({c.numerator}/{c.denominator})"


def format_poly(f: TropPoly, vars=None) -> str:
    """Deterministic text form; parse_poly(format_poly(f)) == f exactly."""
    if vars is None:
        vars = default_vars(f.arity)
    vars = tuple(vars)
    if f.is_bottom:
        return "-inf"
    parts = []
    for e, c in sorted(f.items(), key=lambda item: item[0], reverse=True):
        factors = []
        if all(i == 0 for i in e):
            factors.append(_coeff_str(c))
        else:
            if c != 0:
                factors.append(_coeff_str(c))
            for k, i in enumerate(e):
                if i == 0:
                    continue
                factors.append(vars[k] if i == 1 else f"{vars[k]}^{i}")
        parts.append("*".join(factors))
    return " + ".join(parts)
