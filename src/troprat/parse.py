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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

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


# ---------------------------------------------------------------------------
# syntax tree: a poly is a sum of terms, a term a product of factors, a
# factor a base with an optional integer power


@dataclass(frozen=True)
class NumberLit:
    value: Fraction
    position: int


@dataclass(frozen=True)
class VarRef:
    index: int  # into the declared ordered variable list
    position: int


@dataclass(frozen=True)
class FactorNode:
    base: Union["NumberLit", "VarRef", "PolyNode"]
    power: int | None
    position: int


@dataclass(frozen=True)
class TermNode:
    factors: tuple


@dataclass(frozen=True)
class PolyNode:
    terms: tuple
    bottom: bool = False  # the whole-input "-inf" case


def _split_vars(lexeme: str, vars: tuple, position: int) -> list[int]:
    """Split a juxtaposed identifier like "xy" into declared variable indices,
    longest declared name first."""
    order = sorted(range(len(vars)), key=lambda k: -len(vars[k]))
    out = []
    i = 0
    while i < len(lexeme):
        for k in order:
            if lexeme.startswith(vars[k], i):
                out.append(k)
                i += len(vars[k])
                break
        else:
            raise ParseError(
                f"unknown variable {lexeme[i:]!r} (declared: {', '.join(vars)})",
                position + i,
            )
    return out


class _Parser:
    def __init__(self, tokens: list[Token], vars: tuple):
        self.toks = tokens
        self.vars = vars
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.kind}", t.position)
        self.i += 1
        return t

    def parse(self) -> PolyNode:
        if self.peek().kind == MINUS_INF:
            t = self.take(MINUS_INF)
            self.take(EOF)
            return PolyNode((), bottom=True)
        node = self.poly()
        self.take(EOF)
        return node

    def poly(self) -> PolyNode:
        terms = [self.term()]
        while self.peek().kind == PLUS:
            self.take(PLUS)
            terms.append(self.term())
        return PolyNode(tuple(terms))

    _FACTOR_START = (NUMBER, VARIABLE, LPAREN)

    def term(self) -> TermNode:
        factors = list(self.factor())
        while True:
            t = self.peek()
            if t.kind == STAR:
                self.take(STAR)
                factors.extend(self.factor())
            elif t.kind in self._FACTOR_START:
                factors.extend(self.factor())
            else:
                return TermNode(tuple(factors))

    def factor(self) -> list[FactorNode]:
        """One grammar factor; a juxtaposed identifier like "xy^2" yields one
        factor per variable with the power bound to the last."""
        t = self.peek()
        if t.kind == VARIABLE:
            self.take(VARIABLE)
            idx = _split_vars(t.lexeme, self.vars, t.position)
            nodes = [FactorNode(VarRef(k, t.position), None, t.position) for k in idx[:-1]]
            nodes.append(
                FactorNode(VarRef(idx[-1], t.position), self.maybe_power(), t.position)
            )
            return nodes
        base = self.base()
        return [FactorNode(base, self.maybe_power(), t.position)]

    def maybe_power(self) -> int | None:
        if self.peek().kind != CARET:
            return None
        self.take(CARET)
        t = self.take(NUMBER)
        try:
            return int(t.lexeme)
        except ValueError:
            raise ParseError("exponent must be an integer", t.position) from None

    def base(self):
        t = self.peek()
        if t.kind == NUMBER:
            self.take(NUMBER)
            return NumberLit(Fraction(t.lexeme), t.position)
        if t.kind == LPAREN:
            if (
                self.peek(1).kind == NUMBER
                and self.peek(2).kind == SLASH
                and self.peek(3).kind == NUMBER
                and self.peek(4).kind == RPAREN
            ):
                self.take(LPAREN)
                num = self.take(NUMBER)
                self.take(SLASH)
                den = self.take(NUMBER)
                self.take(RPAREN)
                if "." in num.lexeme or "." in den.lexeme:
                    raise ParseError(
                        "rational literal parts must be integers", num.position
                    )
                return NumberLit(
                    Fraction(int(num.lexeme), int(den.lexeme)), num.position
                )
            self.take(LPAREN)
            node = self.poly()
            self.take(RPAREN)
            return node
        if t.kind == MINUS_INF:
            raise ParseError("'-inf' is only valid as the whole input", t.position)
        if t.kind == SLASH:
            raise ParseError(
                "'/' is only valid inside a parenthesized rational literal", t.position
            )
        raise ParseError(f"expected a term, found {t.kind}", t.position)


def parse_ast(src: str, vars=("x",)) -> PolyNode:
    """Parse to the syntax tree without evaluating it."""
    vars = tuple(vars)
    if not vars or len(set(vars)) != len(vars):
        raise ParseError("variable list must be nonempty and distinct", 0)
    return _Parser(tokenize(src), vars).parse()


def fold_ast(node, arity: int) -> TropPoly:
    """Evaluate a syntax tree into a tropical polynomial."""
    if isinstance(node, PolyNode):
        if node.bottom:
            return TropPoly.zero(arity)
        return TropPoly._sum(arity, [fold_ast(term, arity) for term in node.terms])
    if isinstance(node, TermNode):
        # numbers and variables add up to one monomial; only parenthesised
        # factors are multiplied as polynomials
        exponent, coeff, out = [0] * arity, Fraction(0), None
        for factor in node.factors:
            base, k = factor.base, 1 if factor.power is None else factor.power
            if isinstance(base, NumberLit):
                coeff += base.value * k
            elif isinstance(base, VarRef):
                exponent[base.index] += k
            else:
                p = fold_ast(base, arity)
                try:
                    p = p**k
                except TropError as exc:
                    raise ParseError(str(exc), factor.position) from None
                out = p if out is None else out * p
        if out is None:
            return TropPoly.monomial(exponent, coeff)
        return out.shift(exponent).scale(coeff)
    raise TypeError(f"not a syntax node: {node!r}")


def parse_poly(src: str, vars=("x",)) -> TropPoly:
    """Parse a tropical polynomial over the ordered variable list `vars`."""
    vars = tuple(vars)
    return fold_ast(parse_ast(src, vars), len(vars))


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
