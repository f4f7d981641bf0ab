"""The curve pieces and the parser's terms as they were before the integer
rewrite: every edge direction, line key and parameter rebuilt from `Fraction`
vertex arithmetic, and every term's coefficient accumulated as a `Fraction`.
Used only by `test_fraction_reference.py` as the reference the integer
versions must reproduce exactly."""
from fractions import Fraction
from math import lcm

from troprat.core import TropPoly
from troprat.curve import Divisor, PlaneCurve, _line_direction
from troprat.errors import ParseError, TropError
from troprat.geom import primitive
from troprat.parse import (
    LPAREN,
    MINUS_INF,
    NUMBER,
    RPAREN,
    SLASH,
    STAR,
    VARIABLE,
    _FACTOR_START,
    _RATIONAL,
    _Parser,
    tokenize,
)


def primitive_of_rational(dx, dy):
    """Primitive integer direction of a rational vector."""
    fx, fy = Fraction(dx), Fraction(dy)
    m = lcm(fx.denominator, fy.denominator)
    return primitive((int(fx * m), int(fy * m)))


def balancing_check(C: PlaneCurve) -> bool:
    """Weighted primitive directions around every vertex sum to zero."""
    sums = {v: [0, 0] for v in C.vertices}
    def bump(v, d, w):
        if v in sums:
            sums[v][0] += w * d[0]
            sums[v][1] += w * d[1]
    for e in C.edges:
        d = primitive_of_rational(e.b[0] - e.a[0], e.b[1] - e.a[1])
        bump(e.a, d, e.weight)
        bump(e.b, (-d[0], -d[1]), e.weight)
    for r in C.rays:
        bump(r.base, r.direction, r.weight)
    return all(sx == 0 and sy == 0 for sx, sy in sums.values())


def _line_key(point, direction):
    """Canonical (normal, offset) for the line through `point` along
    `direction`; the canonical direction along the line is rot90(normal)."""
    n = primitive_of_rational(-direction[1], direction[0])
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        n = (-n[0], -n[1])
    c = n[0] * Fraction(point[0]) + n[1] * Fraction(point[1])
    return n, c


def _param(key, point):
    d = _line_direction(key[0])
    dd = d[0] * d[0] + d[1] * d[1]
    return Fraction(d[0] * Fraction(point[0]) + d[1] * Fraction(point[1]), dd)


def weight_on_ray(D: Divisor, base, direction) -> int | None:
    key = _line_key(base, direction)
    t = _param(key, base)
    d = _line_direction(key[0])
    forward = primitive_of_rational(*direction) == d
    return D._weight_on(key, t, None) if forward else D._weight_on(key, None, t)


def curve_to_divisor(C: PlaneCurve) -> Divisor:
    raw = []
    for e in C.edges:
        key = _line_key(e.a, (e.b[0] - e.a[0], e.b[1] - e.a[1]))
        t0, t1 = sorted((_param(key, e.a), _param(key, e.b)))
        raw.append((key, t0, t1, e.weight))
    for r in C.rays:
        key = _line_key(r.base, r.direction)
        t = _param(key, r.base)
        if primitive_of_rational(*r.direction) == _line_direction(key[0]):
            raw.append((key, t, None, r.weight))
        else:
            raw.append((key, None, t, r.weight))
    for L in C.lines:
        key = _line_key(L.base, L.direction)
        raw.append((key, None, None, L.weight))
    return Divisor.from_raw(raw)


class _FractionParser(_Parser):
    """The parser with each term's coefficient accumulated as a Fraction."""

    def term(self) -> TropPoly:
        exponent, coeff, out = [0] * self.arity, Fraction(0), None
        while True:
            t = self.peek()
            self.i += 1
            if t.kind == VARIABLE:
                names = self.split_vars(t)
                for k in names[:-1]:
                    exponent[k] += 1
                exponent[names[-1]] += self.power()
            elif t.kind == NUMBER:
                coeff += Fraction(t.lexeme) * self.power()
            elif t.kind == LPAREN and self.kinds[self.i : self.i + 4] == _RATIONAL:
                num, _, den, _ = self.toks[self.i : self.i + 4]
                self.i += 4
                if "." in num.lexeme or "." in den.lexeme:
                    raise ParseError("rational literal parts must be integers", num.position)
                coeff += Fraction(int(num.lexeme), int(den.lexeme)) * self.power()
            elif t.kind == LPAREN:
                p = self.poly()
                self.take(RPAREN)
                k = self.power()
                try:
                    p = p**k
                except TropError as exc:
                    raise ParseError(str(exc), t.position) from None
                out = p if out is None else out * p
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
        if out is None:
            term = {tuple(exponent): coeff.numerator}
            return TropPoly._from_ints(self.arity, coeff.denominator, term)
        return out.shift(exponent).scale(coeff)


def parse_poly(src: str, vars) -> TropPoly:
    return _FractionParser(tokenize(src), tuple(vars)).parse()
