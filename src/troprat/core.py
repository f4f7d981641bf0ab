"""The max-plus semiring, tropical Laurent polynomials and rational functions.

Coefficients are exact rationals; the additive zero (-inf) is represented by
absence: a dropped term, or the empty polynomial.  Every value is immutable
and every operation is a pure function.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import add, mul
from typing import Mapping

from . import geom
from .errors import DegenerateInput, DimensionMismatch, TropError

Exponent = tuple
# the parser's number grammar or p/q: no exponent, so no huge int from a short input
_COORDINATE = re.compile(r"-?[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def as_q(x) -> Fraction:
    """Coerce an exact rational-like value; floats are rejected, and a string
    must be an integer, a decimal or p/q."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _COORDINATE.fullmatch(x):
            raise ValueError(f"{x!r} is not an integer, decimal or p/q")
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__!s}")


def clear_denominators(p) -> tuple:
    """(z, d): the rationals p (Fractions or ints) as the ints z over their
    least common denominator d."""
    d = lcm(*(x.denominator for x in p))
    return [x.numerator * (d // x.denominator) for x in p], d


@dataclass(frozen=True)
class TropNum:
    """A tropical scalar: an exact rational or bottom (-inf, value None)."""

    value: Fraction | None = None

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", as_q(self.value))

    @classmethod
    def bottom(cls) -> "TropNum":
        return cls(None)

    @classmethod
    def of(cls, x) -> "TropNum":
        return cls(as_q(x))

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    def __add__(self, other: "TropNum") -> "TropNum":  # tropical sum: max
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return TropNum(max(self.value, other.value))

    def __mul__(self, other: "TropNum") -> "TropNum":  # tropical product: +
        if self.is_bottom or other.is_bottom:
            return TropNum(None)
        return TropNum(self.value + other.value)

    def __truediv__(self, other: "TropNum") -> "TropNum":  # tropical quotient: -
        if other.is_bottom:
            raise ZeroDivisionError("tropical division by -inf")
        if self.is_bottom:
            return TropNum(None)
        return TropNum(self.value - other.value)

    def __pow__(self, k: int) -> "TropNum":  # tropical power: integer multiple
        if self.is_bottom:
            if k <= 0:
                raise ZeroDivisionError("nonpositive power of -inf")
            return self
        return TropNum(self.value * k)

    def _key(self):
        return (0, Fraction(0)) if self.is_bottom else (1, self.value)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __repr__(self):
        return "TropNum(-inf)" if self.is_bottom else f"TropNum({self.value})"


BOTTOM = TropNum(None)


class TropPoly:
    """A tropical Laurent polynomial: finite map exponent -> finite rational.

    Stored as ints over one denominator: the coefficient at e is _ints[e] / m,
    m the lcm of the reduced denominators, so equal polynomials store equal
    data.  Arithmetic runs on the ints; `items()` and `coeff()` build Fractions.
    The empty map is the polynomial -inf.  Instances are immutable and
    hashable; arithmetic returns new values.
    """

    __slots__ = ("arity", "_m", "_ints", "_hash", "_envelope")

    def __init__(self, arity: int, terms: Mapping[Exponent, object] | None = None):
        if arity < 1:
            raise TropError("arity must be at least 1")
        clean: dict = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != arity or not all(isinstance(i, int) for i in e):
                raise DimensionMismatch(f"exponent {e} does not fit arity {arity}")
            clean[e] = as_q(c)
        m = lcm(*(c.denominator for c in clean.values()))
        self._fill(arity, m, {e: c.numerator * (m // c.denominator) for e, c in clean.items()})

    def _fill(self, arity, m, ints):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_envelope", None)

    @classmethod
    def _from_ints(cls, arity: int, m: int, ints: dict) -> "TropPoly":
        """The polynomial ints[e] / m, m > 0, with gcd(m, *ints) divided out."""
        if m > 1:
            g = gcd(m, *ints.values())
            if g > 1:
                m //= g
                ints = {e: c // g for e, c in ints.items()}
        out = object.__new__(cls)
        out._fill(arity, m, ints)
        return out

    def _over(self, m: int) -> dict:
        """The ints over the denominator m, a multiple of this polynomial's."""
        k = m // self._m
        return self._ints if k == 1 else {e: c * k for e, c in self._ints.items()}

    def __setattr__(self, *_):
        raise AttributeError("TropPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "TropPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, c) -> "TropPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def monomial(cls, exponent, c) -> "TropPoly":
        e = tuple(exponent)
        return cls(len(e), {e: c})

    @classmethod
    def variable(cls, index: int, arity: int) -> "TropPoly":
        e = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {e: 0})

    # -- inspection --------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return not self._ints

    @property
    def is_unit(self) -> bool:
        return len(self._ints) == 1

    @property
    def support(self):
        return tuple(sorted(self._ints))

    def items(self):
        m = self._m
        return tuple((e, Fraction(c, m)) for e, c in sorted(self._ints.items()))

    def coeff(self, exponent) -> Fraction | None:
        c = self._ints.get(tuple(exponent))
        return None if c is None else Fraction(c, self._m)

    def __len__(self):
        return len(self._ints)

    def __eq__(self, other):
        return (
            isinstance(other, TropPoly)
            and self.arity == other.arity
            and self._m == other._m
            and self._ints == other._ints
        )

    def __hash__(self):
        if self._hash is None:
            key = (self.arity, self._m, frozenset(self._ints.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in self.items())
        return f"TropPoly({self.arity}, {{{body}}})"

    # -- evaluation and arithmetic ------------------------------------------

    def peak(self, point) -> tuple:
        """(top, hits, scale): the max over the terms at `point` is top / scale
        and `hits` terms attain it; top is None for -inf.  The point is
        cleared once by the lcm d of its denominators, and scale is m*d.
        """
        p = [as_q(x) for x in point]
        if len(p) != self.arity:
            raise DimensionMismatch(
                f"point of dimension {len(p)} for arity {self.arity}"
            )
        z, d = clear_denominators(p)
        top, hits = self._peak_cleared(z, d)
        return top, hits, self._m * d

    def _peak_cleared(self, z, d) -> tuple:
        """(top, hits) at the point z / d, z ints and d > 0 an int: the max
        over the terms is top / (m*d), each m*d*(c + e.p) = c*d + m*(e.z) an
        int, and `hits` terms attain it; top is None for -inf.  Arities 1-3
        (3 is a stacked pair of arity 2) unpack the exponents."""
        m, n = self._m, self.arity
        top, hits = None, 0
        if n == 1:
            q0 = m * z[0]
            for (e0,), c in self._ints.items():
                v = c * d + e0 * q0
                if top is None or v > top:
                    top, hits = v, 1
                elif v == top:
                    hits += 1
        elif n == 2:
            q0, q1 = m * z[0], m * z[1]
            for (e0, e1), c in self._ints.items():
                v = c * d + e0 * q0 + e1 * q1
                if top is None or v > top:
                    top, hits = v, 1
                elif v == top:
                    hits += 1
        elif n == 3:
            q0, q1, q2 = m * z[0], m * z[1], m * z[2]
            for (e0, e1, e2), c in self._ints.items():
                v = c * d + e0 * q0 + e1 * q1 + e2 * q2
                if top is None or v > top:
                    top, hits = v, 1
                elif v == top:
                    hits += 1
        else:
            q = [m * x for x in z]
            for e, c in self._ints.items():
                v = c * d + sum(map(mul, e, q))
                if top is None or v > top:
                    top, hits = v, 1
                elif v == top:
                    hits += 1
        return top, hits

    def __call__(self, point) -> TropNum:
        top, _hits, scale = self.peak(point)
        return TropNum(None if top is None else Fraction(top, scale))

    def _check(self, other: "TropPoly"):
        if self.arity != other.arity:
            raise DimensionMismatch(
                f"arity {self.arity} vs {other.arity}"
            )

    def __add__(self, other: "TropPoly") -> "TropPoly":
        self._check(other)
        return TropPoly._sum(self.arity, (self, other))

    @classmethod
    def _sum(cls, arity: int, polys) -> "TropPoly":
        """The tropical sum of polynomials of one arity, merged in one pass."""
        m = lcm(*(p._m for p in polys))
        terms: dict = {}
        for p in polys:
            for e, c in p._over(m).items():
                cur = terms.get(e)
                if cur is None or c > cur:
                    terms[e] = c
        return cls._from_ints(arity, m, terms)

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        self._check(other)
        m = lcm(self._m, other._m)
        left, right = self._over(m).items(), other._over(m).items()
        terms: dict = {}
        get = terms.get
        if self.arity == 2:  # unpacked: no tuple(map(...)) per pair
            for (x1, y1), c1 in left:
                for (x2, y2), c2 in right:
                    e, c = (x1 + x2, y1 + y2), c1 + c2
                    cur = get(e)
                    if cur is None or c > cur:
                        terms[e] = c
        else:
            for e1, c1 in left:
                for e2, c2 in right:
                    e, c = tuple(map(add, e1, e2)), c1 + c2
                    cur = get(e)
                    if cur is None or c > cur:
                        terms[e] = c
        return TropPoly._from_ints(self.arity, m, terms)

    def __pow__(self, k: int) -> "TropPoly":
        if self.is_unit:
            ((e, c),) = self._ints.items()
            return TropPoly._from_ints(self.arity, self._m, {tuple(k * i for i in e): c * k})
        if k == 0:
            return TropPoly.constant(self.arity, 0)
        if k < 0:
            raise TropError("negative power of a non-monomial")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def shift(self, v) -> "TropPoly":
        """Multiply by the unit x^v: translate every exponent by v."""
        v = tuple(v)
        ints = {tuple(map(add, e, v)): c for e, c in self._ints.items()}
        return TropPoly._from_ints(self.arity, self._m, ints)

    def scale(self, c) -> "TropPoly":
        """Multiply by the constant c (add it to every coefficient)."""
        c = as_q(c)
        m = lcm(self._m, c.denominator)
        s = c.numerator * (m // c.denominator)
        return TropPoly._from_ints(self.arity, m, {e: v + s for e, v in self._over(m).items()})


def eval_poly(f: TropPoly, point) -> TropNum:
    return f(point)


def trop_add(f: TropPoly, g: TropPoly) -> TropPoly:
    return f + g


def trop_mul(f: TropPoly, g: TropPoly) -> TropPoly:
    return f * g


def is_unit(f: TropPoly) -> bool:
    return f.is_unit


def newton_polygon(f: TropPoly) -> geom.Polygon:
    """Newton polygon of a 2-variable polynomial."""
    if f.arity != 2:
        raise DimensionMismatch("newton_polygon needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("the -inf polynomial has no Newton polygon")
    return geom.hull2(f.support)


def newton_range(f: TropPoly) -> tuple[int, int]:
    """[min, max] exponent of a univariate polynomial."""
    if f.arity != 1:
        raise DimensionMismatch("newton_range needs arity 1")
    if f.is_bottom:
        raise DegenerateInput("the -inf polynomial has no Newton segment")
    exps = [e[0] for e in f.support]
    return min(exps), max(exps)


def stack_pair(f: TropPoly, g: TropPoly) -> TropPoly:
    """The (n+1)-variable polynomial f + (x_{n+1} * g) used for pairs."""
    if f.arity != g.arity:
        raise DimensionMismatch("stack_pair needs equal arities")
    if g.is_bottom:
        raise DegenerateInput("denominator must not be -inf")
    m = lcm(f._m, g._m)
    terms = {e + (0,): c for e, c in f._over(m).items()}
    terms.update((e + (1,), c) for e, c in g._over(m).items())
    return TropPoly._from_ints(f.arity + 1, m, terms)


# ---------------------------------------------------------------------------
# the upper concave envelope and its views


class Envelope:
    """Upper concave envelope of a polynomial's lifted support.

    Built from one hull of the raw terms (ints) of `f`; every corner is a raw
    term, and only the corner exponents are stored, in lex order.  A chain
    envelope (arity 1, or a segment or point Newton polygon) has `chain =
    (origin, step)`: its lattice points are origin + t*step for t = 0, 1, ...
    A polygon envelope (full-dimensional Newton polygon) keeps facet corners.
    """

    __slots__ = ("f", "chain", "_corners", "_facets", "_poly")

    def __init__(self, f: TropPoly):
        if f.arity not in (1, 2):
            raise TropError("canonical form is implemented for arity 1 and 2")
        terms = f._ints
        self.f = f
        self.chain = self._facets = self._poly = None
        if f.arity == 2 and len(terms) > 1:
            a, b = islice(terms, 2)
            if any(geom._cross(a, b, p) for p in terms):  # a polygon
                corners, _planes = geom.upper_faces_2d(terms)
                own = {e: e for e in terms}
                self._facets = tuple(tuple(own[p] for p in cs) for cs in corners)
                self._corners = tuple(sorted({e for cs in self._facets for e in cs}))
                return
            origin = min(terms)  # a segment, from its lex-min to its lex-max end
            self.chain = (origin, geom.primitive(geom._sub(max(terms), origin)))
        else:  # arity 1, or at most one term
            self.chain = (min(terms, default=None), (1,) + (0,) * (f.arity - 1))
        along = {self._t(e): e for e in terms}
        hull = geom.upper_envelope_1d((t, terms[e]) for t, e in along.items())
        self._corners = tuple(along[t] for t, _ in hull)

    @property
    def vertices(self) -> dict:
        """Corner exponent -> coefficient."""
        ints, m = self.f._ints, self.f._m
        return {e: Fraction(ints[e], m) for e in self._corners}

    def _t(self, e) -> int:
        origin, step = self.chain
        return sum((x - o) * s for x, o, s in zip(e, origin, step)) // sum(
            s * s for s in step
        )

    def _at(self, t) -> Exponent:
        origin, step = self.chain
        return tuple(o + t * s for o, s in zip(origin, step))

    def _hull(self) -> list:
        """The (t, int coefficient) corners of a chain, left to right."""
        return [(self._t(e), self.f._ints[e]) for e in self._corners]

    def _spans(self) -> list:
        """Consecutive corner pairs of a chain; a single point pairs with itself.
        More than `geom.MAX_LATTICE_POINTS` lattice points raise PolygonTooLarge."""
        hull = self._hull()
        geom.check_lattice_count(hull[-1][0] - hull[0][0] + 1)
        return list(zip(hull, hull[1:])) or [(hull[0], hull[0])]

    @property
    def roots(self) -> list:
        """(root, multiplicity) at each breakpoint of a chain envelope, in
        ascending order; the root is where the two adjacent pieces tie."""
        hull = self._hull()
        return [
            (Fraction(c0 - c1, (t1 - t0) * self.f._m), t1 - t0)
            for (t0, c0), (t1, c1) in zip(hull, hull[1:])
        ]

    def cells(self) -> list:
        """(lattice points, plane) for every linear piece.  The plane (n, d)
        is primitive, with n . (e, c) = d on the piece; it is None on a chain."""
        if self.chain is not None:
            return [
                (frozenset(self._at(t) for t in range(t0, t1 + 1)), None)
                for (t0, _), (t1, _) in self._spans()
            ]
        return [
            (frozenset(geom.lattice_points(geom.Polygon(corners))), plane)
            for corners, plane in zip(self._facets, self._planes())
        ]

    def _planes(self) -> list:
        """The primitive plane (n, d) of each facet of a polygon envelope."""
        ints, m = self.f._ints, self.f._m
        out = []
        for corners in self._facets:
            (n0, n1, n2), d = geom.plane_through(*((*e, ints[e]) for e in corners[:3]))
            g = gcd(n0, n1, n2 * m, d)  # the coefficients are the ints / m
            out.append(((n0 // g, n1 // g, n2 * m // g), d // g))
        return out

    @property
    def poly(self) -> TropPoly:
        """The canonical form: every lattice point of the Newton polytope with
        its envelope value, built in ints.  It refers back to this envelope."""
        if self._poly is None:
            terms = {}
            if self.chain is None:
                cells = self.cells()
                den = lcm(*(n[2] for _cell, (n, _d) in cells))
                for cell, (n, d) in cells:
                    k = den // n[2]
                    for q in cell:
                        terms[q] = (d - n[0] * q[0] - n[1] * q[1]) * k
            else:
                spans = self._spans()
                widths = lcm(*(max(t1 - t0, 1) for (t0, _), (t1, _) in spans))
                den = self.f._m * widths
                for (t0, a), (t1, b) in spans:
                    # (a + (b - a) * (t - t0) / w) / m over the common denominator
                    w = max(t1 - t0, 1)
                    for t in range(t0, t1 + 1):
                        terms[self._at(t)] = (a * w + (b - a) * (t - t0)) * (widths // w)
            out = TropPoly._from_ints(self.f.arity, den, terms)
            object.__setattr__(out, "_envelope", self)
            self._poly = out
        return self._poly


@lru_cache(maxsize=8192)
def _canonical_cached(f: TropPoly) -> Envelope:
    return Envelope(f)


def envelope(f: TropPoly) -> Envelope:
    """The cached envelope of f; free for a canonical form."""
    return f._envelope or _canonical_cached(f)


def canonicalize(f: TropPoly) -> TropPoly:
    """Concave-envelope representative: support = all lattice points of the
    Newton polytope, coefficients on the upper envelope.  Function-preserving
    and idempotent."""
    if f.is_bottom or f.is_unit:
        return f
    return envelope(f).poly


def func_eq(f: TropPoly, g: TropPoly) -> bool:
    """Equality of f and g as functions: their envelopes have the same
    vertices (corner exponents with their coefficients)."""
    if f.arity != g.arity:
        raise DimensionMismatch(f"arity {f.arity} vs {g.arity}")
    a, b = envelope(f), envelope(g)  # corner values compared by cross-multiplying
    fi, fm, gi, gm = a.f._ints, a.f._m, b.f._ints, b.f._m
    return a._corners == b._corners and all(fi[e] * gm == gi[e] * fm for e in a._corners)


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class TropRational:
    """A formal quotient num / den of tropical polynomials, den != -inf."""

    num: TropPoly
    den: TropPoly

    def __post_init__(self):
        if self.den.is_bottom:
            raise DegenerateInput("denominator must not be -inf")
        if self.num.arity != self.den.arity:
            raise DimensionMismatch("numerator and denominator arity differ")

    @property
    def arity(self) -> int:
        return self.num.arity

    def __call__(self, point) -> TropNum:
        return self.num(point) / self.den(point)


def rat_eval(phi: TropRational, point) -> TropNum:
    return phi(point)


def rat_eq(phi1: TropRational, phi2: TropRational) -> bool:
    """Pointwise equality, decided exactly by cross multiplication."""
    if phi1.arity != phi2.arity:
        raise DimensionMismatch("arity mismatch")
    return func_eq(phi1.num * phi2.den, phi2.num * phi1.den)
