"""The max-plus semiring, tropical Laurent polynomials and rational functions.

Coefficients are exact rationals; the additive zero (-inf) is represented by
absence: a dropped term, or the empty polynomial.  Every value is immutable
and every operation is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Mapping

from . import geom
from .errors import DegenerateInput, DimensionMismatch, TropError

Exponent = tuple


def as_q(x) -> Fraction:
    """Coerce an exact rational-like value; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__!s}")


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

    The empty map is the polynomial -inf.  Instances are immutable and
    hashable; arithmetic returns new values.
    """

    __slots__ = ("arity", "_terms", "_hash", "_envelope", "_lift")

    def __init__(self, arity: int, terms: Mapping[Exponent, object] | None = None):
        if arity < 1:
            raise TropError("arity must be at least 1")
        clean: dict = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != arity or not all(isinstance(i, int) for i in e):
                raise DimensionMismatch(f"exponent {e} does not fit arity {arity}")
            clean[e] = as_q(c)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_envelope", None)
        object.__setattr__(self, "_lift", None)

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
        return not self._terms

    @property
    def is_unit(self) -> bool:
        return len(self._terms) == 1

    @property
    def support(self):
        return tuple(sorted(self._terms))

    def items(self):
        return tuple(sorted(self._terms.items()))

    def coeff(self, exponent) -> Fraction | None:
        return self._terms.get(tuple(exponent))

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, TropPoly)
            and self.arity == other.arity
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.arity, frozenset(self._terms.items()))))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in self.items())
        return f"TropPoly({self.arity}, {{{body}}})"

    # -- evaluation and arithmetic ------------------------------------------

    def peak(self, point) -> tuple:
        """(top, hits, scale): the max over the terms at `point` is top / scale
        and `hits` terms attain it; top is None for -inf.  Denominators are
        cleared once per polynomial (by the lcm m of the coefficients) and once
        per point (by the lcm d of its coordinates): each m*d*(c + e.p) is an int.
        """
        p = [as_q(x) for x in point]
        if len(p) != self.arity:
            raise DimensionMismatch(
                f"point of dimension {len(p)} for arity {self.arity}"
            )
        if self._lift is None:
            m = lcm(*(c.denominator for c in self._terms.values()))
            lifted = tuple(
                (e, c.numerator * (m // c.denominator)) for e, c in self._terms.items()
            )
            object.__setattr__(self, "_lift", (m, lifted))
        m, lifted = self._lift
        d = lcm(*(x.denominator for x in p))
        q = [m * x.numerator * (d // x.denominator) for x in p]
        top = None
        hits = 0
        for e, c in lifted:
            v = c * d + sum(map(mul, e, q))
            if top is None or v > top:
                top, hits = v, 1
            elif v == top:
                hits += 1
        return top, hits, m * d

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
        terms = dict(self._terms)
        for e, c in other._terms.items():
            cur = terms.get(e)
            if cur is None or c > cur:
                terms[e] = c
        return TropPoly(self.arity, terms)

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        self._check(other)
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 + c2
                cur = terms.get(e)
                if cur is None or c > cur:
                    terms[e] = c
        return TropPoly(self.arity, terms)

    def __pow__(self, k: int) -> "TropPoly":
        if self.is_unit:
            ((e, c),) = self._terms.items()
            return TropPoly(self.arity, {tuple(k * i for i in e): c * k})
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
        return TropPoly(
            self.arity,
            {tuple(a + b for a, b in zip(e, v)): c for e, c in self._terms.items()},
        )

    def scale(self, c) -> "TropPoly":
        """Multiply by the constant c (add it to every coefficient)."""
        c = as_q(c)
        return TropPoly(self.arity, {e: cc + c for e, cc in self._terms.items()})


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
    terms = {e + (0,): c for e, c in f.items()}
    for e, c in g.items():
        key = e + (1,)
        cur = terms.get(key)
        if cur is None or c > cur:
            terms[key] = c
    return TropPoly(f.arity + 1, terms)


# ---------------------------------------------------------------------------
# the upper concave envelope and its views


class Envelope:
    """Upper concave envelope of a polynomial's lifted support.

    Built from one hull of the raw terms of `f`; every corner is a raw term,
    and only the corner exponents are stored.  A chain envelope (arity 1, or
    a segment or point Newton polygon) has `chain = (origin, step)`: its
    lattice points are origin + t*step for t = 0, 1, ...  A polygon envelope
    (full-dimensional Newton polygon) keeps the corners of each facet.
    """

    __slots__ = ("f", "chain", "_corners", "_facets", "_poly")

    def __init__(self, f: TropPoly):
        if f.arity not in (1, 2):
            raise TropError("canonical form is implemented for arity 1 and 2")
        terms = f._terms
        newt = geom.hull2(terms) if f.arity == 2 and len(terms) > 1 else None
        self.f = f
        self.chain = self._facets = self._poly = None
        if newt is not None and newt.dim == 2:
            facets, _planes = geom.upper_faces_2d(f.items())
            own = {e: e for e in terms}
            self._facets = tuple(
                tuple(own[p] for p in geom.hull2(facet).vertices) for facet in facets
            )
            self._corners = tuple(sorted({e for corners in self._facets for e in corners}))
            return
        if newt is not None and newt.dim == 1:
            origin = min(newt.vertices)
            self.chain = (origin, geom.primitive(geom._sub(max(newt.vertices), origin)))
        else:  # arity 1, or at most one term
            self.chain = (min(terms, default=None), (1,) + (0,) * (f.arity - 1))
        along = {self._t(e): e for e in terms}
        hull = geom.upper_envelope_1d((t, terms[e]) for t, e in along.items())
        self._corners = tuple(along[t] for t, _ in hull)

    @property
    def vertices(self) -> dict:
        """Corner exponent -> coefficient."""
        terms = self.f._terms
        return {e: terms[e] for e in self._corners}

    def _t(self, e) -> int:
        origin, step = self.chain
        return sum((x - o) * s for x, o, s in zip(e, origin, step)) // sum(
            s * s for s in step
        )

    def _at(self, t) -> Exponent:
        origin, step = self.chain
        return tuple(o + t * s for o, s in zip(origin, step))

    def _hull(self) -> list:
        """The (t, coefficient) corners of a chain, left to right."""
        return [(self._t(e), self.f._terms[e]) for e in self._corners]

    def _spans(self) -> list:
        """Consecutive corner pairs of a chain; a single point pairs with itself."""
        hull = self._hull()
        return list(zip(hull, hull[1:])) or [(hull[0], hull[0])]

    @property
    def roots(self) -> list:
        """(root, multiplicity) at each breakpoint of a chain envelope, in
        ascending order; the root is where the two adjacent pieces tie."""
        hull = self._hull()
        return [
            (Fraction(c0 - c1, t1 - t0), t1 - t0)
            for (t0, c0), (t1, c1) in zip(hull, hull[1:])
        ]

    def cells(self) -> list:
        """(lattice points, plane) for every linear piece.  The plane (n, d)
        satisfies n . (e, c) = d on the piece; it is None on a chain."""
        if self.chain is not None:
            return [
                (frozenset(self._at(t) for t in range(t0, t1 + 1)), None)
                for (t0, _), (t1, _) in self._spans()
            ]
        terms = self.f._terms
        out = []
        for corners in self._facets:
            points = geom.lattice_points(geom.Polygon(corners))
            plane = geom.plane_through([(e, terms[e]) for e in corners[:3]])
            out.append((frozenset(points), plane))
        return out

    @property
    def poly(self) -> TropPoly:
        """The canonical form: every lattice point of the Newton polytope with
        its envelope value.  It refers back to this envelope."""
        if self._poly is None:
            if self.chain is None:
                terms = {
                    q: geom.plane_value(plane, q)
                    for cell, plane in self.cells()
                    for q in cell
                }
            else:
                terms = {}
                for (t0, c0), (t1, c1) in self._spans():
                    # c0 + (c1 - c0) * (t - t0) / w over the common denominator
                    w = max(t1 - t0, 1)
                    m = lcm(c0.denominator, c1.denominator)
                    a, b = int(c0 * m), int(c1 * m)
                    for t in range(t0, t1 + 1):
                        terms[self._at(t)] = Fraction(a * w + (b - a) * (t - t0), m * w)
            out = TropPoly(self.f.arity, terms)
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
    return envelope(f).vertices == envelope(g).vertices


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
