"""Representation analysis for tropical rational functions: pair volumes,
univariate factorization and minimum-volume representations, residuation
division, factorization search, irreducibility, and complexity."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from . import geom
from .core import (
    TropPoly,
    TropRational,
    canonicalize,
    envelope,
    func_eq,
    newton_polygon,
    newton_range,
)
from .errors import DegenerateInput, DimensionMismatch, TropError
from .subdiv import mcomp


def vol_pair(f: TropPoly, g: TropPoly) -> Fraction:
    """Volume of the pair (f, g): the (n+1)-volume of the Newton polytope of
    f + (x_{n+1} * g); 0 when that body is lower-dimensional."""
    if g.is_bottom:
        raise DegenerateInput("denominator must not be -inf")
    if f.arity != g.arity:
        raise DimensionMismatch("arity mismatch")
    if f.is_bottom:
        return Fraction(0)
    if f.arity == 1:
        lo_f, hi_f = newton_range(f)
        lo_g, hi_g = newton_range(g)
        return Fraction((hi_f - lo_f) + (hi_g - lo_g), 2)
    if f.arity == 2:
        return geom.volume_stacked(
            geom.StackedHull(newton_polygon(f), newton_polygon(g))
        )
    raise TropError("pair volumes are implemented for arity 1 and 2")


@dataclass(frozen=True)
class RepPair:
    """A representation num/den with its cached pair volume."""

    num: TropPoly
    den: TropPoly
    volume: Fraction

    @classmethod
    def of(cls, num: TropPoly, den: TropPoly) -> "RepPair":
        return cls(num, den, vol_pair(num, den))

    def rational(self) -> TropRational:
        return TropRational(self.num, self.den)


# ---------------------------------------------------------------------------
# univariate roots and factorization


@dataclass(frozen=True)
class FactoredUni:
    """alpha * x^k * prod (x + root)^mult, roots sorted ascending."""

    unit_coeff: Fraction
    monomial_exp: int
    roots: tuple


def uni_roots(f: TropPoly):
    """Roots with multiplicity: breakpoints of the concave envelope; the gap
    between consecutive upper-hull exponents is the multiplicity."""
    if f.arity != 1:
        raise DimensionMismatch("uni_roots needs arity 1")
    if f.is_bottom:
        raise DegenerateInput("-inf has no roots")
    return envelope(f).roots


def uni_factor(f: TropPoly) -> FactoredUni:
    if f.arity != 1:
        raise DimensionMismatch("uni_factor needs arity 1")
    if f.is_bottom:
        raise DegenerateInput("-inf cannot be factored")
    env = envelope(f)
    vertices = env.vertices
    return FactoredUni(
        unit_coeff=vertices[max(vertices)],
        monomial_exp=min(vertices)[0],
        roots=tuple(env.roots),
    )


def uni_expand(F: FactoredUni) -> TropPoly:
    """alpha * x^k * prod (x + root): with n roots counted by multiplicity,
    the coefficient of x^(k + j) is alpha plus the sum of the n - j largest
    roots, the best choice of n - j root factors."""
    roots = sorted(r for r, mult in F.roots for _ in range(mult))
    top = F.monomial_exp + len(roots)
    c = F.unit_coeff
    terms = {(top,): c}
    for j, r in enumerate(reversed(roots), 1):
        c += r
        terms[(top - j,)] = c
    return TropPoly(1, terms)


def minrep_uni(phi: TropRational) -> RepPair:
    """The minimum-volume representation of a univariate rational function.

    Common roots are cancelled at minimum multiplicity, then the pair is
    normalized by a unit so the denominator has monomial exponent 0 and unit
    coefficient 0.
    """
    if phi.arity != 1:
        raise DimensionMismatch("minrep_uni needs arity 1")
    if phi.num.is_bottom:
        return RepPair.of(TropPoly.zero(1), TropPoly.constant(1, 0))
    fn = uni_factor(phi.num)
    fd = uni_factor(phi.den)
    dn = dict(fn.roots)
    dd = dict(fd.roots)
    for r in set(dn) & set(dd):
        m = min(dn[r], dd[r])
        for d in (dn, dd):
            d[r] -= m
            if d[r] == 0:
                del d[r]
    num = FactoredUni(
        fn.unit_coeff - fd.unit_coeff,
        fn.monomial_exp - fd.monomial_exp,
        tuple(sorted(dn.items())),
    )
    den = FactoredUni(Fraction(0), 0, tuple(sorted(dd.items())))
    return RepPair.of(uni_expand(num), uni_expand(den))


# ---------------------------------------------------------------------------
# residuation division and factorization search


def _residual(fc: TropPoly, g: TropPoly) -> TropPoly | None:
    """Raw residuation: the maximal h with g*h <= f pointwise.

    `fc` must be canonical.  h is supported on the erosion of Newt(f) by
    Newt(g): the shifts keeping the whole support of g inside.  Only the
    corners of g's envelope are read: they span Newt(g), and on each cell
    of g the concave fc minus the affine g is least at a corner.
    """
    env = envelope(g)
    return _residual_at(fc, env.f._m, [(i, env.f._ints[i]) for i in env._corners])


def _residual_at(fc: TropPoly, m_g: int, corners) -> TropPoly | None:
    """`_residual` by a g given as its envelope corners: (exponent, int)
    pairs, each int the coefficient times m_g.  One pass over fc's terms e:
    the shift k = e - i0 of the first corner is kept when k + i is a term
    for every other corner i, and h(k) is the least fc(k + i) - g(i)."""
    m = lcm(fc._m, m_g)
    fi, lift = fc._over(m), m // m_g
    (i0, c0), *rest = [(i, c * lift) for i, c in corners]
    terms = {}
    for e, v in fi.items():
        k = tuple(map(sub, e, i0))
        low = v - c0
        for i, c in rest:
            w = fi.get(tuple(map(add, k, i)))
            if w is None:
                break
            if w - c < low:
                low = w - c
        else:
            terms[k] = low
    return TropPoly._from_ints(fc.arity, m, terms) if terms else None


def _seeded_residual(fc: TropPoly, summand: geom.Polygon) -> TropPoly | None:
    """`_residual` by the all-zero polynomial on the lattice points of a
    summand.  Its envelope is one flat facet, whose corners are the summand's
    vertices with value 0, so neither the seed nor its envelope is built."""
    return _residual_at(fc, 1, [(v, 0) for v in summand.vertices])


def try_divide(f: TropPoly, g: TropPoly) -> TropPoly | None:
    """Maximal h with g*h <= f pointwise; returned only when g*h = f as
    functions, in canonical form."""
    if f.arity != g.arity:
        raise DimensionMismatch("arity mismatch")
    if g.is_bottom:
        raise DegenerateInput("cannot divide by -inf")
    if f.is_bottom:
        return TropPoly.zero(f.arity)
    h = _residual(canonicalize(f), g)
    if h is not None and func_eq(g * h, f):
        return canonicalize(h)
    return None


def unit_normalize(f: TropPoly) -> TropPoly:
    """Divide by a unit: shift the componentwise-minimal exponent to zero and
    the coefficient at the lex-least support point to zero."""
    return _from_unit_key(f.arity, _unit_key(f))


def _unit_key(p: TropPoly) -> tuple:
    """The terms of `unit_normalize(p)` as (exponent, (numerator,
    denominator)) pairs in exponent order, computed on p's ints."""
    ints, m = p._ints, p._m
    if not ints:
        return ()
    mins = tuple(map(min, zip(*ints)))
    base = ints[min(ints)]
    out = []
    for e in sorted(ints):
        c = ints[e] - base
        g = gcd(c, m)
        out.append((tuple(map(sub, e, mins)), (c // g, m // g)))
    return tuple(out)


def _from_unit_key(arity: int, key: tuple) -> TropPoly:
    """The polynomial whose terms `_unit_key` lists."""
    return TropPoly(arity, {e: Fraction(*c) for e, c in key})


def _splits(f: TropPoly):
    """Verified two-factor splits recovered by alternating residuation from
    the Minkowski summand pairs of the Newton polygon.

    Starting from the all-zero polynomial on a summand's lattice points, two
    residuation rounds reach the fixpoint pair; only pairs that multiply back
    to f as functions are kept, and a pair is multiplied only when its
    dedupe key is new.
    """
    fc = canonicalize(f)
    newt = newton_polygon(f)
    out = []
    seen = set()
    for pair in geom.summand_decompositions(newt):
        for summand in pair:
            # A third round fc / h would return g: fc is canonical, so x -> fc / x
            # is a Galois connection on coefficient maps, and applied three
            # times it equals itself applied once.
            g = _seeded_residual(fc, summand)
            if g is None or g.is_unit:
                continue
            h = _residual(fc, g)
            if h is None or h.is_unit:
                continue
            key = tuple(sorted((_unit_key(g), _unit_key(h))))
            if key in seen or not func_eq(g * h, f):
                continue
            seen.add(key)
            out.append((g, h))
    return out


def enumerate_factorizations(f: TropPoly):
    """The trivial factorization plus every complete factorization found by
    recursive residuation splitting.

    A polynomial whose Newton polygon is a segment is a unit times a
    univariate polynomial in the segment's primitive direction, so it has
    one complete factorization: a linear factor per root of its envelope,
    repeated by multiplicity.  A polygon splits over its Minkowski summand
    pairs, whose search refuses edge-length sums above 24
    (`PolygonTooLarge`); that cap, not a depth, bounds the recursion.  The
    search is exhaustive for all-zero-coefficient polynomials; for general
    coefficients it is sound (every split is verified with func_eq) but not
    proven exhaustive.
    """
    if f.arity != 2:
        raise DimensionMismatch("enumerate_factorizations needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("-inf cannot be factored")
    memo: dict = {}

    def complete(p: TropPoly):
        # Terminates: a split (g, h) has Newt(g) + Newt(h) = Newt(p), neither
        # a point, so each part's edge-length sum is at least 2 below p's;
        # with the cap of 24 polygons nest at most 12 deep, and a segment
        # ends the recursion in closed form.
        key = _unit_key(canonicalize(p))
        if key in memo:
            return memo[key]
        env = envelope(p)
        if p.is_unit:
            results = set()
        elif env.chain is not None:
            step = env.chain[1]
            linears = [
                _unit_key(TropPoly(2, {step: 0, (0, 0): root}))
                for root, mult in env.roots
                for _ in range(mult)
            ]
            results = {tuple(sorted(linears))}
        else:
            results = {
                tuple(sorted(left + right))
                for g, h in _splits(p)
                for left in complete(g)
                for right in complete(h)
            }
        memo[key] = frozenset(results or {(key,)})
        return memo[key]

    found = {(_unit_key(canonicalize(f)),)} | set(complete(f))
    return tuple(tuple(_from_unit_key(2, key) for key in keys) for keys in sorted(found))


# ---------------------------------------------------------------------------
# complexity and irreducibility


def fcomp(factors) -> int:
    """Sum of the factors' monomial complexities minus (k - 1)."""
    factors = list(factors)
    if not factors:
        raise TropError("fcomp needs at least one factor")
    if any(p.is_bottom for p in factors):
        raise DegenerateInput("-inf factors have no complexity")
    return sum(mcomp(p) for p in factors) - (len(factors) - 1)


def newton_irreducible(f: TropPoly) -> bool:
    """No decomposition of Newt(f) into two non-point lattice summands."""
    if f.is_bottom:
        raise DegenerateInput("-inf has no Newton polytope")
    if f.arity == 1:
        lo, hi = newton_range(f)
        return hi - lo == 1
    newt = newton_polygon(f)
    if newt.dim == 0:
        return False
    return not geom.summand_decompositions(newt)


def curve_irreducible(f: TropPoly) -> bool:
    """Irreducibility of the curve of an all-zero-coefficient polynomial."""
    if f.arity != 2:
        raise DimensionMismatch("curve_irreducible needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("-inf defines no curve")
    if any(c != 0 for _e, c in f.items()):
        raise TropError(
            "curve_irreducible applies only to all-zero-coefficient polynomials"
        )
    return newton_irreducible(f)


def monotonicity_check(f: TropPoly, g: TropPoly, h: TropPoly):
    """Volumes (vol(f, g), vol(f*h, g*h)); the second never falls below the
    first and they agree exactly when h is a unit."""
    if h.is_bottom or g.is_bottom:
        raise DegenerateInput("g and h must not be -inf")
    before = vol_pair(f, g)
    if before == 0:
        raise DegenerateInput("the pair body must have full affine span")
    after = vol_pair(f * h, g * h)
    if after < before or (after == before) != h.is_unit:
        raise TropError("volume monotonicity violated (internal error)")
    return before, after
