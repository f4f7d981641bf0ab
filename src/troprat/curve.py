"""Tropical hypersurfaces: membership, plane-curve cell structure, weighted
divisor arithmetic, and the graph membership check for rational functions."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import geom
from .core import TropPoly, as_q, clear_denominators, envelope, stack_pair
from .errors import DegenerateInput, DimensionMismatch, TropError


def hypersurface_member(f: TropPoly, point) -> bool:
    """True iff the defining max of f is attained by at least two exponents.

    The hypersurface of the -inf polynomial is all of R^n.
    """
    _top, hits, _scale = f.peak(point)
    return f.is_bottom or hits >= 2


@dataclass(frozen=True)
class CurveEdge:
    a: tuple
    b: tuple
    weight: int
    dual: frozenset


@dataclass(frozen=True)
class CurveRay:
    base: tuple
    direction: tuple
    weight: int
    dual: frozenset


@dataclass(frozen=True)
class CurveLine:
    base: tuple
    direction: tuple
    weight: int
    dual: frozenset


@dataclass(frozen=True)
class PlaneCurve:
    """A weighted tropical plane curve; each piece carries its dual segment."""

    vertices: tuple
    edges: tuple
    rays: tuple
    lines: tuple


def _segment(u, v) -> tuple:
    """The lattice length of the segment [u, v], its primitive step from u,
    and its lattice points (a 1-cell of the subdivision).  More than
    `geom.MAX_LATTICE_POINTS` points raise PolygonTooLarge."""
    g = gcd(v[0] - u[0], v[1] - u[1])
    geom.check_lattice_count(g + 1)
    dx, dy = (v[0] - u[0]) // g, (v[1] - u[1]) // g
    return g, (dx, dy), frozenset((u[0] + t * dx, u[1] + t * dy) for t in range(g + 1))


def _step(dual) -> tuple:
    """The primitive step along a dual segment from its lex-least point."""
    (x0, y0), (x1, y1) = min(dual), max(dual)
    return geom.primitive((x1 - x0, y1 - y0))


def plane_curve(f: TropPoly) -> PlaneCurve:
    """Curve dual to the subdivision, read off the envelope's facet corners:
    a vertex per facet, a piece per corner edge, weights from lattice lengths.

    Adjacent facets of the upper hull share the corners of their common edge,
    so an edge (u, v) of one facet is an edge (v, u) of the other, or none."""
    if f.arity != 2:
        raise DimensionMismatch("plane_curve needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("V(-inf) is the whole plane, not a curve")
    if f.is_unit:
        raise DegenerateInput("a monomial defines an empty hypersurface")
    env = envelope(f)

    if env.chain is not None:
        # the corners p, q around each root tie on the line s . x = root, s
        # the chain's step; the line's weight is the root's multiplicity
        s, corners = env.chain[1], env._corners
        lines = [
            CurveLine(_line_anchor((s, root)), (s[1], -s[0]), w, _segment(p, q)[2])
            for (root, w), p, q in zip(env.roots, corners, corners[1:])
        ]
        lines.sort(key=lambda L: (L.direction, L.base))
        return PlaneCurve((), (), (), tuple(lines))

    # every monomial of a facet attains the maximum where x = (n0/n2, n1/n2);
    # the ints (n0, n1) over the lcm of the n2 (all > 0) sort as x does
    planes = env._planes()
    den = lcm(*(n[2] for n, _d in planes))
    key = [(n[0] * (den // n[2]), n[1] * (den // n[2])) for n, _d in planes]
    vertex = [(Fraction(n[0], n[2]), Fraction(n[1], n[2])) for n, _d in planes]
    owner = {(u, v): i for i, cs in enumerate(env._facets) for u, v in zip(cs, cs[1:] + cs[:1])}
    edges = []
    rays = []
    for (u, v), i in owner.items():
        j = owner.get((v, u))
        if j is not None and j < i:  # the edge (v, u) of facet j
            continue
        w, (dx, dy), dual = _segment(u, v)
        if j is None:  # on the boundary of Newt(f): a ray along the outward normal
            rays.append(((dy, -dx), key[i], CurveRay(vertex[i], (dy, -dx), w, dual)))
        else:
            i, j = sorted((i, j), key=key.__getitem__)
            edges.append((key[i], key[j], CurveEdge(vertex[i], vertex[j], w, dual)))
    edges.sort(key=lambda e: e[:2])
    rays.sort(key=lambda r: r[:2])
    vertices = tuple(vertex[i] for i in sorted(range(len(key)), key=key.__getitem__))
    return PlaneCurve(vertices, tuple(e[2] for e in edges), tuple(r[2] for r in rays), ())


def balancing_check(C: PlaneCurve) -> bool:
    """Weighted primitive directions around every vertex sum to zero.  An
    edge runs along its dual segment's step turned a quarter, from a to b."""
    sums = {v: [0, 0] for v in C.vertices}
    def bump(v, d, w):
        s = sums.get(v)  # one lookup: a vertex hashes two Fractions
        if s is not None:
            s[0] += w * d[0]
            s[1] += w * d[1]
    for e in C.edges:
        dx, dy = _step(e.dual)
        d = (-dy, dx)
        if (d > (0, 0)) != (e.a < e.b):  # b - a is lex-positive exactly when a < b
            d = (dy, -dx)
        bump(e.a, d, e.weight)
        bump(e.b, (-d[0], -d[1]), e.weight)
    for r in C.rays:
        bump(r.base, r.direction, r.weight)
    return all(sx == 0 and sy == 0 for sx, sy in sums.values())


def recession_fan(f: TropPoly) -> PlaneCurve:
    """Curve of the zero-coefficient polynomial on Newt(f)'s vertices."""
    if f.arity != 2:
        raise DimensionMismatch("recession_fan needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("-inf has no recession fan")
    if f.is_unit:
        raise DegenerateInput("a monomial has no recession fan")
    corners = geom.hull2(f.support).vertices  # the same flat facet as on all its lattice points
    return plane_curve(TropPoly(2, {p: 0 for p in corners}))


# ---------------------------------------------------------------------------
# divisors: integer-weighted sums of segments, rays and lines


def _dot(v, point, k=1) -> Fraction:
    """v . point / k for int v and k and a rational point, as one Fraction
    built from the point's numerators and denominators."""
    x, y = point
    xd, yd = x.denominator, y.denominator
    return Fraction(v[0] * x.numerator * yd + v[1] * y.numerator * xd, xd * yd * k)


def _line_key(point, n):
    """Canonical (normal, offset) for the line through `point` normal to the
    primitive int vector +-n; the direction along the line is rot90(normal)."""
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        n = (-n[0], -n[1])
    return n, _dot(n, point)


def _line_direction(n):
    return (-n[1], n[0])


def _line_anchor(key):
    n, c = key
    nn = n[0] * n[0] + n[1] * n[1]
    return (Fraction(c * n[0], nn), Fraction(c * n[1], nn))


def _param(key, point):
    d = _line_direction(key[0])
    return _dot(d, point, d[0] * d[0] + d[1] * d[1])


def _point_at(key, t):
    a = _line_anchor(key)
    d = _line_direction(key[0])
    return (a[0] + t * d[0], a[1] + t * d[1])


def _canonical_pieces(raw):
    """The maximal nonzero constant-weight pieces of the sum of raw (lo, hi, w)
    intervals on one line, a None end being infinite: one sweep over the
    weight jumps at the sorted ends."""
    w = 0  # the weight at -inf
    jumps: dict = {}
    for lo, hi, pw in raw:
        if lo is None:
            w += pw
        else:
            jumps[lo] = jumps.get(lo, 0) + pw
        if hi is not None:
            jumps[hi] = jumps.get(hi, 0) - pw
    out = []
    start = None
    for t, jump in sorted(jumps.items()):
        if jump:
            if w:
                out.append((start, t, w))
            start, w = t, w + jump
    if w:
        out.append((start, None, w))
    return out


@dataclass(frozen=True)
class Divisor:
    """Formal integer-weighted sum of lines, rays and segments, stored in
    canonical refined form so equality is structural."""

    lines: tuple  # ((normal, offset), ((lo, hi, weight), ...)) sorted

    @classmethod
    def from_raw(cls, pieces) -> "Divisor":
        by_line: dict = {}
        for key, lo, hi, w in pieces:
            by_line.setdefault(key, []).append((lo, hi, w))
        out = []
        for key in sorted(by_line, key=lambda k: (k[0], k[1])):
            canon = _canonical_pieces(by_line[key])
            if canon:
                out.append((key, tuple(canon)))
        return cls(tuple(out))

    @property
    def is_empty(self) -> bool:
        return not self.lines

    def _raw(self):
        for key, pieces in self.lines:
            for lo, hi, w in pieces:
                yield key, lo, hi, w

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor.from_raw(list(self._raw()) + list(other._raw()))

    def __neg__(self) -> "Divisor":
        return Divisor.from_raw((k, lo, hi, -w) for k, lo, hi, w in self._raw())

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def _weight_on(self, key, lo, hi) -> int | None:
        """Constant weight on the interval (lo, hi) of the keyed line, or None
        if the weight function is not constant there."""
        pieces = dict(self.lines).get(key, ())
        overlapping = []
        for plo, phi, w in pieces:
            left = plo if lo is None else (lo if plo is None else max(plo, lo))
            right = phi if hi is None else (hi if phi is None else min(phi, hi))
            if left is None or right is None or left < right:
                overlapping.append((plo, phi, w))
        if not overlapping:
            return 0
        if len(overlapping) > 1:
            return None
        plo, phi, w = overlapping[0]
        lo_ok = plo is None or (lo is not None and plo <= lo)
        hi_ok = phi is None or (hi is not None and hi <= phi)
        return w if lo_ok and hi_ok else None

    def weight_on_ray(self, base, direction) -> int | None:
        """The weight on the ray from `base` along the int vector `direction`."""
        direction = geom.primitive(direction)
        key = _line_key(base, (-direction[1], direction[0]))
        t = _param(key, base)
        forward = direction == _line_direction(key[0])
        return self._weight_on(key, t, None) if forward else self._weight_on(key, None, t)

    def pieces(self):
        """Geometric pieces: (kind, data..., weight) for display purposes."""
        out = []
        for key, pieces in self.lines:
            d = _line_direction(key[0])
            for lo, hi, w in pieces:
                if lo is None and hi is None:
                    out.append(("line", _line_anchor(key), d, w))
                elif lo is None:
                    out.append(("ray", _point_at(key, hi), (-d[0], -d[1]), w))
                elif hi is None:
                    out.append(("ray", _point_at(key, lo), d, w))
                else:
                    out.append(
                        ("segment", _point_at(key, lo), _point_at(key, hi), w)
                    )
        return out


def curve_to_divisor(C: PlaneCurve) -> Divisor:
    """The line of an edge has its dual segment's step as normal; a ray's or
    a line's direction is already a primitive int vector."""
    raw = []
    for e in C.edges:
        key = _line_key(e.a, _step(e.dual))
        t0, t1 = sorted((_param(key, e.a), _param(key, e.b)))
        raw.append((key, t0, t1, e.weight))
    for r in C.rays:
        key = _line_key(r.base, (-r.direction[1], r.direction[0]))
        t = _param(key, r.base)
        if r.direction == _line_direction(key[0]):
            raw.append((key, t, None, r.weight))
        else:
            raw.append((key, None, t, r.weight))
    for L in C.lines:
        key = _line_key(L.base, (-L.direction[1], L.direction[0]))
        raw.append((key, None, None, L.weight))
    return Divisor.from_raw(raw)


def divisor_add(d1: Divisor, d2: Divisor) -> Divisor:
    return d1 + d2


def divisor_sub(d1: Divisor, d2: Divisor) -> Divisor:
    return d1 - d2


# ---------------------------------------------------------------------------
# the graph membership check for rational-function pairs


@dataclass(frozen=True)
class DualityReport:
    total: int
    graph_hits: int
    below_hits: int
    above_hits: int
    member_hits: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def graph_duality_check(f: TropPoly, g: TropPoly, samples) -> DualityReport:
    """Check on each sample (x, t) that membership in the hypersurface of
    f + (x_{n+1} * g) is equivalent to: t equals phi(x) != -inf, or x lies on
    V(f) with t below phi(x), or x lies on V(g) with t above phi(x).

    Each sample is cleared once to ints z over its common denominator d, and
    every comparison is between ints.  Membership is read from the stacked
    polynomial's own terms, so the check does not assume the theorem."""
    if g.is_bottom:
        raise DegenerateInput("denominator must not be -inf")
    if f.arity != g.arity:
        raise DimensionMismatch("arity mismatch")
    stacked = stack_pair(f, g)
    n = stacked.arity
    mf, mg = f._m, g._m
    mfg = mf * mg
    graph = below = above = member_hits = 0
    violations = []
    total = 0
    for pt in samples:
        pt = tuple(as_q(x) for x in pt)
        if len(pt) != n:
            raise DimensionMismatch(f"point of dimension {len(pt)} for arity {n}")
        total += 1
        z, d = clear_denominators(pt)
        member = stacked._peak_cleared(z, d)[1] >= 2
        x = z[:-1]
        top_f, hits_f = f._peak_cleared(x, d)
        top_g, hits_g = g._peak_cleared(x, d)
        if top_f is None:  # phi = -inf, and every t is above it
            on_graph = on_f = False
            on_g = hits_g >= 2
        else:  # the sign of t - phi(x), scaled by m_f * m_g * d > 0
            s = z[-1] * mfg - (top_f * mg - top_g * mf)
            on_graph = s == 0
            on_f = s < 0 and hits_f >= 2
            on_g = s > 0 and hits_g >= 2
        graph += on_graph
        below += on_f
        above += on_g
        member_hits += member
        if member != (on_graph or on_f or on_g):
            violations.append((pt, member, on_graph, on_f, on_g))
    return DualityReport(
        total, graph, below, above, member_hits, tuple(violations)
    )


def _rand_q(rng: random.Random, span: int = 8, max_den: int = 64) -> tuple:
    """A random rational in [-span, span] as the ints (numerator, denominator)."""
    d = rng.randint(1, max_den)
    return rng.randint(-span * d, span * d), d


def _locus_pieces(f: TropPoly):
    """Sampleable pieces of V(f), or an empty list when V(f) is trivial, each
    cleared to ints (lo, hi, z, step, d): a draw k in [lo, hi] is the point
    (z + k*step) / d, and a root (step None) is the one point z / d."""
    if f.is_bottom or f.is_unit:
        return []
    if f.arity == 1:
        return [(0, 0, [r.numerator], None, r.denominator) for r, _mult in envelope(f).roots]
    try:
        C = plane_curve(f)
    except TropError:
        return []
    pieces = []
    for e in C.edges:  # a + (k/16)(b - a) = (16a + k(b - a)) / 16
        (a0, a1, b0, b1), d = clear_denominators(e.a + e.b)
        pieces.append((0, 16, [16 * a0, 16 * a1], [b0 - a0, b1 - a1], 16 * d))
    for lo, rays in ((0, C.rays), (-64, C.lines)):  # base + (k/8) dir
        for r in rays:
            (z0, z1), d = clear_denominators(r.base)
            step = [d * r.direction[0], d * r.direction[1]]
            pieces.append((lo, 64, [8 * z0, 8 * z1], step, 8 * d))
    return pieces


def duality_samples(f: TropPoly, g: TropPoly, count: int, seed: int):
    """Deterministic sample mix: graph points, points below V(f) and above
    V(g), near-graph probes, and fully random points.

    Draws stay int pairs and points stay ints over a common denominator;
    only the emitted coordinates become Fractions."""
    if g.is_bottom:
        raise DegenerateInput("denominator must not be -inf")
    if f.arity != g.arity:
        raise DimensionMismatch("arity mismatch")
    rng = random.Random(seed)
    n = f.arity
    mf, mg = f._m, g._m

    def phi(z, d):
        """phi(z / d) = p / q as the ints (p, q), q > 0, or None for -inf."""
        top_f = f._peak_cleared(z, d)[0]
        if top_f is None:
            return None
        return top_f * mg - g._peak_cleared(z, d)[0] * mf, mf * mg * d

    num_pieces = _locus_pieces(f)
    den_pieces = _locus_pieces(g)
    out = []
    while len(out) < count:
        mode = len(out) % 5
        x = [_rand_q(rng) for _ in range(n)]
        if mode in (0, 4):  # only these modes read phi(x)
            d = 1
            for _a, b in x:
                d *= b
            v = phi([a * (d // b) for a, b in x], d)
            if v is not None:
                p, q = v
                if mode == 4:  # phi +- 1/e
                    e = rng.randint(2, 64)
                    p, q = p * e + (q if rng.random() < 0.5 else -q), q * e
                out.append(tuple(Fraction(u, w) for u, w in x) + (Fraction(p, q),))
                continue
        locus = num_pieces if mode == 2 else den_pieces if mode == 3 else None
        if locus:
            lo, hi, z, step, d = locus[rng.randrange(len(locus))]
            if step is not None:
                k = rng.randint(lo, hi)
                z = [u + k * s for u, s in zip(z, step)]
            v = phi(z, d)
            if mode == 3 or v is not None:  # t = phi -+ (1 + |a/b|), phi = 0 for -inf
                p, q = v or (0, 1)
                a, b = _rand_q(rng, span=2)
                off = q * b + abs(a) * q
                t = Fraction(p * b + (off if mode == 3 else -off), q * b)
                out.append(tuple(Fraction(u, d) for u in z) + (t,))
                continue
        a, b = _rand_q(rng)
        out.append(tuple(Fraction(u, w) for u, w in x) + (Fraction(a, b),))
    return out
