"""Exact lattice-polygon geometry and stacked 3-d volumes.

All computations are exact: coordinates are Python ints or Fractions and no
floating point is used anywhere.  Polygons are convex, stored as minimal
counterclockwise vertex tuples starting at the lexicographically smallest
vertex; points and segments are first-class degenerate polygons.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm

from .errors import NonLatticePolygon, PolygonTooLarge

Point2 = tuple  # (x, y) with int or Fraction entries

MAX_LATTICE_POINTS = 200_000  # the most lattice points one enumeration lists


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _is_int(x) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


@dataclass(frozen=True)
class Polygon:
    """Convex polygon: ccw minimal vertices; a point or a segment is allowed."""

    vertices: tuple

    @property
    def dim(self) -> int:
        return min(len(self.vertices) - 1, 2)

    @property
    def is_lattice(self) -> bool:
        return all(_is_int(x) and _is_int(y) for x, y in self.vertices)

    def translate(self, v) -> "Polygon":
        return Polygon(tuple((x + v[0], y + v[1]) for x, y in self.vertices))

    def edges(self):
        """Directed ccw boundary edges; a segment yields its single edge."""
        vs = self.vertices
        if len(vs) == 1:
            return []
        if len(vs) == 2:
            return [(vs[0], vs[1])]
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def hull2(points) -> Polygon:
    """Exact convex hull (monotone chain); drops collinear boundary points."""
    pts = sorted({(p[0], p[1]) for p in points})
    if not pts:
        raise ValueError("hull of an empty point set")
    if len(pts) == 1:
        return Polygon((pts[0],))
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 or all(_cross(hull[0], hull[1], q) == 0 for q in hull[2:]):
        return Polygon((pts[0], pts[-1]))
    return Polygon(tuple(hull))


def area2(P: Polygon) -> Fraction:
    """Shoelace area; 0 for points and segments."""
    vs = P.vertices
    if len(vs) < 3:
        return Fraction(0)
    twice = 0
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        twice += x0 * y1 - x1 * y0
    return Fraction(twice, 2)


def lattice_length(a, b) -> int:
    """gcd of the coordinate differences of two integer points."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if not (_is_int(dx) and _is_int(dy)):
        raise NonLatticePolygon("lattice length needs integer endpoints")
    return gcd(abs(int(dx)), abs(int(dy)))


def primitive(v):
    """Reduce an integer vector to its primitive direction."""
    x, y = int(v[0]), int(v[1])
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ValueError("zero vector has no direction")
    return (x // g, y // g)


def _require_lattice(P: Polygon):
    if not P.is_lattice:
        raise NonLatticePolygon(f"not a lattice polygon: {P.vertices}")


def _column_bounds(chain, rounding):
    """The y of a chain with vertices by increasing x, rounded by `rounding(num,
    den)`, at each integer x it spans; its other edges bound a vertical one."""
    out = []
    for (ax, ay), (bx, by) in zip(chain, chain[1:]):
        if ax != bx:
            for x in range(ax + 1 if out else ax, bx + 1):
                out.append(rounding(ay * (bx - ax) + (x - ax) * (by - ay), bx - ax))
    return out


def check_lattice_count(count: int):
    """Refuse to enumerate more than MAX_LATTICE_POINTS lattice points."""
    if count > MAX_LATTICE_POINTS:
        raise PolygonTooLarge(f"{count} lattice points exceed the bound {MAX_LATTICE_POINTS}")


def lattice_points(P: Polygon):
    """All integer points of a lattice polygon, sorted, one column at a time.
    They are counted first, by Pick's formula when the bounding box is larger
    than the bound, and more than MAX_LATTICE_POINTS raise PolygonTooLarge."""
    _require_lattice(P)
    vs = [(int(x), int(y)) for x, y in P.vertices]
    k = vs.index(max(vs))
    (x0, y0), (x1, y1) = vs[0], vs[k]
    ys = [y for _x, y in vs]
    if (x1 - x0 + 1) * (max(ys) - min(ys) + 1) > MAX_LATTICE_POINTS:
        # points = area + boundary points / 2 + 1, also for a point or segment
        ring = list(zip(vs, vs[1:] + vs[:1]))
        twice = sum(ax * by - bx * ay for (ax, ay), (bx, by) in ring)
        boundary = sum(gcd(bx - ax, by - ay) for (ax, ay), (bx, by) in ring)
        check_lattice_count((twice + boundary) // 2 + 1)
    if x0 == x1:  # a point or a vertical segment
        return [(x0, y) for y in range(y0, y1 + 1)]
    # ccw from the lex-min vertex the lower chain runs to the lex-max one, and
    # the rest, read backwards, is the upper chain
    lows = _column_bounds(vs[: k + 1], lambda a, b: -(-a // b))
    highs = _column_bounds(vs[:1] + vs[:k - 1:-1], lambda a, b: a // b)
    columns = zip(range(x0, x1 + 1), lows, highs)
    return [(x, y) for x, lo, hi in columns for y in range(lo, hi + 1)]


def minkowski_sum2(P: Polygon, Q: Polygon) -> Polygon:
    """Exact Minkowski sum of convex polygons (hull of vertex sums)."""
    return hull2([_add(p, q) for p in P.vertices for q in Q.vertices])


def _angle_cmp(u, v):
    """Exact ccw angular order starting from the positive x-axis."""
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if hu != hv:
        return hu - hv
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


# ---------------------------------------------------------------------------
# stacked hulls and volumes


@dataclass(frozen=True)
class StackedHull:
    """conv(bottom x {0}  U  top x {1}) in R^3."""

    bottom: Polygon
    top: Polygon

    def points3(self):
        return [(x, y, 0) for x, y in self.bottom.vertices] + [
            (x, y, 1) for x, y in self.top.vertices
        ]


def volume_stacked(S: StackedHull) -> Fraction:
    """Exact volume via Simpson's rule.

    The slice area at height h is quadratic in h (a Minkowski combination of
    the two polygons), so (A0 + A(bottom+top) + A1)/6 is exact; every
    degenerate case (affine span below 3) comes out as 0 automatically.
    """
    a0 = area2(S.bottom)
    a1 = area2(S.top)
    am = area2(minkowski_sum2(S.bottom, S.top))
    return Fraction(a0 + am + a1, 6)


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub3(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _affine_rank3(pts) -> int:
    p0 = pts[0]
    basis = []
    for p in pts[1:]:
        v = _sub3(p, p0)
        if not basis:
            if v != (0, 0, 0):
                basis.append(v)
        elif len(basis) == 1:
            if _cross3(basis[0], v) != (0, 0, 0):
                basis.append(v)
        else:
            if _dot3(_cross3(basis[0], basis[1]), v) != 0:
                return 3
    return len(basis)


def _primitive3(n):
    fs = [Fraction(c) for c in n]
    m = lcm(*(f.denominator for f in fs))
    ints = [int(f * m) for f in fs]
    g = gcd(*(abs(c) for c in ints))
    return tuple(c // g for c in ints)


def volume3(points) -> Fraction:
    """Volume of the convex hull of finitely many exact 3-d points.

    Supporting planes are enumerated from point triples; each facet is fanned
    into tetrahedra from the centroid.  Quadratic in facet count but exact,
    which is all the oracle role asks for.
    """
    pts = sorted(set(points))
    if _affine_rank3(pts) < 3:
        return Fraction(0)
    m = len(pts)
    c = tuple(Fraction(sum(p[i] for p in pts), m) for i in range(3))
    seen = set()
    total = Fraction(0)
    for i, j, k in combinations(range(m), 3):
        n = _cross3(_sub3(pts[j], pts[i]), _sub3(pts[k], pts[i]))
        if n == (0, 0, 0):
            continue
        d = _dot3(n, pts[i])
        side = _dot3(n, c) - d
        if side == 0:
            continue
        if side > 0:
            n = tuple(-x for x in n)
            d = -d
        key = _primitive3(n)
        if key in seen:
            continue
        vals = [_dot3(n, p) - d for p in pts]
        if any(v > 0 for v in vals):
            continue
        seen.add(key)
        facet = [p for p, v in zip(pts, vals) if v == 0]
        fc = tuple(Fraction(sum(p[i] for p in facet), len(facet)) for i in range(3))
        ax = max(range(3), key=lambda t: abs(key[t]))
        u, v = [t for t in range(3) if t != ax]
        dirs = sorted(
            facet,
            key=cmp_to_key(
                lambda p, q: _angle_cmp(
                    (p[u] - fc[u], p[v] - fc[v]), (q[u] - fc[u], q[v] - fc[v])
                )
            ),
        )
        for t in range(1, len(dirs) - 1):
            det = _dot3(
                _cross3(_sub3(dirs[t], dirs[0]), _sub3(dirs[t + 1], dirs[0])),
                _sub3(dirs[0], c),
            )
            total += Fraction(abs(det), 6)
    return total


def volume_oracle(S: StackedHull) -> Fraction:
    """Independent stacked volume: full 3-d hull, tetrahedral fan."""
    return volume3(S.points3())


# ---------------------------------------------------------------------------
# Minkowski summand enumeration


def _edge_multiset(P: Polygon):
    """ccw boundary as (primitive direction, lattice length) pairs."""
    if P.dim == 0:
        return []
    if P.dim == 1:
        a, b = P.vertices
        d = primitive(_sub(b, a))
        return [(d, lattice_length(a, b)), ((-d[0], -d[1]), lattice_length(a, b))]
    out = []
    for a, b in P.edges():
        out.append((primitive(_sub(b, a)), lattice_length(a, b)))
    return out


def _polygon_from_edges(edges) -> Polygon:
    moves = [(d, c) for d, c in edges if c > 0]
    moves.sort(key=cmp_to_key(lambda A, B: _angle_cmp(A[0], B[0])))
    cur = (0, 0)
    pts = [cur]
    for d, c in moves:
        cur = (cur[0] + d[0] * c, cur[1] + d[1] * c)
        pts.append(cur)
    return hull2(pts)


def normalize_origin(P: Polygon) -> Polygon:
    """Translate so the lexicographically smallest vertex is the origin."""
    m = min(P.vertices)
    return P.translate((-m[0], -m[1]))


def _zero_sum_picks(edges):
    """The picks (t_e in [0, len_e] per edge, in order) whose edge vectors sum
    to zero, in lexicographic order.  A pick and its complement (len_e - t_e)
    make the same pair of summands, so only the smaller of the two is walked.

    This is the partial-sum search of Gao and Lauder: reach[i] holds every
    sum the edges from i on can make, so the walk from the first edge only
    descends into a prefix whose sum some suffix can cancel.
    """
    n = len(edges)
    reach = [None] * n + [{(0, 0)}]
    for i in range(n - 1, 0, -1):
        (dx, dy), c = edges[i]
        reach[i] = {(x + dx * t, y + dy * t) for x, y in reach[i + 1] for t in range(c + 1)}
    picks = [0] * n

    def walk(i, x, y, tied):
        if i == n:
            yield tuple(picks)
            return
        (dx, dy), c = edges[i]
        for t in range(c // 2 + 1 if tied else c + 1):
            sx, sy = x + dx * t, y + dy * t
            if (-sx, -sy) in reach[i + 1]:
                picks[i] = t
                yield from walk(i + 1, sx, sy, tied and 2 * t == c)

    return walk(0, 0, 0, True)


def summand_decompositions(P: Polygon, max_edge_sum: int = 24):
    """All unordered pairs (Q, R) of non-point lattice summands with Q+R = P.

    Works on the primitive edge multiset: a summand picks t_e in [0, len_e]
    per direction subject to the picks summing to zero, and the rest of each
    edge goes to its partner.  Summands are translated so their lex-min
    vertex is the origin.
    """
    _require_lattice(P)
    if P.dim == 0:
        return ()
    edges = _edge_multiset(P)
    lens = [c for _, c in edges]
    if sum(lens) > max_edge_sum:
        raise PolygonTooLarge(
            f"edge multiplicity sum {sum(lens)} exceeds bound {max_edge_sum}"
        )
    combos = 1
    for c in lens:
        combos *= c + 1
    if combos > 300_000:
        raise PolygonTooLarge(f"{combos} candidate edge subsets is too many")
    found = set()
    for picks in _zero_sum_picks(edges):
        if not any(picks):
            continue
        q = _polygon_from_edges([(d, t) for (d, _), t in zip(edges, picks)])
        r = _polygon_from_edges(
            [(d, c - t) for (d, c), t in zip(edges, picks)]
        )
        q, r = normalize_origin(q), normalize_origin(r)
        found.add(tuple(sorted((q, r), key=lambda poly: poly.vertices)))
    return tuple(sorted(found, key=lambda pr: (pr[0].vertices, pr[1].vertices)))


# ---------------------------------------------------------------------------
# upper (regular) envelopes of lifted point sets


def upper_envelope_1d(pairs):
    """Upper concave hull of (position, value) pairs, left to right."""
    pts = sorted(pairs)
    if len(pts) == 1:
        return list(pts)
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    return hull


def plane_through(A, B, R):
    """The plane (n, d) in ints, n_z > 0, through three int (x, y, z) points
    whose projections are not collinear."""
    n = _cross3(_sub3(B, A), _sub3(R, A))
    if n[2] < 0:
        n = tuple(-x for x in n)
    return n, _dot3(n, A)


def upper_faces_2d(val):
    """Facets of the upper hull of lifted plane points, by gift wrapping.

    `val` maps each point (x, y) to its int lift and has a full-dimensional
    projection; it is read, never changed.  Returns (corners, planes), one
    entry per facet in the order found: the facet's vertices as `hull2`
    orders them, and its plane (n, d) in ints, n_z > 0, with n . (x, y, lift)
    = d on the facet and < d below it.
    """
    if len(val) >= 30:
        # a point strictly below the chord between its lattice neighbours
        # p - v and p + v is strictly below the hull: on no facet, no corner
        get = val.get
        keep = {}
        for p, z in val.items():
            x, y = p
            for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                lo, hi = get((x - dx, y - dy)), get((x + dx, y + dy))
                if lo is not None and hi is not None and 2 * z < lo + hi:
                    break
            else:
                keep[p] = z
        val = keep
    hull = hull2(val)
    if hull.dim != 2:
        raise ValueError("upper_faces_2d needs a full-dimensional projection")

    # seed with one ccw corner edge: the first piece of the 1-d envelope of
    # the lifts along the first hull edge (a, b), which bounds the facet on
    # its left; every other facet is reached across a shared edge.  The line
    # of a hull edge meets the points only on that edge
    a, b = hull.vertices[:2]
    along = {
        (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1]): p
        for p in val
        if _cross(a, b, p) == 0
    }
    t1 = upper_envelope_1d((t, val[p]) for t, p in along.items())[1][0]
    queue = deque([(a, along[t1])])

    # a queued edge (a, b) is a ccw corner edge of the facet on its left, as
    # adjacent facets share the corners of their common edge: skip known ones,
    # and scan from each edge once, so the wrap ends even on misordered corners
    known = set()
    facets = []
    planes = []
    while queue:
        edge = a, b = queue.popleft()
        if edge in known:
            continue
        known.add(edge)
        (ax, ay), az = a, val[a]
        ux, uy, uz = b[0] - ax, b[1] - ay, val[b] - az
        # n = u x w for the best r so far (w = r - a); r beats it when n . w > 0,
        # and every point left of a -> b seen before is then strictly below it.
        # n_z > 0 for every r left of a -> b, so n2 stays 0 only if there is none
        n0 = n1 = n2 = 0
        on = []  # the points left of a -> b on the best plane so far
        line = []  # the points on the line through a and b, a and b included
        for r, rz in val.items():
            wx, wy = r[0] - ax, r[1] - ay
            nz = ux * wy - uy * wx
            if nz <= 0:
                if nz == 0:
                    line.append(r)
                continue
            wz = rz - az
            if n2:
                s = n0 * wx + n1 * wy + n2 * wz
                if s < 0:
                    continue
                if s == 0:
                    on.append(r)
                    continue
            n0, n1, n2 = uy * wz - uz * wy, uz * wx - ux * wz, nz
            on = [r]
        if n2 == 0:
            continue
        d = n0 * ax + n1 * ay + n2 * az
        on += [p for p in line if n0 * p[0] + n1 * p[1] + n2 * val[p] == d]
        planes.append(((n0, n1, n2), d))
        if len(on) == 3:  # a, b and the one point r left of a -> b: ccw
            corners = (a, b, on[0])
            k = corners.index(min(corners))
            corners = corners[k:] + corners[:k]
        else:
            corners = hull2(on).vertices
        facets.append(corners)
        for u, v in zip(corners, corners[1:] + corners[:1]):
            known.add((u, v))
            queue.append((v, u))
    return facets, planes
