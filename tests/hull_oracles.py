"""Reference implementations of the upper hull, the lattice-point scan, the
Minkowski summand search, Pick's formula, the plane-curve cell structure and
the divisor's constant-weight pieces.

These are the straightforward versions that `troprat` replaced: gift
wrapping that scans every point from every queued edge and drops a facet it
has seen before by its primitive plane, a bounding-box scan that tests each
candidate point against every edge, a summand search that tries every pick
of the product of the edge lengths and walks each summand's edges sorted by
angle, a plane curve whose 1-cells come from re-hulling every 2-cell of the
subdivision, and weighted intervals refined at every endpoint, summed per
interval and merged.  The tests require the library to return what these
return (the hull's facets as their corners and planes, in any order), and
Pick's formula, counted on the bounding-box scan, to agree with
`geom.area2`.  They live apart from `oracles.py`, which the benchmark's
correctness checks import.
"""
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import gcd, lcm

from troprat.core import envelope
from troprat.curve import CurveEdge, CurveLine, CurveRay, PlaneCurve
from troprat.errors import DegenerateInput, DimensionMismatch
from troprat.geom import (
    _angle_cmp,
    _edge_multiset,
    hull2,
    lattice_length,
    minkowski_sum2,
    normalize_origin,
    primitive,
    upper_envelope_1d,
)
from troprat.subdiv import cell_endpoints, dual_subdivision


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def _plane3(A, B, R):
    n = _cross3(_sub3(B, A), _sub3(R, A))
    if n[2] < 0:
        n = tuple(-x for x in n)
    return n, _dot3(n, A)


def _collinear_between(a, b, p) -> bool:
    if _cross(a, b, p) != 0:
        return False
    lo, hi = min(a, b), max(a, b)
    return lo <= p <= hi


def upper_faces_2d(lifted):
    """(facets, planes, corners) of the upper hull, sorted by facet: each
    facet's points, its plane as `geom.upper_faces_2d` gives it for int
    lifts, and its corners as `hull2` orders them."""
    m = lcm(*(c.denominator for _p, c in lifted))
    val = {(p[0], p[1]): c.numerator * (m // c.denominator) for p, c in lifted}
    pts = list(val)
    hull = hull2(pts)
    if hull.dim != 2:
        raise ValueError("upper_faces_2d needs a full-dimensional projection")
    lift3 = {p: (p[0], p[1], val[p]) for p in pts}

    queue = deque()
    for a, b in hull.edges():
        on_edge = {}
        for p in pts:
            if _collinear_between(a, b, p):
                t = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
                on_edge[t] = p
        chain = upper_envelope_1d((t, val[p]) for t, p in on_edge.items())
        for (t0, _), (t1, _) in zip(chain, chain[1:]):
            queue.append((on_edge[t0], on_edge[t1]))

    plane_keys = set()
    facets = []
    planes = []
    vertices = []
    while queue:
        a, b = queue.popleft()
        A, B = lift3[a], lift3[b]
        best = None
        n = d = None
        for r in pts:
            if _cross(a, b, r) <= 0:
                continue
            R = lift3[r]
            if best is None or _dot3(n, R) > d:
                best = r
                n, d = _plane3(A, B, R)
        if best is None:
            continue
        g = gcd(*n)
        key = (n[0] // g, n[1] // g, n[2] // g, d // g)
        if key in plane_keys:
            continue
        plane_keys.add(key)
        facet = frozenset(p for p in pts if _dot3(n, lift3[p]) == d)
        facets.append(facet)
        planes.append(((n[0], n[1], n[2] * m), d))
        corners = hull2(facet).vertices
        vertices.append(corners)
        for i, u in enumerate(corners):
            queue.append((corners[(i + 1) % len(corners)], u))

    order = sorted(range(len(facets)), key=lambda i: tuple(sorted(facets[i])))
    return tuple([out[i] for i in order] for out in (facets, planes, vertices))


def _contains(vs, p) -> bool:
    if len(vs) == 1:
        return p == vs[0]
    if len(vs) == 2:
        return _collinear_between(vs[0], vs[1], p)
    return all(_cross(a, b, p) >= 0 for a, b in zip(vs, vs[1:] + vs[:1]))


def lattice_points(P):
    """Integer points of a lattice polygon, point or segment, sorted, by
    testing every point of the bounding box."""
    vs = [(int(x), int(y)) for x, y in P.vertices]
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if _contains(vs, (x, y))
    ]


def zero_sum_picks(edges):
    """Every pick (t_e in [0, len_e] per edge) of the product of the edge
    lengths whose edge vectors sum to zero, in lexicographic order."""
    for picks in product(*(range(c + 1) for _d, c in edges)):
        sx = sum(d[0] * t for (d, _), t in zip(edges, picks))
        sy = sum(d[1] * t for (d, _), t in zip(edges, picks))
        if sx == 0 and sy == 0:
            yield picks


def _polygon_from_edges(edges):
    """The polygon walked along (direction, length) edges sorted by angle."""
    moves = [(d, c) for d, c in edges if c > 0]
    moves.sort(key=cmp_to_key(lambda A, B: _angle_cmp(A[0], B[0])))
    cur = (0, 0)
    pts = [cur]
    for d, c in moves:
        cur = (cur[0] + d[0] * c, cur[1] + d[1] * c)
        pts.append(cur)
    return hull2(pts)


def summand_decompositions(P):
    """The summand pairs of a lattice polygon, as `geom.summand_decompositions`
    returns them, from every zero-sum pick of the product of the edge lengths."""
    edges = _edge_multiset(P)
    lens = [c for _, c in edges]
    target = normalize_origin(P)
    found = set()
    for picks in zero_sum_picks(edges):
        if all(t == 0 for t in picks) or all(t == c for t, c in zip(picks, lens)):
            continue
        q = normalize_origin(_polygon_from_edges([(d, t) for (d, _), t in zip(edges, picks)]))
        r = normalize_origin(_polygon_from_edges([(d, c - t) for (d, c), t in zip(edges, picks)]))
        pair = tuple(sorted((q, r), key=lambda poly: poly.vertices))
        if pair not in found and minkowski_sum2(q, r) == target:
            found.add(pair)
    return tuple(sorted(found, key=lambda pr: (pr[0].vertices, pr[1].vertices)))


def boundary_lattice_count(P) -> int:
    if P.dim == 0:
        return 1
    if P.dim == 1:
        return lattice_length(*P.vertices) + 1
    return sum(lattice_length(a, b) for a, b in P.edges())


def pick_area(P) -> Fraction:
    """Interior count + boundary/2 - 1; defined as 0 for degenerate polygons."""
    if P.dim < 2:
        return Fraction(0)
    boundary = boundary_lattice_count(P)
    interior = len(lattice_points(P)) - boundary
    return Fraction(interior) + Fraction(boundary, 2) - 1


# ---------------------------------------------------------------------------
# the plane curve from the subdivision's cells, each 2-cell hulled again


def _cell_dim(cell) -> int:
    pts = sorted(cell)
    if len(pts) == 1:
        return 0
    if len(pts) == 2 or len(pts[0]) == 1:
        return 1
    if all(_cross(pts[0], pts[1], p) == 0 for p in pts[2:]):
        return 1
    return 2


def _corners(cell):
    pts = sorted(cell)
    d = _cell_dim(cell)
    if d == 0:
        return [pts[0]]
    if d == 1:
        return [pts[0], pts[-1]]
    return list(hull2(pts).vertices)


def zero_cells(sub) -> frozenset:
    """Vertices of a subdivision: the union of its cells' corners."""
    return frozenset(p for cell in sub.cells for p in _corners(cell))


def _one_cells_of(points, corners):
    """Split a cell boundary into maximal collinear runs of its points."""
    out = []
    k = len(corners)
    for i in range(k):
        u, v = corners[i], corners[(i + 1) % k]
        members = frozenset(p for p in points if _collinear_between(u, v, p))
        out.append(((u, v), members))
    return out


def one_cells(sub):
    """1-cells of a subdivision with the list of top cells containing each."""
    found: dict = {}
    for idx, cell in enumerate(sub.cells):
        if _cell_dim(cell) == 1:
            found.setdefault(cell, []).append(idx)
            continue
        pts = sorted(cell)
        corners = hull2(pts).vertices
        for _ends, members in _one_cells_of(pts, corners):
            found.setdefault(members, []).append(idx)
    return found


def plane_curve(f) -> PlaneCurve:
    """The curve of f, as `curve.plane_curve` returns it, from `one_cells`."""
    if f.arity != 2:
        raise DimensionMismatch("plane_curve needs arity 2")
    if f.is_bottom:
        raise DegenerateInput("V(-inf) is the whole plane, not a curve")
    if f.is_unit:
        raise DegenerateInput("a monomial defines an empty hypersurface")
    env = envelope(f)
    sub = dual_subdivision(f)

    if env.chain is not None:
        coeff = env.vertices
        lines = []
        for cell in sub.cells:
            p, q = cell_endpoints(cell)
            n = (p[0] - q[0], p[1] - q[1])
            delta = coeff[q] - coeff[p]
            nn = n[0] * n[0] + n[1] * n[1]
            base = (Fraction(delta * n[0], nn), Fraction(delta * n[1], nn))
            d = primitive((-n[1], n[0]))
            lines.append(CurveLine(base, d, lattice_length(p, q), cell))
        lines.sort(key=lambda L: (L.direction, L.base))
        return PlaneCurve((), (), (), tuple(lines))

    vertex_of = {
        cell: (Fraction(n[0], n[2]), Fraction(n[1], n[2]))
        for cell, (n, _d) in env.cells()
    }
    edges = []
    rays = []
    for one_cell, parents in one_cells(sub).items():
        u, v = cell_endpoints(one_cell)
        w = lattice_length(u, v)
        if len(parents) == 2:
            p1 = vertex_of[sub.cells[parents[0]]]
            p2 = vertex_of[sub.cells[parents[1]]]
            a, b = sorted((p1, p2))
            edges.append(CurveEdge(a, b, w, one_cell))
        else:
            cell = sub.cells[parents[0]]
            base = vertex_of[cell]
            n = primitive((-(v[1] - u[1]), v[0] - u[0]))
            probe = next(p for p in cell if _cross(u, v, p) != 0)
            if n[0] * (probe[0] - u[0]) + n[1] * (probe[1] - u[1]) > 0:
                n = (-n[0], -n[1])
            rays.append(CurveRay(base, n, w, one_cell))
    vertices = tuple(sorted(set(vertex_of.values())))
    edges.sort(key=lambda e: (e.a, e.b))
    rays.sort(key=lambda r: (r.direction, r.base))
    return PlaneCurve(vertices, tuple(edges), tuple(rays), ())


def canonical_pieces(raw):
    """Refine raw (lo, hi, w) intervals on one line into maximal constant-
    weight pieces: split at all endpoints, add, merge, drop zeros."""
    ends = sorted({t for lo, hi, _ in raw for t in (lo, hi) if t is not None})
    if not ends:
        total = sum(w for lo, hi, w in raw)
        return [(None, None, total)] if total else []
    bounds = [None] + ends + [None]
    weighted = []
    for lo, hi in zip(bounds, bounds[1:]):
        w = 0
        for plo, phi, pw in raw:
            if (plo is None or (lo is not None and plo <= lo)) and (
                phi is None or (hi is not None and hi <= phi)
            ):
                w += pw
        weighted.append([lo, hi, w])
    merged = []
    for lo, hi, w in weighted:
        if merged and merged[-1][2] == w and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, w])
    return [(lo, hi, w) for lo, hi, w in merged if w != 0]
