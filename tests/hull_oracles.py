"""Reference implementations of the upper hull, the lattice-point scan and
the Minkowski summand search.

These are the straightforward versions that `troprat.geom` replaced: gift
wrapping that scans every point from every queued edge and drops a facet it
has seen before by its primitive plane, a bounding-box scan that tests each
candidate point against every edge, and a summand search that tries every
pick of the product of the edge lengths.  The tests require the library to
return exactly what these return.  They live apart from `oracles.py`, which
the benchmark's correctness checks import.
"""
from collections import deque
from itertools import product
from math import gcd, lcm

from troprat.geom import (
    _edge_multiset,
    _polygon_from_edges,
    hull2,
    minkowski_sum2,
    normalize_origin,
    upper_envelope_1d,
)


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
    """(facets, planes, corners) of the upper hull, as `geom.upper_faces_2d`
    returns them."""
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
