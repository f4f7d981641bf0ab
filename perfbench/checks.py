"""Correctness oracles that do not share code with the library's hull,
subdivision or factorization search.

`tests/oracles.py` supplies `region_count`, `envelope_value` and
`sample_grid`; this module adds a lattice-polygon helper, an upper-hull vertex
count built on `envelope_value`, the exact factorization count of an
all-zero-coefficient polynomial, and evaluation-based identities.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from troprat import TropPoly

from oracles import envelope_value, region_count, sample_grid  # tests/oracles.py


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Counterclockwise convex hull without collinear points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    out = lower[:-1] + upper[:-1]
    return out if len(out) > 2 else [pts[0], pts[-1]]


def edge_multiset(points):
    """Boundary of conv(points) as (primitive direction, lattice length);
    a segment counts as two opposite edges."""
    vs = hull(points)
    if len(vs) < 2:
        return []
    pairs = [(vs[0], vs[1]), (vs[1], vs[0])] if len(vs) == 2 else list(zip(vs, vs[1:] + vs[:1]))
    out = []
    for a, b in pairs:
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(dx, dy)
        out.append(((dx // g, dy // g), g))
    return out


def lattice_count(points) -> int:
    """Lattice points of conv(points) in Z^1 or Z^2 (Pick's theorem)."""
    if len(next(iter(points))) == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs) + 1
    vs = hull(points)
    if len(vs) == 1:
        return 1
    boundary = sum(length for _, length in edge_multiset(points))
    if len(vs) == 2:
        return boundary // 2 + 1
    twice_area = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(vs, vs[1:] + vs[:1]))
    # Pick: A = I + B/2 - 1, so I + B = A + B/2 + 1
    return (twice_area + boundary) // 2 + 1


def vertex_count(f: TropPoly) -> int:
    """Linear regions of f: terms lying strictly above the upper envelope of
    the other terms, by brute force over segments and triangles."""
    items = dict(f.items())
    count = 0
    for e, c in items.items():
        rest = TropPoly(f.arity, {k: v for k, v in items.items() if k != e})
        env = envelope_value(rest, e) if len(rest) else None
        if env is None or c > env:
            count += 1
    return count


def summand_choices(points):
    """(edge lengths, every nonzero choice t_e <= len_e with sum t_e * d_e = 0):
    the lattice Minkowski summands of conv(points), the trivial one included."""
    edges = edge_multiset(points)
    full = tuple(length for _, length in edges)
    closed = [
        t
        for t in product(*(range(length + 1) for length in full))
        if any(t)
        and sum(k * d[0] for k, (d, _) in zip(t, edges)) == 0
        and sum(k * d[1] for k, (d, _) in zip(t, edges)) == 0
    ]
    return full, closed


def max_ties(f: TropPoly, point) -> int:
    """How many terms attain max_e (c_e + e.point), in integer arithmetic."""
    den = lcm(*(c.denominator for _, c in f.items()), *(Fraction(x).denominator for x in point))
    q = [int(x * den) for x in point]
    vals = [int(c * den) + sum(i * x for i, x in zip(e, q)) for e, c in f.items()]
    return vals.count(max(vals))


def factorization_count(points) -> int:
    """Number of factorizations `enumerate_factorizations` must report for an
    all-zero-coefficient polynomial with support `points`: the multisets of
    Minkowski-indecomposable lattice summands of its Newton polygon, plus the
    trivial factorization when the polygon decomposes.

    A summand is a choice t_e <= len_e of every primitive edge with
    sum t_e * d_e = 0; the indecomposable ones are the minimal nonzero choices.
    """
    full, closed = summand_choices(points)
    minimal = [
        t for t in closed
        if not any(u != t and all(a <= b for a, b in zip(u, t)) for u in closed)
    ]

    @lru_cache(maxsize=None)
    def count(rest, i):
        if not any(rest):
            return 1
        if i == len(minimal):
            return 0
        total = count(rest, i + 1)
        m = minimal[i]
        while all(a >= b for a, b in zip(rest, m)):
            rest = tuple(a - b for a, b in zip(rest, m))
            total += count(rest, i + 1)
        return total

    return count(full, 0) + (0 if full in minimal else 1)


def grid_values(polys, arity):
    """Exact max-plus values of each polynomial on `sample_grid(arity)`, all
    scaled by one common denominator so that only integers are compared.

    Returns (scaled grid points, [scaled values per polynomial])."""
    pts = sample_grid(arity)
    den = lcm(*(c.denominator for h in polys for _, c in h.items()),
              *(Fraction(x).denominator for p in pts for x in p))
    scaled = [tuple(int(x * den) for x in p) for p in pts]
    out = []
    for h in polys:
        terms = [(e, int(c * den)) for e, c in h.items()]
        out.append([max(c + sum(i * x for i, x in zip(e, q)) for e, c in terms) for q in scaled])
    return scaled, out


def affine_integer_difference(f: TropPoly, factors) -> bool:
    """True iff f - (product of the factors) is c + m.x with integer m on
    the test grid, i.e. the product equals f up to a tropical unit there."""
    pts, (vf, *vs) = grid_values([f, *factors], f.arity)
    # den * (f - product) must equal den*c + m . (den * x)
    diff = [a - sum(b) for a, b in zip(vf, zip(*vs))]
    slope = []
    for axis in range(f.arity):
        j = next(j for j, p in enumerate(pts) if p[axis] != pts[0][axis]
                 and all(p[k] == pts[0][k] for k in range(f.arity) if k != axis))
        rise, run = diff[j] - diff[0], pts[j][axis] - pts[0][axis]
        if rise % run:
            return False
        slope.append(rise // run)
    return all(
        d == diff[0] + sum(m * (p[k] - pts[0][k]) for k, m in enumerate(slope))
        for d, p in zip(diff, pts)
    )


def canon(x):
    """JSON-ready canonical form of a library result (sets sorted)."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, TropPoly):
        return [canon(item) for item in x.items()]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(i) for i in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(i) for i in x]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    """Short digest of canonical output, compared against the golden file."""
    data = x if isinstance(x, bytes) else json.dumps(canon(x), separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def multiset_difference(a, b) -> int:
    """Size of the multiset difference a - b."""
    return sum((Counter(a) - Counter(b)).values())
