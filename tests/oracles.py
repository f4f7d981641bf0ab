"""Independent oracles used by the test suite.

These deliberately avoid the library's subdivision/envelope code paths:
regions are counted by sampling gradients at points steered by the tie lines,
and envelope values come from brute-force convex combinations.
"""
from fractions import Fraction
from itertools import combinations

from troprat import TropPoly


def unique_gradient(f: TropPoly, point):
    """The exponent achieving the maximum uniquely at `point`, else None."""
    best = None
    arg = None
    count = 0
    for e, c in f.items():
        v = c + sum(i * x for i, x in zip(e, point))
        if best is None or v > best:
            best, arg, count = v, e, 1
        elif v == best:
            count += 1
    return arg if count == 1 else None


def max_and_hits(f: TropPoly, point):
    """(max, number of terms attaining it) of the defining max of f at
    `point`, in Fraction arithmetic term by term; max is None for -inf."""
    p = tuple(Fraction(x) for x in point)
    best = None
    hits = 0
    for e, c in f.items():
        v = c + sum(i * x for i, x in zip(e, p))
        if best is None or v > best:
            best, hits = v, 1
        elif v == best:
            hits += 1
    return best, hits


def _region_count_1d(f: TropPoly) -> int:
    items = f.items()
    if len(items) == 1:
        return 1
    ties = sorted(
        {
            Fraction(c2 - c1, e1[0] - e2[0])
            for (e1, c1), (e2, c2) in combinations(items, 2)
            if e1 != e2
        }
    )
    candidates = [ties[0] - 1, ties[-1] + 1]
    candidates += [Fraction(a + b, 2) for a, b in zip(ties, ties[1:])]
    seen = {unique_gradient(f, (t,)) for t in candidates}
    return len(seen - {None})


def _tie_lines(items):
    lines = {}
    for (e1, c1), (e2, c2) in combinations(items, 2):
        n = (e1[0] - e2[0], e1[1] - e2[1])
        if n == (0, 0):
            continue
        d = Fraction(c2 - c1)
        from math import gcd

        g = gcd(abs(n[0]), abs(n[1]))
        n, d = (n[0] // g, n[1] // g), d / g
        if n[0] < 0 or (n[0] == 0 and n[1] < 0):
            n, d = (-n[0], -n[1]), -d
        lines[(n, d)] = (n, d)
    return list(lines)


def _region_count_2d(f: TropPoly) -> int:
    items = f.items()
    if len(items) == 1:
        return 1
    lines = _tie_lines(items)
    samples = []
    for n, d in lines:
        nn = n[0] * n[0] + n[1] * n[1]
        anchor = (Fraction(d * n[0], nn), Fraction(d * n[1], nn))
        u = (-n[1], n[0])
        ts = set()
        for n2, d2 in lines:
            denom = n2[0] * u[0] + n2[1] * u[1]
            if denom == 0:
                continue
            ts.add(Fraction(d2 - n2[0] * anchor[0] - n2[1] * anchor[1], denom))
        ts = sorted(ts)
        cands = [Fraction(0)] if not ts else (
            [ts[0] - 1, ts[-1] + 1] + [Fraction(a + b, 2) for a, b in zip(ts, ts[1:])]
        )
        for t in cands:
            q = (anchor[0] + t * u[0], anchor[1] + t * u[1])
            eps = Fraction(1, 4)
            for n2, d2 in lines:
                denom = n2[0] * n[0] + n2[1] * n[1]
                if denom == 0:
                    continue
                s = Fraction(d2 - n2[0] * q[0] - n2[1] * q[1], denom)
                if s != 0:
                    eps = min(eps, abs(s) / 2)
            samples.append((q[0] + eps * n[0], q[1] + eps * n[1]))
            samples.append((q[0] - eps * n[0], q[1] - eps * n[1]))
    seen = {unique_gradient(f, p) for p in samples}
    return len(seen - {None})


def region_count(f: TropPoly) -> int:
    """Number of linear regions, by gradient fingerprinting at sample points
    chosen along and beside every tie line (hits every region exactly)."""
    if f.arity == 1:
        return _region_count_1d(f)
    if f.arity == 2:
        return _region_count_2d(f)
    raise ValueError("oracle supports arity 1 and 2")


def envelope_value(f: TropPoly, q) -> Fraction | None:
    """Upper concave envelope of the lifted support at lattice point q, by
    brute force over convex combinations of up to three support points."""
    items = f.items()
    best = None

    def consider(v):
        nonlocal best
        if best is None or v > best:
            best = v

    for e, c in items:
        if e == tuple(q):
            consider(Fraction(c))
    for (a, ca), (b, cb) in combinations(items, 2):
        ab = (b[0] - a[0], b[1] - a[1]) if len(a) == 2 else (b[0] - a[0],)
        aq = tuple(x - y for x, y in zip(q, a))
        if len(a) == 2 and ab[0] * aq[1] - ab[1] * aq[0] != 0:
            continue
        denom = sum(x * x for x in ab)
        if denom == 0:
            continue
        t = Fraction(sum(x * y for x, y in zip(aq, ab)), denom)
        if 0 <= t <= 1 and all(Fraction(x) == t * y for x, y in zip(aq, ab)):
            consider(Fraction(ca) + t * (cb - ca))
    if len(q) == 2:
        for (a, ca), (b, cb), (c, cc) in combinations(items, 3):
            det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if det == 0:
                continue
            l1 = Fraction(
                (q[0] - a[0]) * (c[1] - a[1]) - (q[1] - a[1]) * (c[0] - a[0]), det
            )
            l2 = Fraction(
                (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]), det
            )
            l0 = 1 - l1 - l2
            if l0 >= 0 and l1 >= 0 and l2 >= 0:
                consider(l0 * ca + l1 * cb + l2 * cc)
    return best


def sample_grid(arity: int, radius: int = 5, denominator: int = 3):
    """A deterministic rational grid for pointwise cross-checks."""
    axis = [Fraction(i, denominator) for i in range(-radius * denominator, radius * denominator + 1, 2)]
    if arity == 1:
        return [(t,) for t in axis]
    coarse = [Fraction(i, 2) for i in range(-2 * radius, 2 * radius + 1, 3)]
    return [(a, b) for a in coarse for b in coarse]


def on_curve(C, point) -> bool:
    """Exact membership of a point in the support of a plane curve."""
    px, py = Fraction(point[0]), Fraction(point[1])

    def collinear(a, b):
        return (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) == 0

    for e in C.edges:
        if collinear(e.a, e.b):
            lo, hi = sorted((e.a, e.b))
            if lo <= (px, py) <= hi:
                return True
    for r in C.rays:
        tip = (r.base[0] + r.direction[0], r.base[1] + r.direction[1])
        if collinear(r.base, tip):
            t = (px - r.base[0]) * r.direction[0] + (py - r.base[1]) * r.direction[1]
            if t >= 0:
                return True
    for L in C.lines:
        tip = (L.base[0] + L.direction[0], L.base[1] + L.direction[1])
        if collinear(L.base, tip):
            return True
    return False


# The term-by-term Fraction arithmetic of TropPoly before it stored ints over
# one denominator.  Each takes polynomials and returns the term map
# {exponent: Fraction} of the result.


def poly_add(f: TropPoly, g: TropPoly) -> dict:
    terms = dict(f.items())
    for e, c in g.items():
        cur = terms.get(e)
        if cur is None or c > cur:
            terms[e] = c
    return terms


def poly_mul(f: TropPoly, g: TropPoly) -> dict:
    terms: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 + c2
            cur = terms.get(e)
            if cur is None or c > cur:
                terms[e] = c
    return terms


def poly_shift(f: TropPoly, v) -> dict:
    return {tuple(a + b for a, b in zip(e, v)): c for e, c in f.items()}


def poly_scale(f: TropPoly, c) -> dict:
    return {e: cc + Fraction(c) for e, cc in f.items()}


def residual(fc: TropPoly, gc: TropPoly) -> dict | None:
    """The maximal h with g*h <= f pointwise, for canonical fc and gc: min over
    the support of gc of fc(k + i) - gc(i), on the shifts k that keep the
    support of gc inside that of fc; None when there is no such shift."""
    shifts = None
    for i in gc.support:
        ks = {tuple(a - b for a, b in zip(e, i)) for e in fc.support}
        shifts = ks if shifts is None else shifts & ks
        if not shifts:
            return None
    return {
        k: min(
            fc.coeff(tuple(a + b for a, b in zip(k, i))) - gc.coeff(i)
            for i in gc.support
        )
        for k in shifts
    }
