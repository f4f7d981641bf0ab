"""The duality check and sampler as they were before the integer rewrite:
every value a `TropNum`, every point coerced per evaluation, and stacked
membership through `hypersurface_member`.  Used only by `test_duality.py` as
the reference the integer versions must reproduce exactly."""
from fractions import Fraction
import random

from troprat.core import TropNum, TropPoly, as_q, envelope, stack_pair
from troprat.curve import DualityReport, hypersurface_member, plane_curve
from troprat.errors import TropError


def _rand_q(rng: random.Random, span: int = 8, max_den: int = 64) -> Fraction:
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * d, span * d), d)


def _locus_pieces(f: TropPoly):
    """Sampleable pieces of V(f), or an empty list when V(f) is trivial."""
    if f.is_bottom or f.is_unit:
        return []
    if f.arity == 1:
        return [("root", (r,)) for r, _mult in envelope(f).roots]
    try:
        C = plane_curve(f)
    except TropError:
        return []
    return (
        [("edge", e) for e in C.edges]
        + [("ray", r) for r in C.rays]
        + [("line", L) for L in C.lines]
    )


def _locus_point(pieces, rng: random.Random):
    """A random rational point from precomputed locus pieces."""
    if not pieces:
        return None
    kind, obj = pieces[rng.randrange(len(pieces))]
    if kind == "root":
        return obj
    if kind == "edge":
        t = Fraction(rng.randint(0, 16), 16)
        return (
            obj.a[0] + t * (obj.b[0] - obj.a[0]),
            obj.a[1] + t * (obj.b[1] - obj.a[1]),
        )
    t = Fraction(rng.randint(0, 64), 8) if kind == "ray" else Fraction(rng.randint(-64, 64), 8)
    return (obj.base[0] + t * obj.direction[0], obj.base[1] + t * obj.direction[1])


def graph_duality_check(f: TropPoly, g: TropPoly, samples) -> DualityReport:
    stacked = stack_pair(f, g)
    graph = below = above = member_hits = 0
    violations = []
    total = 0
    for pt in samples:
        pt = tuple(as_q(x) for x in pt)
        total += 1
        x, t = pt[:-1], TropNum(pt[-1])
        member = hypersurface_member(stacked, pt)
        phi = f(x) / g(x)
        on_graph = (not phi.is_bottom) and t == phi
        on_f = t < phi and hypersurface_member(f, x)
        on_g = t > phi and hypersurface_member(g, x)
        graph += on_graph
        below += on_f
        above += on_g
        member_hits += member
        if member != (on_graph or on_f or on_g):
            violations.append((pt, member, on_graph, on_f, on_g))
    return DualityReport(total, graph, below, above, member_hits, tuple(violations))


def duality_samples(f: TropPoly, g: TropPoly, count: int, seed: int):
    rng = random.Random(seed)
    n = f.arity
    num_pieces = _locus_pieces(f)
    den_pieces = _locus_pieces(g)
    out = []
    while len(out) < count:
        mode = len(out) % 5
        x = tuple(_rand_q(rng) for _ in range(n))
        phi = f(x) / g(x) if mode in (0, 4) else None
        if mode == 0 and not phi.is_bottom:
            out.append(x + (phi.value,))
            continue
        if mode == 2:
            p = _locus_point(num_pieces, rng)
            if p is not None:
                v = f(p) / g(p)
                if not v.is_bottom:
                    out.append(p + (v.value - 1 - abs(_rand_q(rng, span=2)),))
                    continue
        if mode == 3:
            p = _locus_point(den_pieces, rng)
            if p is not None:
                v = f(p) / g(p)
                base = v.value if not v.is_bottom else Fraction(0)
                out.append(p + (base + 1 + abs(_rand_q(rng, span=2)),))
                continue
        if mode == 4 and not phi.is_bottom:
            eps = Fraction(1, rng.randint(2, 64))
            out.append(x + (phi.value + (eps if rng.random() < 0.5 else -eps),))
            continue
        out.append(x + (_rand_q(rng),))
    return out
