"""The duality theorem on random pairs: a point (x, t) lies on the hypersurface
of f + (y * g) exactly when t = phi(x), or x is on V(f) with t below phi(x),
or x is on V(g) with t above it.

The integer `graph_duality_check` and `duality_samples` are compared with the
`TropNum` versions they replaced (kept in `duality_reference`), and every
report with one computed term by term from `oracles.max_and_hits`, on
sampled points and on points built on the roots, vertices and edges of V(f)
and V(g)."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import duality_reference as reference
from oracles import max_and_hits
from troprat import TropError, TropPoly, curve, plane_curve, stack_pair, uni_roots
from troprat.core import envelope
from troprat.curve import DualityReport, duality_samples, graph_duality_check

DUALITY = settings(max_examples=120, deadline=None)

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6)),
)


def polys(arity):
    exponent = st.tuples(*[st.integers(-1, 3)] * arity)
    return st.dictionaries(exponent, coefficients, min_size=1, max_size=5).map(
        lambda terms: TropPoly(arity, terms)
    )


# (f, g) of arity 1 or 2; f is sometimes -inf, g never
pairs = st.sampled_from([1, 2]).flatmap(
    lambda n: st.tuples(st.one_of(st.just(TropPoly.zero(n)), polys(n)), polys(n))
)


def oracle_report(f, g, points) -> DualityReport:
    """The report from term-by-term Fraction maxima: membership from the
    stacked polynomial, the three cases from f and g."""
    stacked = stack_pair(f, g)
    counts = [0, 0, 0, 0]
    violations = []
    for pt in points:
        x, t = pt[:-1], pt[-1]
        member = max_and_hits(stacked, pt)[1] >= 2
        top_f, hits_f = max_and_hits(f, x)
        top_g, hits_g = max_and_hits(g, x)
        if top_f is None:
            cases = (False, False, hits_g >= 2)
        else:
            phi = top_f - top_g
            cases = (t == phi, t < phi and hits_f >= 2, t > phi and hits_g >= 2)
        for k, hit in enumerate(cases + (member,)):
            counts[k] += hit
        if member != any(cases):
            violations.append((pt, member) + cases)
    return DualityReport(len(points), *counts, tuple(violations))


def tie_points(f, g):
    """Points x on the ties of f and g: the roots of a univariate one, the
    vertices, edge midpoints and line anchors of a plane curve."""
    xs = []
    for h in (f, g):
        if h.is_bottom or h.is_unit:
            continue
        if h.arity == 1:
            xs += [(r,) for r, _mult in envelope(h).roots]
            continue
        try:
            C = plane_curve(h)
        except TropError:
            continue
        xs += list(C.vertices) + [L.base for L in C.lines]
        xs += [((e.a[0] + e.b[0]) / 2, (e.a[1] + e.b[1]) / 2) for e in C.edges]
    return xs


def heights(f, g, x):
    """t on the graph of phi at x and just above and below it."""
    top_f, top_g = max_and_hits(f, x)[0], max_and_hits(g, x)[0]
    phi = Fraction(0) if top_f is None else top_f - top_g
    return [phi + d for d in (Fraction(-1), Fraction(-1, 7), 0, Fraction(1, 7), 1)]


@DUALITY
@given(pairs, st.integers(0, 2**31 - 1))
def test_sampled_points_match_the_reference_and_the_oracle(pair, seed):
    f, g = pair
    samples = duality_samples(f, g, 40, seed)
    assert samples == reference.duality_samples(f, g, 40, seed)
    assert all(type(v) is Fraction for pt in samples for v in pt)
    report = graph_duality_check(f, g, samples)
    assert report == reference.graph_duality_check(f, g, samples)
    assert report == oracle_report(f, g, samples)
    assert report.ok


@DUALITY
@given(pairs)
def test_points_on_the_ties_match_the_reference_and_the_oracle(pair):
    f, g = pair
    points = [x + (t,) for x in tie_points(f, g) for t in heights(f, g, x)]
    report = graph_duality_check(f, g, points)
    assert report == reference.graph_duality_check(f, g, points)
    assert report == oracle_report(f, g, points)
    assert report.ok


def test_membership_comes_from_the_stacked_polynomial(monkeypatch):
    """The check is not tautological: a wrong stacked polynomial shows up
    as violations."""
    f, g = TropPoly(1, {(0,): 0, (1,): 0}), TropPoly(1, {(0,): 1, (1,): 0})
    samples = duality_samples(f, g, 50, 7)
    assert graph_duality_check(f, g, samples).ok
    monkeypatch.setattr(curve, "stack_pair", lambda f, g: stack_pair(f.scale(1), g))
    assert not graph_duality_check(f, g, samples).ok


def _vertical_rays(C, dy):
    """{x: weight} of the rays of C pointing straight down (dy = -1) or up."""
    return {r.base[0]: r.weight for r in C.rays if r.direction == (0, dy)}


@settings(max_examples=150, deadline=None)
@given(polys(1), polys(1))
def test_univariate_duality_read_off_the_stacked_curve(f, g):
    """V(f + y*g) for arity 1, from the 2-d hull: rays down at the roots of f
    and up at the roots of g, weighted by multiplicity (read from the 1-d
    envelope), and every other piece on the graph of phi = f - g."""
    C = plane_curve(stack_pair(f, g))
    assert _vertical_rays(C, -1) == dict(uni_roots(f))
    assert _vertical_rays(C, 1) == dict(uni_roots(g))
    ends = [(e.a, e.b) for e in C.edges]
    for r in C.rays:
        if r.direction[0]:
            ends.append((r.base, tuple(b + d for b, d in zip(r.base, r.direction))))
    for L in C.lines:
        ends.append(tuple(tuple(b + s * d for b, d in zip(L.base, L.direction)) for s in (-1, 1)))
    for a, b in ends:
        for x, y in (a, b, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)):
            assert y == max_and_hits(f, (x,))[0] - max_and_hits(g, (x,))[0], (f, g, a, b)
