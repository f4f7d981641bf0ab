"""Property tests for the fraction-free kernel: exact evaluation and tie
counts against the term-by-term Fraction loop in `oracles`, the integer
upper hull against its defining properties, and the int-over-one-denominator
representation (arithmetic, equality, hashing) against the Fraction
arithmetic kept in `oracles`."""
from fractions import Fraction
from functools import reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from troprat import TropPoly, canonicalize, geom, hypersurface_member, plane_curve, uni_roots
from troprat.rep import _residual
from conftest import cleared_lifts
from oracles import max_and_hits, poly_add, poly_mul, poly_scale, poly_shift, residual

BIG_DEN = 10**9
KERNEL = settings(max_examples=150, deadline=None)

rationals = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12),
    st.integers(1, BIG_DEN),
)
small_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def exponents(arity):
    return st.tuples(*[st.integers(-4, 4)] * arity)


def laurent_polys(arity, coefficients=rationals, min_size=1, max_size=8):
    return st.dictionaries(
        exponents(arity), coefficients, min_size=min_size, max_size=max_size
    ).map(lambda terms: TropPoly(arity, terms))


def points(arity):
    return st.tuples(*[st.one_of(st.integers(-50, 50), rationals)] * arity)


def _agrees(f, p):
    best, hits = max_and_hits(f, p)
    assert f(p).value == best
    assert hypersurface_member(f, p) == (hits >= 2)
    return hits


@KERNEL
@given(st.data())
def test_eval_and_membership_match_fraction_loop(data):
    arity = data.draw(st.sampled_from([1, 2, 3, 4]))
    f = data.draw(laurent_polys(arity))
    _agrees(f, data.draw(points(arity)))


def _locus_points(f):
    """Points of V(f): univariate roots, or curve vertices, edge midpoints
    and line anchors of a plane curve."""
    if f.arity == 1:
        return [(r,) for r, _mult in uni_roots(f)]
    C = plane_curve(f)
    mids = [tuple((a + b) / 2 for a, b in zip(e.a, e.b)) for e in C.edges]
    return list(C.vertices) + mids + [L.base for L in C.lines]


@KERNEL
@given(st.data())
def test_ties_on_the_locus_match_fraction_loop(data):
    arity = data.draw(st.sampled_from([1, 2]))
    f = data.draw(laurent_polys(arity).filter(lambda f: len(f) >= 2))
    on = _locus_points(f)
    for p in on:
        assert _agrees(f, p) >= 2, (f, p)
    for p in on[:3]:  # just off the locus
        _agrees(f, (p[0] + Fraction(1, BIG_DEN),) + tuple(p[1:]))


def lifted_sets():
    """((x, y), value) lists with a full-dimensional projection."""
    pts = st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=14, unique=True
    ).filter(lambda ps: geom.hull2(ps).dim == 2)
    return pts.flatmap(
        lambda ps: st.lists(
            st.one_of(small_rationals, rationals), min_size=len(ps), max_size=len(ps)
        ).map(lambda cs: list(zip(ps, cs)))
    )


@KERNEL
@given(lifted_sets(), st.integers(1, BIG_DEN))
def test_facets_invariant_under_positive_scaling(lifted, r):
    # n . (x, y, z) = d on a facet of the lift z is (r n0, r n1, n2) . (x, y, r z)
    # = r d on the same facet of the lift r z
    val = cleared_lifts(lifted)
    corners, planes = geom.upper_faces_2d(val)
    scaled, scaled_planes = geom.upper_faces_2d({p: z * r for p, z in val.items()})
    want = [(cs, ((r * n0, r * n1, n2), r * d)) for cs, ((n0, n1, n2), d) in zip(corners, planes)]
    assert sorted(zip(scaled, scaled_planes)) == sorted(want)


@KERNEL
@given(lifted_sets())
def test_planes_hold_for_the_given_values(lifted):
    val = cleared_lifts(lifted)
    corners, planes = geom.upper_faces_2d(val)
    for cs, (n, d) in zip(corners, planes):
        assert all(isinstance(x, int) for x in (*n, d)) and n[2] > 0
        assert geom.hull2(cs).vertices == cs
        for p, z in val.items():
            h = n[0] * p[0] + n[1] * p[1] + n[2] * z
            # on the plane at every corner and only inside the corners'
            # polygon, strictly below it elsewhere
            assert h <= d
            if p in cs:
                assert h == d
            if h == d:
                assert geom.hull2(cs + (p,)).vertices == cs
    # the corner polygons tile the projected hull
    area = sum(geom.area2(geom.Polygon(cs)) for cs in corners)
    assert area == geom.area2(geom.hull2(val))


def _matches(p, terms):
    """p has exactly the oracle's terms, in sorted order, and is the same
    polynomial (equal and equally hashed) as one built from those terms."""
    assert p.items() == tuple(sorted(terms.items()))
    q = TropPoly(p.arity, terms)
    assert p == q and hash(p) == hash(q)


@KERNEL
@given(st.data())
def test_arithmetic_matches_fraction_oracles(data):
    # arity 2 runs the unpacked product loop, arities 1 and 3 the generic one
    arity = data.draw(st.sampled_from([1, 2, 3]))
    f = data.draw(laurent_polys(arity, min_size=0))
    g = data.draw(laurent_polys(arity, min_size=0))
    c = data.draw(st.one_of(st.integers(-50, 50), rationals))
    v = data.draw(exponents(arity))
    _matches(f + g, poly_add(f, g))
    _matches(f * g, poly_mul(f, g))
    _matches(f.shift(v), poly_shift(f, v))
    _matches(f.scale(c), poly_scale(f, c))


@KERNEL
@given(st.data())
def test_residual_matches_fraction_oracle(data):
    arity = data.draw(st.sampled_from([1, 2]))
    fc = canonicalize(data.draw(laurent_polys(arity)))
    g = data.draw(laurent_polys(arity, max_size=3))
    h = _residual(fc, g)
    want = residual(fc, canonicalize(g))
    if want is None:
        assert h is None
    else:
        _matches(h, want)


@KERNEL
@given(st.data())
def test_equal_polynomials_by_different_routes(data):
    arity = data.draw(st.sampled_from([1, 2]))
    p = data.draw(laurent_polys(arity, min_size=0))
    q = data.draw(laurent_polys(arity))
    c = data.draw(rationals)
    routes = [
        p,
        p.scale(Fraction(1, 2)).scale(Fraction(1, 2)).scale(-1),
        p.scale(c).scale(-c),
        p + p,
        p.shift((1,) * arity).shift((-1,) * arity),
        TropPoly(arity, dict(p.items())),
    ]
    for r in routes:
        assert r == p and hash(r) == hash(p)
    half = p.scale(Fraction(1, 2)).scale(Fraction(1, 2))
    assert half == p.scale(1) and hash(half) == hash(p.scale(1))
    assert (p * q).scale(c) == p * q.scale(c) == p.scale(c) * q
    assert hash((p * q).scale(c)) == hash(p.scale(c) * q)


@KERNEL
@given(st.data())
def test_pow_is_repeated_product(data):
    arity = data.draw(st.sampled_from([1, 2]))
    f = data.draw(laurent_polys(arity, max_size=4))
    k = data.draw(st.integers(1, 6))
    assert f**k == reduce(mul, [f] * k)
    assert f**0 == TropPoly.constant(arity, 0)


@KERNEL
@given(st.data())
def test_canonicalize_is_idempotent(data):
    arity = data.draw(st.sampled_from([1, 2]))
    f = data.draw(laurent_polys(arity))
    fc = canonicalize(f)
    assert canonicalize(fc) == fc
    # rebuilt from its terms, so the envelope is computed afresh
    rebuilt = TropPoly(arity, dict(fc.items()))
    assert canonicalize(rebuilt) == fc and hash(canonicalize(rebuilt)) == hash(fc)
