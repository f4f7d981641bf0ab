"""The factorization search against the straightforward versions it replaced:
the summand pairs against trying every pick of the edge product (kept in
`hull_oracles`), the residuation seeded from a summand's vertices against the
all-zero seed on its lattice points, the integer memo key and
`unit_normalize` against the old `unit_normalize` (the key read through
`items()`), and the two-round splits against the three-round search, both
kept in `factor_reference`.
Residuation by a canonical fc applied three times equals it applied once,
which is why two rounds suffice."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import factor_reference
import hull_oracles
from troprat import PolygonTooLarge, TropPoly, canonicalize, geom, trop_mul
from troprat.rep import _residual, _seeded_residual, _splits, _unit_key, unit_normalize

SEARCH = settings(max_examples=200, deadline=None)


def polygons(box, scale=1):
    """Points, segments, triangles and quadrilaterals with vertices in [0, box]^2,
    dilated by a factor up to `scale`."""
    corner = st.tuples(st.integers(0, box), st.integers(0, box))
    return st.builds(
        lambda corners, k: geom.hull2([(k * x, k * y) for x, y in corners]),
        st.lists(corner, min_size=1, max_size=4),
        st.integers(1, scale),
    )


def edge_sum(P):
    return sum(c for _d, c in geom._edge_multiset(P))


@SEARCH
@given(
    polygons(6, scale=6).filter(lambda P: P.dim > 0 and edge_sum(P) <= 24),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_summand_pairs_match_the_product_search(P, v):
    edges = geom._edge_multiset(P)
    lens = tuple(c for _d, c in edges)
    # a pick and its complement give the same pair: the walk keeps the smaller
    want_picks = [
        p for p in hull_oracles.zero_sum_picks(edges)
        if p <= tuple(c - t for c, t in zip(lens, p))
    ]
    assert list(geom._zero_sum_picks(edges)) == want_picks
    want = hull_oracles.summand_decompositions(P)
    got = geom.summand_decompositions(P)
    assert got == want
    # the summands' edges merge into P's, and both sit at their lex-min vertex
    target = geom.normalize_origin(P)
    assert all(geom.minkowski_sum2(q, r) == target for q, r in got)
    # summands are normalized to the origin, so a translated copy has the same pairs
    assert geom.summand_decompositions(P.translate(v)) == want


@pytest.mark.parametrize(
    "corners",
    [
        [(0, 0), (12, 0)],  # a segment at the edge-sum bound
        [(0, 0), (8, 0), (0, 8)],  # a triangle at the bound
        [(0, 0), (6, 0), (6, 6), (0, 6)],  # a square at the bound
        [(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2)],  # a hexagon
        [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],  # an octagon
    ],
)
def test_summand_pairs_of_fixed_polygons(corners):
    P = geom.hull2(corners)
    assert geom.summand_decompositions(P) == hull_oracles.summand_decompositions(P)


def test_both_refusals_keep_their_bounds_and_messages():
    with pytest.raises(PolygonTooLarge, match="^edge multiplicity sum 90 exceeds bound 24$"):
        geom.summand_decompositions(geom.hull2([(0, 0), (30, 0), (0, 30)]))
    # a centrally symmetric 12-gon: edge sum 24, and 3^12 picks of its edges
    steps = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1)]
    corners = [(0, 0)]
    for dx, dy in steps + [(-dx, -dy) for dx, dy in steps]:
        corners.append((corners[-1][0] + 2 * dx, corners[-1][1] + 2 * dy))
    with pytest.raises(PolygonTooLarge, match="^531441 candidate edge subsets is too many$"):
        geom.summand_decompositions(geom.hull2(corners))


coefficients = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9)),
)


def polys(arity, min_size=1, box=4, max_size=8):
    exponent = st.tuples(*[st.integers(-box, box)] * arity)
    return st.dictionaries(exponent, coefficients, min_size=min_size, max_size=max_size).map(
        lambda terms: TropPoly(arity, terms)
    )


@SEARCH
@given(polys(2), polygons(3))
def test_vertex_seed_matches_the_lattice_seed(f, Q):
    fc = canonicalize(f)
    seed = TropPoly(2, {p: 0 for p in geom.lattice_points(Q)})
    assert _seeded_residual(fc, Q) == _residual(fc, seed)


@SEARCH
@given(st.sampled_from([1, 2]).flatmap(lambda arity: polys(arity, min_size=0)))
def test_unit_key_matches_the_normalized_terms(p):
    normal = factor_reference.unit_normalize(p)
    want = tuple((e, (c.numerator, c.denominator)) for e, c in normal.items())
    assert _unit_key(p) == want
    assert unit_normalize(p) == normal


def _three_residuations_equal_one(fc, a):
    """a = fc / x for some x; then fc / (fc / a) = a.  The middle residual
    exists, since x itself satisfies a * x <= fc."""
    if a is None:
        return
    b = _residual(fc, a)
    assert b is not None
    assert _residual(fc, b) == a


ALPHA = settings(max_examples=300, deadline=None)


@ALPHA
@given(
    st.sampled_from([1, 2]).flatmap(
        lambda arity: st.tuples(polys(arity), polys(arity, box=1, max_size=4))
    )
)
def test_three_residuations_equal_one(fg):
    f, g = fg
    fc = canonicalize(f)
    _three_residuations_equal_one(fc, _residual(fc, g))


@ALPHA
@given(polys(2), polygons(2))
def test_three_residuations_from_a_summand_seed_equal_one(f, Q):
    fc = canonicalize(f)
    _three_residuations_equal_one(fc, _seeded_residual(fc, Q))


small_supports = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))),
    min_size=2,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(small_supports, small_supports)
def test_splits_match_the_three_round_search(a, b):
    f = trop_mul(TropPoly(2, a), TropPoly(2, b))
    assert _splits(f) == factor_reference.splits(f)
