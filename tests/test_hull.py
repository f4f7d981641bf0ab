"""The upper hull and the lattice-point scan against the reference versions in
`hull_oracles`: the same (corners, primitive plane) pairs on the same int
lifts, and equal sorted point lists, on inputs chosen for their degeneracies."""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import hull_oracles
from conftest import cleared_lifts
from troprat import TropPoly, canonicalize, geom

HULL = settings(max_examples=150, deadline=None)

coords = st.integers(-6, 6)
plane_points = st.tuples(coords, coords)


def full_dimensional(points):
    return geom.hull2(points).dim == 2


def with_values(points, values):
    """((x, y), value) lists pairing each point with a drawn value."""
    return st.lists(values, min_size=len(points), max_size=len(points)).map(
        lambda vs: list(zip(points, vs))
    )


def _primitive(plane):
    (n0, n1, n2), d = plane
    g = gcd(n0, n1, n2, d)
    return (n0 // g, n1 // g, n2 // g), d // g


def _same_hull(lifted):
    """The facets' corners of the drawn lifts cleared to ints, after checking
    them and their planes against the reference on the same ints."""
    val = cleared_lifts(lifted)
    before = dict(val)
    corners, planes = geom.upper_faces_2d(val)
    assert val == before  # read, never changed
    _facets, want_planes, want_corners = hull_oracles.upper_faces_2d(list(val.items()))
    got = sorted(zip(corners, map(_primitive, planes)))
    assert got == sorted(zip(want_corners, map(_primitive, want_planes)))
    return corners


@HULL
@given(
    st.lists(plane_points, min_size=3, max_size=30, unique=True)
    .filter(full_dimensional)
    .flatmap(
        lambda ps: with_values(
            ps, st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9))
        )
    )
)
def test_random_lifts(lifted):
    _same_hull(lifted)


@HULL
@given(
    st.dictionaries(
        plane_points, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)),
        min_size=3, max_size=12,
    ).filter(full_dimensional)
)
def test_canonical_forms(terms):
    # every lattice point of the Newton polygon lies on a facet, so facets
    # carry interior and boundary points besides their corners
    _same_hull(canonicalize(TropPoly(2, terms)).items())


def holey_grids():
    """Grids of up to 13 x 13 lattice points with about half of them left out."""

    def masked(wh):
        grid = [(x, y) for x in range(wh[0] + 1) for y in range(wh[1] + 1)]
        keep = st.lists(st.booleans(), min_size=len(grid), max_size=len(grid))
        return keep.map(lambda ks: [p for p, k in zip(grid, ks) if k])

    pairs = st.tuples(st.integers(2, 12), st.integers(2, 12))
    return pairs.flatmap(masked).filter(lambda ps: len(ps) >= 3 and full_dimensional(ps))


@HULL
@given(holey_grids().flatmap(lambda ps: with_values(ps, st.integers(-3, 3))))
def test_sparse_supports_with_holes(lifted):
    _same_hull(lifted)


def dense_grids():
    """Grids of 6 x 6 to 11 x 11 lattice points with up to 6 of them left out:
    at least 30 points, the size at which `upper_faces_2d` drops the points
    below a lattice chord."""

    def holed(wh):
        grid = [(x, y) for x in range(wh[0] + 1) for y in range(wh[1] + 1)]
        holes = st.sets(st.sampled_from(grid), max_size=6)
        return holes.map(lambda hs: [p for p in grid if p not in hs])

    return st.tuples(st.integers(5, 10), st.integers(5, 10)).flatmap(holed)


@HULL
@given(dense_grids().flatmap(lambda ps: with_values(ps, st.integers(-2, 2))))
def test_dense_grids_with_tied_lifts(lifted):
    # small lifts make ties, chords, points on facet edges and 3-point facets
    _same_hull(lifted)


@HULL
@given(
    st.integers(2, 8),
    st.integers(2, 8),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)),
    st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(-2, 6)), max_size=8),
)
def test_collinear_boundary_runs(w, h, plane, bumps):
    # every lattice point of a triangle's legs and hypotenuse on one affine
    # lift, so boundary runs are collinear in the lift too, plus a few
    # interior points raised or lowered off that plane
    a, b, c = plane
    lifted = {(x, 0): a * x + c for x in range(w + 1)}
    lifted.update(((0, y), b * y + c) for y in range(h + 1))
    lifted.update(
        ((x, y), a * x + b * y + c)
        for x in range(w + 1)
        for y in range(h + 1)
        if x * h + y * w == w * h
    )
    for x, y, dz in bumps:
        if x * h + y * w < w * h:
            lifted[(x, y)] = a * x + b * y + c + dz
    _same_hull(list(lifted.items()))


@HULL
@given(
    st.lists(plane_points, min_size=3, max_size=40, unique=True).filter(full_dimensional),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7)),
)
def test_all_equal_lifts_make_one_facet(points, value):
    corners = _same_hull([(p, value) for p in points])
    assert corners == [geom.hull2(points).vertices]


def _same_points(P):
    assert geom.lattice_points(P) == hull_oracles.lattice_points(P)


@HULL
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=8))
def test_lattice_points_of_polygons(points):
    P = geom.hull2(points)
    _same_points(P)
    # integer Fractions are lattice vertices too, and give the same points
    as_fractions = geom.Polygon(tuple((Fraction(x), Fraction(y)) for x, y in P.vertices))
    assert geom.lattice_points(as_fractions) == geom.lattice_points(P)


@HULL
@given(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (3, -2), (-1, 4)]),
    st.integers(0, 6),
)
def test_lattice_points_of_points_and_segments(start, step, length):
    # horizontal, vertical, diagonal and other slopes; length 0 is a point
    end = (start[0] + step[0] * length, start[1] + step[1] * length)
    P = geom.hull2([start, end])
    _same_points(P)
    assert len(geom.lattice_points(P)) == length + 1
