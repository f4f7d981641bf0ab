"""The plane curve read off the envelope's facet corners against the reference
in `hull_oracles`, which re-hulls every 2-cell of the subdivision: equal in
every field, each piece's dual segment included, and equal subdivision
vertices."""
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hull_oracles
from troprat import DegenerateInput, PolygonTooLarge, TropPoly, canonicalize, dual_subdivision, geom, plane_curve

CURVE = settings(max_examples=120, deadline=None)

coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
plane_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
steps = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (1, 3), (-3, 2)])


def _same_curve(f):
    curve, reference = plane_curve(f), hull_oracles.plane_curve(f)
    for field in fields(curve):
        assert getattr(curve, field.name) == getattr(reference, field.name), field.name
    sub = dual_subdivision(f)
    assert sub.zero_cells() == hull_oracles.zero_cells(sub)


@CURVE
@given(st.dictionaries(plane_points, coeffs, min_size=2, max_size=12))
def test_random_supports(terms):
    _same_curve(TropPoly(2, terms))


@CURVE
@given(st.dictionaries(plane_points, coeffs, min_size=2, max_size=8))
def test_canonical_forms(terms):
    # every lattice point of the Newton polygon is a term, so facets carry
    # interior and boundary points besides their corners
    _same_curve(canonicalize(TropPoly(2, terms)))


@CURVE
@given(
    plane_points,
    steps,
    st.dictionaries(st.integers(0, 6), coeffs, min_size=2, max_size=7),
)
def test_segment_newton_polygons(start, step, terms):
    f = TropPoly(2, {(start[0] + t * step[0], start[1] + t * step[1]): c for t, c in terms.items()})
    _same_curve(f)
    _same_curve(canonicalize(f))


@CURVE
@given(
    st.lists(plane_points, min_size=3, max_size=3, unique=True).filter(
        lambda ps: geom.hull2(ps).dim == 2
    ),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)), max_size=6),
)
def test_flat_dilated_triangles(corners, k, lowered):
    # all-zero coefficients: the coplanar cells merge into one facet, and
    # lattice points lifted below it stay off the envelope
    points = geom.lattice_points(geom.hull2([(k * x, k * y) for x, y in corners]))
    terms = {p: 0 for p in points}
    for index, depth in lowered:
        terms[points[index % len(points)]] = -depth
    _same_curve(TropPoly(2, terms))


@CURVE
@given(
    st.integers(2, 7),
    st.integers(2, 7),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(-2, 6)), max_size=6),
)
def test_collinear_boundary_runs(w, h, plane, bumps):
    # every lattice point of a triangle's legs and hypotenuse on one affine
    # lift, so boundary runs are collinear in the lift too, plus a few
    # interior points raised or lowered off that plane
    a, b, c = plane
    terms = {(x, 0): a * x + c for x in range(w + 1)}
    terms.update(((0, y), b * y + c) for y in range(h + 1))
    terms.update(
        ((x, y), a * x + b * y + c)
        for x in range(w + 1)
        for y in range(h + 1)
        if x * h + y * w == w * h
    )
    for x, y, dz in bumps:
        if x * h + y * w < w * h:
            terms[(x, y)] = a * x + b * y + c + dz
    _same_curve(TropPoly(2, terms))


@CURVE
@given(st.dictionaries(st.tuples(st.integers(-5, 5)), coeffs, min_size=1, max_size=8))
def test_univariate_subdivision_vertices(terms):
    sub = dual_subdivision(TropPoly(1, terms))
    assert sub.zero_cells() == hull_oracles.zero_cells(sub)


def test_monomials_have_no_curve():
    f = TropPoly(2, {(1, 2): Fraction(1, 3)})
    for build in (plane_curve, hull_oracles.plane_curve):
        with pytest.raises(DegenerateInput):
            build(f)
    sub = dual_subdivision(f)
    assert sub.zero_cells() == hull_oracles.zero_cells(sub) == {(1, 2)}


def test_a_piece_past_the_lattice_bound_is_refused():
    # the edge from (0, 0) to (300000, 0) holds 300001 lattice points; the
    # curve lists each piece's dual segment, so it counts them first
    f = TropPoly(2, {(300000, 0): 0, (0, 1): 0, (0, 0): 0})
    with pytest.raises(PolygonTooLarge, match="^300001 lattice points exceed the bound 200000$"):
        plane_curve(f)
