import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hull_oracles
from troprat import (
    DegenerateInput,
    TropPoly,
    balancing_check,
    curve_to_divisor,
    divisor_add,
    divisor_sub,
    duality_samples,
    graph_duality_check,
    hypersurface_member,
    lattice_length,
    plane_curve,
    recession_fan,
    trop_mul,
)
from troprat.curve import _canonical_pieces
from troprat.subdiv import cell_endpoints
from conftest import (
    ALT_MIN_DEN_1,
    ALT_MIN_NUM_1,
    FOUR_LINES,
    UNIQUE_MIN_DEN,
    UNIQUE_MIN_NUM,
    XY,
    p1,
    p2,
    rand_poly,
)
from oracles import on_curve


class TestMembership:
    def test_univariate(self):
        f = p1("x + 0")
        assert hypersurface_member(f, (0,))
        assert not hypersurface_member(f, (1,))

    def test_bottom_is_everything(self):
        assert hypersurface_member(TropPoly.zero(2), (3, 4))

    def test_monomial_is_empty(self):
        assert not hypersurface_member(p2("5*x*y^2"), (1, 1))

    def test_float_point_rejected(self):
        f = p1("x + 0")
        for check in (f, lambda p: hypersurface_member(f, p)):
            with pytest.raises(TypeError):
                check((0.0,))

    def test_exponent_notation_point_rejected(self):
        f = p1("x + 0")
        for check in (f, lambda p: hypersurface_member(f, p)):
            with pytest.raises(ValueError):
                check(("1e400",))


class TestPlaneCurve:
    def test_tropical_line(self):
        C = plane_curve(p2("x + y + 0"))
        assert C.vertices == ((Fraction(0), Fraction(0)),)
        assert {(r.direction, r.weight) for r in C.rays} == {
            ((1, 1), 1),
            ((-1, 0), 1),
            ((0, -1), 1),
        }
        assert not C.edges and not C.lines

    def test_contains_stated_rays(self):
        C = plane_curve(p2(ALT_MIN_NUM_1))
        rays = {(r.base, r.direction) for r in C.rays}
        assert ((Fraction(0), Fraction(1)), (1, 1)) in rays  # {(t, t+1)}
        assert ((Fraction(0), Fraction(0)), (0, -1)) in rays  # {(0, -t)}
        assert ((Fraction(0), Fraction(0)), (-1, 0)) in rays  # {(-t, 0)}

    def test_squared_line_has_weight_two(self):
        C = plane_curve(p2("(x + y + 0)^2"))
        assert C.vertices == ((Fraction(0), Fraction(0)),)
        assert sorted((r.direction, r.weight) for r in C.rays) == [
            ((-1, 0), 2),
            ((0, -1), 2),
            ((1, 1), 2),
        ]

    def test_monomial_rejected(self):
        with pytest.raises(DegenerateInput):
            plane_curve(p2("3*x^2"))

    def test_parallel_lines(self):
        C = plane_curve(p2("y^2 + y + 0"))
        assert not C.vertices and not C.rays and not C.edges
        assert [(L.direction, L.weight) for L in C.lines] == [((1, 0), 2)]

    def test_four_lines_star(self):
        C = plane_curve(p2(FOUR_LINES))
        assert C.vertices == ((Fraction(0), Fraction(0)),)
        assert sorted((r.direction, r.weight) for r in C.rays) == [
            ((-1, -1), 1),
            ((-1, 0), 2),
            ((-1, 1), 1),
            ((1, -1), 1),
            ((1, 0), 2),
            ((1, 1), 1),
        ]


class TestCurveInvariants:
    def test_balancing_fixtures_and_random(self):
        rng = random.Random(61)
        fixtures = [p2(ALT_MIN_NUM_1), p2(ALT_MIN_DEN_1), p2(UNIQUE_MIN_NUM), p2(FOUR_LINES)]
        polys = fixtures + [
            rand_poly(rng, 2, max_terms=6, exp_range=(0, 4), min_terms=2)
            for _ in range(60)
        ]
        for f in polys:
            if f.is_unit:
                continue
            assert balancing_check(plane_curve(f))

    def test_mutated_weight_unbalances(self):
        C = plane_curve(p2("x + y + 0"))
        bad = replace(C, rays=(replace(C.rays[0], weight=2),) + C.rays[1:])
        assert not balancing_check(bad)

    def test_weights_equal_dual_lattice_lengths(self):
        rng = random.Random(62)
        for _ in range(30):
            f = rand_poly(rng, 2, max_terms=6, min_terms=2)
            if f.is_unit:
                continue
            C = plane_curve(f)
            for piece in list(C.edges) + list(C.rays) + list(C.lines):
                u, v = cell_endpoints(piece.dual)
                assert piece.weight == lattice_length(u, v)

    def test_orthogonality(self):
        rng = random.Random(63)
        for _ in range(30):
            f = rand_poly(rng, 2, max_terms=6, min_terms=2)
            if f.is_unit:
                continue
            C = plane_curve(f)
            for e in C.edges:
                u, v = cell_endpoints(e.dual)
                d = (e.b[0] - e.a[0], e.b[1] - e.a[1])
                assert d[0] * (v[0] - u[0]) + d[1] * (v[1] - u[1]) == 0
            for r in C.rays:
                u, v = cell_endpoints(r.dual)
                assert r.direction[0] * (v[0] - u[0]) + r.direction[1] * (v[1] - u[1]) == 0

    def test_membership_matches_curve_support(self):
        rng = random.Random(64)
        for _ in range(15):
            f = rand_poly(rng, 2, max_terms=5, min_terms=2)
            if f.is_unit:
                continue
            C = plane_curve(f)
            for piece in list(C.edges)[:2]:
                mid = (
                    Fraction(piece.a[0] + piece.b[0], 2),
                    Fraction(piece.a[1] + piece.b[1], 2),
                )
                assert hypersurface_member(f, mid)
            for r in list(C.rays)[:3]:
                pt = (r.base[0] + 3 * r.direction[0], r.base[1] + 3 * r.direction[1])
                assert hypersurface_member(f, pt)
            for _ in range(25):
                p = (Fraction(rng.randint(-40, 40), 4), Fraction(rng.randint(-40, 40), 4))
                assert hypersurface_member(f, p) == on_curve(C, p)


class TestRecessionFan:
    def test_line_is_its_own_fan(self):
        C = recession_fan(p2("x + y + 0"))
        assert {(r.direction, r.weight) for r in C.rays} == {
            ((1, 1), 1),
            ((-1, 0), 1),
            ((0, -1), 1),
        }

    def test_fan_of_quadrilateral_support(self):
        C = recession_fan(p2(ALT_MIN_NUM_1))
        assert sorted((r.direction, r.weight) for r in C.rays) == [
            ((-1, 0), 2),
            ((0, -1), 1),
            ((1, 0), 1),
            ((1, 1), 1),
        ]

    def test_squared_line_fan(self):
        C = recession_fan(p2("(x + y + 0)^2"))
        assert sorted((r.direction, r.weight) for r in C.rays) == [
            ((-1, 0), 2),
            ((0, -1), 2),
            ((1, 1), 2),
        ]

    def test_fan_of_a_wide_triangle(self):
        # Newt(f) has 501,501 lattice points; the fan needs only its vertices
        C = recession_fan(p2("x^1000 + y^1000 + 0"))
        assert sorted((r.direction, r.weight) for r in C.rays) == [
            ((-1, 0), 1000),
            ((0, -1), 1000),
            ((1, 1), 1000),
        ]


class TestDivisor:
    def test_two_expression_rays(self, alt_min_pairs):
        for f, g in alt_min_pairs:
            D = divisor_sub(
                curve_to_divisor(plane_curve(f)), curve_to_divisor(plane_curve(g))
            )
            assert D.weight_on_ray((0, 1), (1, 1)) == 1
            assert D.weight_on_ray((0, 0), (0, -1)) == 1
            assert D.weight_on_ray((0, 0), (-1, 0)) == 1

    def test_unique_min_diagonal_weight_two(self):
        D = divisor_sub(
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_NUM))),
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_DEN))),
        )
        assert D.weight_on_ray((0, 0), (1, 1)) == 2

    def test_self_difference_empty(self):
        D = curve_to_divisor(plane_curve(p2(ALT_MIN_NUM_1)))
        assert divisor_sub(D, D).is_empty

    def test_opposite_rays_merge_to_line(self):
        D = curve_to_divisor(plane_curve(p2(FOUR_LINES)))
        # the star of rays at the origin is four full lines with weights
        pieces = D.pieces()
        assert all(kind == "line" for kind, *_ in pieces)
        weights = sorted(w for *_x, w in pieces)
        assert weights == [1, 1, 2]  # y=x, y=-x once; y=0 with weight 2

    def test_product_divisor_is_sum(self):
        rng = random.Random(65)
        done = 0
        while done < 40:
            f = rand_poly(rng, 2, max_terms=5, min_terms=2)
            g = rand_poly(rng, 2, max_terms=5, min_terms=2)
            if f.is_unit or g.is_unit:
                continue
            done += 1
            Df = curve_to_divisor(plane_curve(f))
            Dg = curve_to_divisor(plane_curve(g))
            Dfg = curve_to_divisor(plane_curve(trop_mul(f, g)))
            assert Dfg == divisor_add(Df, Dg)


ends = st.one_of(st.none(), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ends, ends, st.integers(-3, 3)), max_size=8))
def test_canonical_pieces_match_refine_and_merge(intervals):
    # a finite interval runs from its smaller end; a None lo is -inf, a None hi +inf
    raw = [
        (lo, hi, w) if None in (lo, hi) or lo < hi else (hi, lo, w)
        for lo, hi, w in intervals
        if lo is None or hi is None or lo != hi
    ]
    assert _canonical_pieces(raw) == hull_oracles.canonical_pieces(raw)


class TestGraphDuality:
    def test_named_samples(self):
        f, g = p1("x + 0"), p1("x + 1")
        report = graph_duality_check(f, g, [(2, 0), (0, -2), (0, 7)])
        assert report.ok
        assert report.member_hits >= 2  # (2,0) on the graph, (0,-2) below V(f)

    def test_float_samples_rejected(self):
        f, g = p1("x + 0"), p1("x + 1")
        with pytest.raises(TypeError):
            graph_duality_check(f, g, [(0.5, 0.25)])

    def test_bottom_numerator(self):
        z = TropPoly.zero(1)
        g = p1("x + 0")
        samples = [(0, 7), (0, -3), (1, 5), (Fraction(1, 2), 0)]
        report = graph_duality_check(z, g, samples)
        assert report.ok
        # x=0 lies on V(g): the whole vertical line is in the hypersurface
        assert report.member_hits == 2

    def test_fixture_pairs_sampled(self, alt_min_pairs):
        for f, g in alt_min_pairs:
            report = graph_duality_check(f, g, duality_samples(f, g, 300, 7))
            assert report.ok and report.total == 300
            assert report.graph_hits and report.below_hits and report.above_hits
