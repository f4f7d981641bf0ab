import random
from fractions import Fraction

import pytest

from troprat import (
    NonLatticePolygon,
    Polygon,
    PolygonTooLarge,
    StackedHull,
    area2,
    hull2,
    lattice_length,
    lattice_points,
    minkowski_sum2,
    summand_decompositions,
    volume_oracle,
    volume_stacked,
)
from troprat.geom import normalize_origin
from hull_oracles import pick_area
from conftest import FOUR_LINES, p2, rand_lattice_polygon

TRI = hull2([(0, 0), (1, 0), (0, 1)])
TRI_FLIPPED = hull2([(1, 0), (0, 1), (1, 1)])


class TestHull:
    def test_drops_interior_point(self):
        P = hull2([(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))])
        assert P.vertices == ((0, 0), (1, 0), (0, 1))

    def test_four_lines_support_hexagon(self):
        P = hull2(p2(FOUR_LINES).support)
        assert set(P.vertices) == {(1, 0), (2, 1), (2, 3), (1, 4), (0, 3), (0, 1)}
        assert len(P.vertices) == 6

    def test_degenerate(self):
        assert hull2([(2, 3)]).vertices == ((2, 3),)
        assert hull2([(0, 0), (2, 2), (1, 1)]).vertices == ((0, 0), (2, 2))


class TestArea:
    def test_unit_triangle(self):
        assert area2(TRI) == Fraction(1, 2)

    def test_quadrilateral(self):
        P = hull2([(0, 0), (1, 0), (1, 1), (0, 2)])
        assert area2(P) == Fraction(3, 2)

    def test_hexagon(self):
        # shoelace on the six hull vertices gives 6, as does Pick's theorem
        P = hull2(p2(FOUR_LINES).support)
        assert area2(P) == 6

    def test_degenerate_zero(self):
        assert area2(hull2([(0, 0), (3, 3)])) == 0
        assert area2(hull2([(5, 5)])) == 0


class TestMinkowski:
    def test_lemma_instances(self):
        seg10 = hull2([(0, 0), (1, 0)])
        seg11 = hull2([(0, 0), (1, 1)])
        assert area2(minkowski_sum2(TRI, seg10)) == Fraction(3, 2)
        assert area2(minkowski_sum2(TRI, TRI)) == 2
        assert area2(minkowski_sum2(TRI, seg11)) == Fraction(5, 2)
        assert area2(minkowski_sum2(TRI, TRI_FLIPPED)) == 3

    def test_point_is_translation(self):
        P = hull2([(0, 0), (2, 0), (0, 2)])
        assert minkowski_sum2(P, hull2([(3, 4)])) == P.translate((3, 4))

    def test_superadditive_area(self):
        # mixed-area positivity: equality only for a point summand or a pair
        # of parallel segments
        rng = random.Random(17)
        for _ in range(60):
            P = rand_lattice_polygon(rng)
            Q = rand_lattice_polygon(rng)
            total = area2(minkowski_sum2(P, Q))
            assert total >= area2(P) + area2(Q)
            degenerate = P.dim == 0 or Q.dim == 0
            if P.dim == 1 and Q.dim == 1:
                (a1, b1), (a2, b2) = P.vertices, Q.vertices
                d1 = (b1[0] - a1[0], b1[1] - a1[1])
                d2 = (b2[0] - a2[0], b2[1] - a2[1])
                degenerate = d1[0] * d2[1] - d1[1] * d2[0] == 0
            assert (total == area2(P) + area2(Q)) == degenerate


class TestLattice:
    def test_counts(self):
        assert len(lattice_points(TRI)) == 3
        square = hull2([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(lattice_points(square)) == 4
        assert pick_area(TRI) == Fraction(1, 2)
        assert pick_area(square) == 1

    def test_hexagon_pick(self):
        P = hull2(p2(FOUR_LINES).support)
        assert pick_area(P) == area2(P) == 6

    def test_pick_identity_random(self):
        rng = random.Random(23)
        for _ in range(60):
            P = rand_lattice_polygon(rng)
            assert pick_area(P) == area2(P)

    def test_non_lattice_rejected(self):
        with pytest.raises(NonLatticePolygon):
            lattice_points(hull2([(0, 0), (Fraction(1, 2), 0), (0, 1)]))

    def test_lattice_length(self):
        assert lattice_length((0, 0), (2, 2)) == 2
        assert lattice_length((0, 0), (1, 2)) == 1
        assert lattice_length((0, 0), (0, 3)) == 3


class TestStackedVolume:
    def test_cube(self):
        square = hull2([(0, 0), (1, 0), (1, 1), (0, 1)])
        S = StackedHull(square, square)
        assert volume_stacked(S) == 1
        assert volume_oracle(S) == 1

    def test_single_point_degenerate(self):
        pt = hull2([(2, 2)])
        assert volume_stacked(StackedHull(pt, pt)) == 0
        assert volume_oracle(StackedHull(pt, pt)) == 0

    def test_equal_volume_pair_bodies(self):
        bottom = hull2([(0, 0), (1, 0), (1, 1), (0, 2)])
        top = hull2([(1, 0), (1, 2), (0, 2), (0, 1)])
        S = StackedHull(bottom, top)
        assert volume_stacked(S) == Fraction(5, 3)
        assert volume_oracle(S) == Fraction(5, 3)

    def test_smaller_pair_body(self):
        bottom = hull2([(1, 0), (2, 0), (0, 2), (0, 1)])
        top = hull2([(1, 0), (1, 1), (0, 1)])
        assert volume_stacked(StackedHull(bottom, top)) == Fraction(7, 6)

    def test_oracle_agreement_random(self):
        rng = random.Random(99)
        for _ in range(120):
            S = StackedHull(rand_lattice_polygon(rng), rand_lattice_polygon(rng))
            assert volume_stacked(S) == volume_oracle(S)

    def test_translation_invariance(self):
        rng = random.Random(100)
        for _ in range(40):
            bottom = rand_lattice_polygon(rng)
            top = rand_lattice_polygon(rng)
            v = (Fraction(rng.randint(-12, 12), 4), Fraction(rng.randint(-12, 12), 4))
            S = StackedHull(bottom, top)
            assert volume_oracle(StackedHull(bottom, top.translate(v))) == volume_stacked(S)


class TestSummands:
    def test_hexagon_contains_triangle_pair(self):
        P = hull2(p2(FOUR_LINES).support)
        pairs = summand_decompositions(P)
        tri_a = normalize_origin(hull2([(1, 0), (1, 2), (0, 1)]))
        tri_b = normalize_origin(hull2([(0, 0), (1, 1), (0, 2)]))
        want = tuple(sorted((tri_a, tri_b), key=lambda q: q.vertices))
        assert want in pairs
        for q, r in pairs:
            assert minkowski_sum2(q, r) == normalize_origin(P)

    def test_unit_triangle_irreducible(self):
        assert summand_decompositions(TRI) == ()

    def test_segment(self):
        seg = hull2([(0, 0), (2, 2)])
        pairs = summand_decompositions(seg)
        unit = hull2([(0, 0), (1, 1)])
        assert pairs == ((unit, unit),)

    def test_too_large(self):
        big = hull2([(0, 0), (30, 0), (0, 30)])
        with pytest.raises(PolygonTooLarge):
            summand_decompositions(big)
