"""Acceptance suite: every criterion checked exactly (tolerance zero), one
printed pass line per criterion.  Run with `pytest -v tests/test_acceptance.py`
or `pytest -s` to see the lines."""
import random
from fractions import Fraction

from troprat import (
    StackedHull,
    TropPoly,
    TropRational,
    area2,
    balancing_check,
    canonicalize,
    curve_to_divisor,
    divisor_add,
    divisor_sub,
    dual_subdivision,
    duality_samples,
    enumerate_factorizations,
    fcomp,
    format_poly,
    func_eq,
    graph_duality_check,
    hull2,
    lattice_length,
    mcomp,
    minkowski_sum2,
    minrep_uni,
    newton_irreducible,
    curve_irreducible,
    parse_poly,
    plane_curve,
    rat_eq,
    stack_pair,
    subdiv_eq_translate,
    trop_mul,
    uni_roots,
    vol_pair,
    volume_oracle,
    volume_stacked,
)
from troprat.rep import unit_normalize
from troprat.subdiv import cell_endpoints
from hull_oracles import pick_area
from conftest import (
    ALT_MIN_DEN_1,
    ALT_MIN_DEN_2,
    ALT_MIN_FACTORS,
    ALT_MIN_NUM_1,
    ALT_MIN_NUM_2,
    FOUR_LINES,
    FOUR_LINES_FACTOR_A,
    FOUR_LINES_FACTOR_B,
    FOUR_LINES_LINES,
    FOUR_LINES_NATURAL,
    LARGER_VOL_DEN,
    LARGER_VOL_NUM,
    UNIQUE_MIN_DEN,
    UNIQUE_MIN_NUM,
    XY,
    p1,
    p2,
    rand_lattice_polygon,
    rand_poly,
)


def _passed(n: int, text: str):
    print(f"criterion {n:02d} PASS - {text}")


def test_criterion_01_univariate_pair_volumes():
    assert vol_pair(p1("x + 0"), p1("x + 1")) == 1
    assert vol_pair(p1("(-2)*x^2 + x + 0"), p1("(-2)*x^2 + x + 1")) == 2
    _passed(1, "univariate pair volumes 1 and 2")


def test_criterion_02_two_minimum_expressions():
    f1, g1 = p2(ALT_MIN_NUM_1), p2(ALT_MIN_DEN_1)
    f2, g2 = p2(ALT_MIN_NUM_2), p2(ALT_MIN_DEN_2)
    assert vol_pair(f1, g1) == Fraction(5, 3)
    assert vol_pair(f2, g2) == Fraction(5, 3)
    assert rat_eq(TropRational(f1, g1), TropRational(f2, g2))
    for f, g in ((f1, g1), (f2, g2)):
        D = divisor_sub(
            curve_to_divisor(plane_curve(f)), curve_to_divisor(plane_curve(g))
        )
        assert D.weight_on_ray((0, 1), (1, 1)) == 1
        assert D.weight_on_ray((0, 0), (0, -1)) == 1
        assert D.weight_on_ray((0, 0), (-1, 0)) == 1
    _passed(2, "two expressions share volume 5/3, function and ray weights")


def test_criterion_03_unique_minimum_expression():
    f1, g1 = p2(UNIQUE_MIN_NUM), p2(UNIQUE_MIN_DEN)
    f2, g2 = p2(LARGER_VOL_NUM), p2(LARGER_VOL_DEN)
    assert vol_pair(f1, g1) == Fraction(7, 6)
    assert vol_pair(f2, g2) == Fraction(5, 3)
    assert rat_eq(TropRational(f1, g1), TropRational(f2, g2))
    for f, g in ((f1, g1), (f2, g2)):
        D = divisor_sub(
            curve_to_divisor(plane_curve(f)), curve_to_divisor(plane_curve(g))
        )
        assert D.weight_on_ray((0, 0), (1, 1)) == 2
    _passed(3, "volumes 7/6 < 5/3 and diagonal ray weight 2")


def _norm_key(p):
    return tuple(unit_normalize(canonicalize(p)).items())


def test_criterion_04_factorization_counterexample():
    F = p2(FOUR_LINES)
    fa, fb = p2(FOUR_LINES_FACTOR_A), p2(FOUR_LINES_FACTOR_B)
    lines = [p2(s) for s in FOUR_LINES_LINES]
    found = {
        tuple(sorted(_norm_key(p) for p in fs))
        for fs in enumerate_factorizations(F)
    }
    expected = {
        tuple(sorted([_norm_key(F)])),
        tuple(sorted([_norm_key(fa), _norm_key(fb)])),
        tuple(sorted(_norm_key(p) for p in lines)),
    }
    assert found == expected
    assert fcomp([F]) == 6
    assert fcomp([fa, fb]) == 5
    assert fcomp(lines) == 5
    for p in (fa, fb, *lines):
        assert newton_irreducible(p)
        assert curve_irreducible(p)  # all fixtures have zero coefficients
    _passed(4, "exactly three factorizations, fcomp 5 < 6, factors irreducible")


def test_criterion_05_complexity_table():
    for a, b in ALT_MIN_FACTORS:
        assert fcomp([p2(a), p2(b)]) == 4
    assert fcomp([p2(LARGER_VOL_NUM)]) == 3
    assert fcomp([p2("x + 0"), p2("y + 0")]) == 3
    assert fcomp([p2(UNIQUE_MIN_NUM)]) == 4
    _passed(5, "fcomp table 4,4,4,4 / 3 / 3 / 4")


def test_criterion_06_minkowski_instances():
    tri = hull2([(0, 0), (1, 0), (0, 1)])
    tri_flip = hull2([(1, 0), (0, 1), (1, 1)])
    assert area2(minkowski_sum2(tri, hull2([(0, 0), (1, 0)]))) == Fraction(3, 2)
    assert area2(minkowski_sum2(tri, tri)) == 2
    assert area2(minkowski_sum2(tri, hull2([(0, 0), (1, 1)]))) == Fraction(5, 2)
    assert area2(minkowski_sum2(tri, tri_flip)) == 3
    _passed(6, "Minkowski sum areas 3/2, 2, 5/2, 3")


def _random_factored_uni(rng):
    f = TropPoly.monomial((rng.randint(0, 2),), Fraction(rng.randint(-4, 4)))
    for _ in range(rng.randint(0, 3)):
        root = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        f = trop_mul(f, TropPoly(1, {(1,): 0, (0,): root}))
    return f


def test_criterion_07_minrep_property_suite():
    rng = random.Random(707)
    for _ in range(500):
        f = _random_factored_uni(rng)
        g = _random_factored_uni(rng)
        h = _random_factored_uni(rng)
        phi = TropRational(f, g)
        base = minrep_uni(phi)
        # invariance under common factors
        blown = minrep_uni(TropRational(trop_mul(f, h), trop_mul(g, h)))
        assert (blown.num, blown.den) == (base.num, base.den)
        # idempotence
        again = minrep_uni(base.rational())
        assert (again.num, again.den) == (base.num, base.den)
        # function preserved and volume formula matches vol_pair
        assert rat_eq(base.rational(), phi)
        mults = sum(m for _, m in uni_roots(base.num)) + sum(
            m for _, m in uni_roots(base.den)
        )
        assert base.volume == Fraction(mults, 2) == vol_pair(base.num, base.den)
        assert base.volume <= vol_pair(f, g)
        # equal-minimal-volume representations differ by a translation
        unit = TropPoly.monomial((rng.randint(-3, 3),), Fraction(rng.randint(-5, 5)))
        other_num = trop_mul(base.num, unit)
        other_den = trop_mul(base.den, unit)
        assert vol_pair(other_num, other_den) == base.volume
        shift = subdiv_eq_translate(
            dual_subdivision(stack_pair(base.num, base.den)),
            dual_subdivision(stack_pair(other_num, other_den)),
        )
        assert shift is not None
    _passed(7, "500 minrep invariance/idempotence/volume/translation cases")


def test_criterion_08_duality_sampling():
    fixtures = [
        (p1("x + 0"), p1("x + 1")),
        (TropPoly.zero(1), p1("x + 0")),
        (p2(ALT_MIN_NUM_1), p2(ALT_MIN_DEN_1)),
        (p2(ALT_MIN_NUM_2), p2(ALT_MIN_DEN_2)),
    ]
    for i, (f, g) in enumerate(fixtures):
        report = graph_duality_check(f, g, duality_samples(f, g, 1000, 7 + i))
        assert report.ok and report.total == 1000
    rng = random.Random(808)
    pairs = 0
    while pairs < 50:
        f = rand_poly(rng, 2, max_terms=4)
        g = rand_poly(rng, 2, max_terms=4)
        if g.is_bottom:
            continue
        pairs += 1
        report = graph_duality_check(f, g, duality_samples(f, g, 1000, 900 + pairs))
        assert report.ok, (format_poly(f, XY), format_poly(g, XY), report.violations[:3])
    _passed(8, "duality check: 4 fixtures and 50 random pairs, 1000 samples each")


def test_criterion_09_geometry_oracles():
    rng = random.Random(909)
    for _ in range(300):
        bottom = rand_lattice_polygon(rng)
        top = rand_lattice_polygon(rng)
        assert pick_area(bottom) == area2(bottom)
        assert pick_area(top) == area2(top)
        S = StackedHull(bottom, top)
        assert volume_stacked(S) == volume_oracle(S)
    for _ in range(100):
        bottom = rand_lattice_polygon(rng)
        top = rand_lattice_polygon(rng)
        v = (Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 3))
        assert volume_oracle(StackedHull(bottom, top.translate(v))) == volume_stacked(
            StackedHull(bottom, top)
        )
    _passed(9, "300 volume oracle matches, Pick identities, 100 translations")


def test_criterion_10_curve_structure():
    rng = random.Random(1010)
    polys = []
    while len(polys) < 200:
        f = rand_poly(rng, 2, max_terms=6, exp_range=(0, 3), min_terms=2)
        if not f.is_unit:
            polys.append(f)
    for f in polys:
        C = plane_curve(f)
        assert balancing_check(C)
        for piece in list(C.edges) + list(C.rays) + list(C.lines):
            u, v = cell_endpoints(piece.dual)
            assert piece.weight == lattice_length(u, v)
    for f, g in zip(polys[0::2], polys[1::2]):
        product = trop_mul(f, g)
        lhs = curve_to_divisor(plane_curve(product))
        rhs = divisor_add(
            curve_to_divisor(plane_curve(f)), curve_to_divisor(plane_curve(g))
        )
        assert lhs == rhs
    _passed(10, "balancing, dual weights and additive union over 200 curves")


def test_criterion_11_mcomp_oracle():
    from oracles import region_count

    fixtures = [
        p1("x + 0"),
        p1("(-2)*x^2 + x + 0"),
        p1("x^2 + 0"),
        p2("x + y + 0"),
        p2(UNIQUE_MIN_NUM),
        p2(LARGER_VOL_NUM),
        p2(UNIQUE_MIN_DEN),
        p2(LARGER_VOL_DEN),
        p2(FOUR_LINES),
        p2(FOUR_LINES_FACTOR_A),
        p2(FOUR_LINES_FACTOR_B),
        p2(ALT_MIN_NUM_1),
        p2(ALT_MIN_DEN_1),
        p2(ALT_MIN_NUM_2),
        p2(ALT_MIN_DEN_2),
    ]
    for f in fixtures:
        assert mcomp(f) == region_count(f)
    rng = random.Random(1111)
    for _ in range(100):
        arity = rng.choice((1, 2))
        f = rand_poly(rng, arity, max_terms=6)
        assert mcomp(f) == region_count(f)
    _passed(11, "mcomp equals the sampling region oracle on fixtures and 100 randoms")


def test_criterion_12_parser_round_trips():
    rng = random.Random(1212)
    for _ in range(500):
        arity = rng.choice((1, 2, 3))
        vars = ("x", "y", "z")[:arity]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(-5, 5) for _ in range(arity))
            terms[e] = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        f = TropPoly(arity, terms)
        text = format_poly(f, vars)
        assert parse_poly(text, vars) == f
        assert format_poly(parse_poly(text, vars), vars) == text
    naturals = [
        ("x + 0", ("x",)),
        ("x + 1", ("x",)),
        ("(-2)x^2 + x + 0", ("x",)),
        ("(-2)x^2 + x + 1", ("x",)),
        ("xy + (-1)y^2 + x + y + 0", XY),
        ("(-1)xy^2 + xy + (-1)y^2 + x + y", XY),
        ("x^2 + xy + (-1)y^2 + x + (-1)y", XY),
        ("(-1)x^2y + (-1)xy^2 + x^2 + xy + (-1)y^2", XY),
        (FOUR_LINES_NATURAL, XY),
        ("xy^2 + xy + x + y", XY),
        ("xy + y^2 + y + 0", XY),
        ("xy + 0", XY),
        ("x + y", XY),
        ("y + 0", XY),
        ("x^2 + xy + y^2 + x + y", XY),
        ("xy + x + y", XY),
        ("x^2 + xy + y^2 + x + y + 0", XY),
        ("xy + x + y + 0", XY),
        ("x + (-1)y + 0", XY),
        ("x + y + 0", XY),
        ("x + (-1)y", XY),
        ("(-1)y + 0", XY),
        ("(-1)xy + x + (-1)y", XY),
    ]
    for text, vars in naturals:
        f = parse_poly(text, vars)
        assert not f.is_bottom
        assert parse_poly(format_poly(f, vars), vars) == f
    _passed(12, "500 round trips and all natural-form inputs parse")
