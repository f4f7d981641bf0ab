"""Cross-checks of the envelope views against the hull computations they
replaced, kept here as oracles: the upper hull of the whole canonical lattice
for subdivision cells, canonical-form comparison for func_eq, and
subdivision corners for mcomp."""
import random
from fractions import Fraction

import pytest

import hull_oracles
from troprat import (
    TropPoly,
    canonicalize,
    core,
    dual_subdivision,
    func_eq,
    geom,
    mcomp,
    plane_curve,
    uni_roots,
)
from conftest import rand_poly


def _dense(rng, arity, degree):
    """Every lattice point of the standard simplex with a random coefficient."""
    if arity == 1:
        exps = [(i,) for i in range(degree + 1)]
    else:
        exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return TropPoly(arity, {e: Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for e in exps})


def _inputs(arity):
    rng = random.Random(2409 + arity)
    polys = [rand_poly(rng, arity, max_terms=7, exp_range=(-2, 4)) for _ in range(40)]
    polys += [rand_poly(rng, arity, max_terms=6, integer_coeffs=False) for _ in range(20)]
    polys += [_dense(rng, arity, degree) for degree in (3, 5, 8) for _ in range(3)]
    if arity == 2:  # segment Newton polygons
        polys += [
            TropPoly(2, {(k * a, k * b): rng.randint(-5, 5) for k in rng.sample(range(6), 3)})
            for a, b in ((1, 0), (0, 1), (1, 1), (2, -1), (1, 3))
        ]
    return polys


def _oracle_cells(f):
    """Cells from a fresh hull of every lattice point of the canonical form."""
    fc = canonicalize(f)
    if f.arity == 2 and geom.hull2(fc.support).dim == 2:
        facets, _planes, _corners = hull_oracles.upper_faces_2d(fc.items())
        return sorted(facets, key=sorted)
    # a chain: the canonical support is every lattice point of a segment, and
    # lex order walks along it, so the sorted index is the lattice position
    pts = sorted(fc.support)
    hull = geom.upper_envelope_1d([(i, fc.coeff(p)) for i, p in enumerate(pts)])
    breaks = [i for i, _ in hull]
    if len(breaks) == 1:
        return [frozenset(pts)]
    spans = [frozenset(pts[lo : hi + 1]) for lo, hi in zip(breaks, breaks[1:])]
    return sorted(spans, key=sorted)


@pytest.mark.parametrize("arity", [1, 2])
def test_subdivision_matches_hull_of_canonical_lattice(arity):
    for f in _inputs(arity):
        sub = dual_subdivision(f)
        assert list(sub.cells) == _oracle_cells(f), f
        assert sub.lifted == canonicalize(f).items()
        assert mcomp(f) == len(hull_oracles.zero_cells(sub))


@pytest.mark.parametrize("arity", [1, 2])
def test_func_eq_matches_canonical_forms(arity):
    rng = random.Random(48 + arity)
    polys = _inputs(arity)
    outcomes = set()
    for f in polys:
        fc = canonicalize(f)
        lowered = TropPoly(arity, {e: c - 1 for e, c in fc.items()})
        inside = rng.choice(fc.support)
        below = f + TropPoly.monomial(inside, fc.coeff(inside) - Fraction(1, 3))
        raised = f + TropPoly.monomial(inside, fc.coeff(inside) + 1)
        for g in (fc, below, raised, lowered, rng.choice(polys)):
            expected = canonicalize(f).items() == canonicalize(g).items()
            assert func_eq(f, g) == expected, (f, g)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_curve_vertices_are_ties_of_their_cells():
    for f in _inputs(2):
        if geom.hull2(f.support).dim < 2:
            continue
        C = plane_curve(f)
        cells = C.subdivision.cells
        assert len(C.vertices) == len(cells)
        coeff = dict(canonicalize(f).items())
        for cell in cells:
            tied = []
            for v in C.vertices:
                values = {e: c + e[0] * v[0] + e[1] * v[1] for e, c in coeff.items()}
                top = max(values.values())
                if all(values[e] == top for e in cell):
                    tied.append(v)
            assert len(tied) == 1, (f, cell)


def test_uni_roots_match_breakpoints_of_canonical_form():
    for f in _inputs(1):
        if f.is_unit:
            continue
        fc = canonicalize(f)
        pts = [(e[0], c) for e, c in fc.items()]
        hull = geom.upper_envelope_1d(pts)
        expected = [
            (Fraction(c0 - c1, x1 - x0), x1 - x0)
            for (x0, c0), (x1, c1) in zip(hull, hull[1:])
        ]
        assert uni_roots(f) == expected


def test_one_hull_per_polynomial(monkeypatch):
    calls = []
    real = geom.upper_faces_2d

    def counting(lifted):
        calls.append(len(lifted))
        return real(lifted)

    monkeypatch.setattr(geom, "upper_faces_2d", counting)
    core._canonical_cached.cache_clear()
    f = _dense(random.Random(5), 2, 8)
    fc = canonicalize(f)
    dual_subdivision(f)
    mcomp(f)
    plane_curve(f)
    assert func_eq(f, fc)
    assert core.envelope(fc) is core.envelope(f)
    assert calls == [len(f)]
