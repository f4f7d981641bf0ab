"""Regular subdivisions of Newton polytopes induced by lifted coefficients."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geom
from .core import TropPoly, envelope
from .errors import DegenerateInput, TropError


@dataclass(frozen=True)
class Subdivision:
    """Lattice subdivision of a Newton polytope.

    `lifted` are the generators (the support of `canonical` with its envelope
    lifts) and each cell is the set of lattice points on one bounded upper
    face.  For arity 1 the points are 1-tuples and every top cell is a segment.
    """

    arity: int
    canonical: TropPoly
    cells: tuple

    @property
    def lifted(self) -> tuple:
        return self.canonical.items()

    def points(self):
        return self.canonical.support

    def zero_cells(self) -> frozenset:
        """Vertices of the subdivision (corners of its cells)."""
        out = set()
        for cell in self.cells:
            out.update(_corners(cell))
        return frozenset(out)

    def one_cells(self):
        """1-cells with the list of top cells containing each."""
        found: dict = {}
        for idx, cell in enumerate(self.cells):
            if _cell_dim(cell) == 1:
                found.setdefault(cell, []).append(idx)
                continue
            pts = sorted(cell)
            corners = geom.hull2(pts).vertices
            for _ends, members in geom._one_cells_of(pts, corners):
                found.setdefault(members, []).append(idx)
        return found


def _cell_dim(cell) -> int:
    pts = sorted(cell)
    if len(pts) == 1:
        return 0
    if len(pts) == 2 or len(pts[0]) == 1:
        return 1
    if all(geom._cross(pts[0], pts[1], p) == 0 for p in pts[2:]):
        return 1
    return 2


def _corners(cell):
    pts = sorted(cell)
    d = _cell_dim(cell)
    if d == 0:
        return [pts[0]]
    if d == 1:
        return [pts[0], pts[-1]]
    return list(geom.hull2(pts).vertices)


def cell_endpoints(cell):
    """Endpoints of a 1-dimensional cell (lex order is monotone on a line)."""
    pts = sorted(cell)
    return pts[0], pts[-1]


def _require_subdivision(f: TropPoly):
    if f.is_bottom:
        raise DegenerateInput("the -inf polynomial has no dual subdivision")
    if f.arity not in (1, 2):
        raise TropError("dual subdivisions are implemented for arity 1 and 2")


def dual_subdivision(f: TropPoly) -> Subdivision:
    """Projections of the bounded upper faces of the lifted Newton polytope."""
    _require_subdivision(f)
    env = envelope(f)
    cells = sorted((cell for cell, _plane in env.cells()), key=sorted)
    return Subdivision(f.arity, env.poly, tuple(cells))


def mcomp(f: TropPoly) -> int:
    """Number of linear regions of f: vertices of its dual subdivision."""
    _require_subdivision(f)
    return len(envelope(f)._corners)


def subdiv_eq_translate(s1: Subdivision, s2: Subdivision):
    """Integer vector v with s2 = s1 + v cell-by-cell, or None."""
    if s1.arity != s2.arity or len(s1.cells) != len(s2.cells):
        return None
    m1 = min(p for cell in s1.cells for p in cell)
    m2 = min(p for cell in s2.cells for p in cell)
    v = tuple(b - a for a, b in zip(m1, m2))
    if not all(isinstance(x, int) or Fraction(x).denominator == 1 for x in v):
        return None
    v = tuple(int(x) for x in v)
    moved = {
        frozenset(tuple(x + d for x, d in zip(p, v)) for p in cell)
        for cell in s1.cells
    }
    return v if moved == set(s2.cells) else None
