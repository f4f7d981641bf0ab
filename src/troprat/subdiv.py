"""Regular subdivisions of Newton polytopes induced by lifted coefficients."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def zero_cells(self) -> frozenset:
        """Vertices of the subdivision: the corners of the envelope."""
        return frozenset(envelope(self.canonical)._corners)


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
