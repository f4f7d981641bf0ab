"""Deterministic SVG rendering of subdivisions, plane curves and divisors."""
from __future__ import annotations

from fractions import Fraction

from . import geom
from .curve import Divisor, PlaneCurve
from .errors import TropError
from .subdiv import Subdivision

SCALE = 40
MARGIN = 1


def _fmt(x) -> str:
    v = float(x)
    if v == 0:
        v = 0.0
    return f"{v:.3f}"


class _Canvas:
    def __init__(self, x0, y0, x1, y1):
        self.x0, self.y0, self.x1, self.y1 = x0 - MARGIN, y0 - MARGIN, x1 + MARGIN, y1 + MARGIN
        self.parts: list[str] = []

    def pt(self, p):
        return (float(p[0]) * SCALE, -float(p[1]) * SCALE)

    def header(self):
        w = (self.x1 - self.x0) * SCALE
        h = (self.y1 - self.y0) * SCALE
        ox = self.x0 * SCALE
        oy = -self.y1 * SCALE
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(ox)} {_fmt(oy)} {_fmt(w)} {_fmt(h)}">'
        )

    def grid(self):
        import math

        for gx in range(math.ceil(self.x0), math.floor(self.x1) + 1):
            for gy in range(math.ceil(self.y0), math.floor(self.y1) + 1):
                cx, cy = self.pt((gx, gy))
                self.parts.append(
                    f'<circle class="grid" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                    'r="1.5" fill="#bbbbbb"/>'
                )

    def polygon(self, pts, cls="cell"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.pt, pts))
        self.parts.append(
            f'<polygon class="{cls}" points="{coords}" '
            'fill="#dce8f5" stroke="#003366" stroke-width="1.5"/>'
        )

    def path(self, a, b, cls, dashed=False, label=None):
        (x0, y0), (x1, y1) = self.pt(a), self.pt(b)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<path class="{cls}" d="M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)}" '
            f'stroke="#003366" stroke-width="2" fill="none"{dash}/>'
        )
        if label is not None:
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            self.parts.append(
                f'<text class="label" x="{_fmt(mx + 4)}" y="{_fmt(my - 4)}" '
                f'font-size="12">{label}</text>'
            )

    def clip(self, base, direction, line=False):
        """Endpoints of the ray from base along direction, or of the whole
        line through base when `line` is set, cut at the viewbox."""
        bx, by = Fraction(base[0]), Fraction(base[1])

        def far(dx, dy):
            best = None
            for coord, d, lo, hi in ((bx, dx, self.x0, self.x1), (by, dy, self.y0, self.y1)):
                if d == 0:
                    continue
                bound = Fraction(hi) if d > 0 else Fraction(lo)
                t = (bound - coord) / d
                best = t if best is None else min(best, t)
            t = max(best if best is not None else Fraction(0), Fraction(0))
            return (bx + t * dx, by + t * dy)

        dx, dy = direction
        return (far(-dx, -dy) if line else base), far(dx, dy)

    def render(self) -> str:
        return "\n".join([self.header(), *self.parts, "</svg>"])


def _bbox(points):
    xs = [Fraction(p[0]) for p in points]
    ys = [Fraction(p[1]) for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def render_svg(obj) -> str:
    """Render a Subdivision, PlaneCurve or Divisor to a deterministic SVG."""
    if isinstance(obj, Subdivision):
        return _render_subdivision(obj)
    if isinstance(obj, PlaneCurve):
        return _render_curve(obj)
    if isinstance(obj, Divisor):
        return _render_divisor(obj)
    raise TropError(f"cannot render a {type(obj).__name__}")


def _render_subdivision(sub: Subdivision) -> str:
    if sub.arity != 2:
        raise TropError("only 2-dimensional subdivisions can be rendered")
    pts = [p for cell in sub.cells for p in cell]
    canvas = _Canvas(*_bbox(pts))
    canvas.grid()
    for cell in sub.cells:
        pts = sorted(cell)
        hull = geom.hull2(pts)
        if hull.dim == 2:
            canvas.polygon(hull.vertices)
        else:
            canvas.path(pts[0], pts[-1], "cell-segment")
    return canvas.render()


def _render_curve(C: PlaneCurve) -> str:
    anchor_pts = list(C.vertices)
    anchor_pts += [r.base for r in C.rays]
    anchor_pts += [L.base for L in C.lines]
    anchor_pts += [e.a for e in C.edges] + [e.b for e in C.edges]
    if not anchor_pts:
        anchor_pts = [(0, 0)]
    canvas = _Canvas(*_bbox(anchor_pts))
    canvas.grid()
    for e in C.edges:
        canvas.path(e.a, e.b, "edge", label=e.weight if e.weight > 1 else None)
    for r in C.rays:
        a, b = canvas.clip(r.base, r.direction)
        canvas.path(a, b, "ray", label=r.weight if r.weight > 1 else None)
    for L in C.lines:
        a, b = canvas.clip(L.base, L.direction, line=True)
        canvas.path(a, b, "line", label=L.weight if L.weight > 1 else None)
    return canvas.render()


def _render_divisor(D: Divisor) -> str:
    anchors = []
    for kind, *data, _w in D.pieces():
        if kind == "segment":
            anchors += [data[0], data[1]]
        else:
            anchors.append(data[0])
    if not anchors:
        anchors = [(0, 0)]
    canvas = _Canvas(*_bbox(anchors))
    canvas.grid()
    for piece in sorted(D.pieces(), key=str):
        kind = piece[0]
        w = piece[-1]
        dashed = w < 0
        label = w if abs(w) != 1 else None
        if kind == "segment":
            a, b = piece[1], piece[2]
        else:
            a, b = canvas.clip(piece[1], piece[2], line=kind == "line")
        canvas.path(a, b, kind, dashed, label)
    return canvas.render()
