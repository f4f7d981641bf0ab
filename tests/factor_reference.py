"""Reference factorization of polynomials whose Newton polygon is a segment.

This is the recursive search that `rep.enumerate_factorizations` replaced
with a closed form read off the envelope's roots: split off one linear
factor per root by residuation, keep the splits whose product equals the
input as a function, and recurse into both parts without a depth bound.
Each split lowers the lattice length of the segment by one, so the
recursion ends.  The tests require the library to return exactly what this
returns.  It lives apart from `oracles.py`, which the benchmark's
correctness checks import.
"""
from fractions import Fraction

from troprat.core import TropPoly, canonicalize, envelope, func_eq, newton_polygon
from troprat.geom import lattice_length
from troprat.rep import _residual, _unit_key


def segment_splits(fc: TropPoly):
    """Verified (linear, rest) splits of a canonical segment polynomial."""
    env = envelope(fc)
    _origin, step = env.chain
    out = []
    for root, _mult in env.roots:
        linear = TropPoly(2, {step: Fraction(0), (0, 0): root})
        g = _residual(fc, linear)
        if g is None or g.is_bottom or g.is_unit:
            continue
        if func_eq(linear * g, fc):
            out.append((linear, g))
    return out


def segment_factorizations(f: TropPoly) -> set:
    """The trivial factorization of f plus every complete one the recursive
    search finds, each a sorted tuple of `rep._unit_key` factor keys."""
    memo: dict = {}

    def complete(p: TropPoly):
        fc = canonicalize(p)
        key = _unit_key(fc)
        if key in memo:
            return memo[key]
        splits = []
        if not p.is_unit and lattice_length(*newton_polygon(p).vertices) > 1:
            splits = segment_splits(fc)
        results = {
            tuple(sorted(left + right))
            for g, h in splits
            for left in complete(g)
            for right in complete(h)
        }
        memo[key] = results or {(key,)}
        return memo[key]

    return {(_unit_key(canonicalize(f)),)} | complete(f)
