"""Reference versions of the factorization search, kept to check the
library's faster forms against.

`segment_factorizations` is the recursive search that
`rep.enumerate_factorizations` replaced with a closed form read off the
envelope's roots: split off one linear factor per root by residuation, keep
the splits whose product equals the input as a function, and recurse into
both parts without a depth bound.  Each split lowers the lattice length of
the segment by one, so the recursion ends.

`unit_normalize` is `rep.unit_normalize` as first written: a shift and a
scale through two validated polynomials, where the library now reads the
normal form off `rep._unit_key`.

`splits` is `rep._splits` as first written: three residuation rounds, each
pair multiplied and checked with `func_eq` before its dedupe key is looked
up, and a residual whose shift set is the intersection, over the divisor's
corners, of the support of fc shifted back by that corner.  It imports no
residuation code from the library.

The tests require the library to return exactly what these return.  They
live apart from `oracles.py`, which the benchmark's correctness checks
import.
"""
from fractions import Fraction
from math import lcm
from operator import add, sub

from troprat import geom
from troprat.core import TropPoly, canonicalize, envelope, func_eq, newton_polygon
from troprat.geom import lattice_length
from troprat.rep import _unit_key


def unit_normalize(f: TropPoly) -> TropPoly:
    """Divide by a unit: shift the componentwise-minimal exponent to zero and
    the coefficient at the lex-least support point to zero."""
    if f.is_bottom:
        return f
    support = f.support
    mins = tuple(min(e[i] for e in support) for i in range(f.arity))
    shifted = f.shift(tuple(-m for m in mins))
    anchor = min(shifted.support)
    return shifted.scale(-shifted.coeff(anchor))


def residual_at(fc: TropPoly, m_g: int, corners) -> TropPoly | None:
    """The maximal h with g*h <= fc, g given by its envelope corners as
    (exponent, int) pairs over m_g; None when no shift fits."""
    m = lcm(fc._m, m_g)
    fi, lift = fc._over(m), m // m_g
    corners = [(i, c * lift) for i, c in corners]
    shifts = None
    for i, _c in corners:
        ks = {tuple(map(sub, e, i)) for e in fi}
        shifts = ks if shifts is None else shifts & ks
        if not shifts:
            return None
    terms = {k: min(fi[tuple(map(add, k, i))] - c for i, c in corners) for k in shifts}
    return TropPoly._from_ints(fc.arity, m, terms)


def residual(fc: TropPoly, g: TropPoly) -> TropPoly | None:
    env = envelope(g)
    return residual_at(fc, env.f._m, [(i, env.f._ints[i]) for i in env._corners])


def splits(f: TropPoly):
    """Verified two-factor splits from the Minkowski summand pairs of Newt(f),
    in the order `rep._splits` returns them."""
    fc = canonicalize(f)
    out = []
    seen = set()
    for pair in geom.summand_decompositions(newton_polygon(f)):
        for summand in pair:
            g = residual_at(fc, 1, [(v, 0) for v in summand.vertices])
            if g is None or g.is_bottom or g.is_unit:
                continue
            h = residual(fc, g)
            if h is None or h.is_bottom or h.is_unit:
                continue
            g2 = residual(fc, h)
            if g2 is not None and not g2.is_bottom:
                g = g2
            if not func_eq(g * h, f):
                continue
            key = tuple(sorted((_unit_key(g), _unit_key(h))))
            if key in seen:
                continue
            seen.add(key)
            out.append((g, h))
    return out


def segment_splits(fc: TropPoly):
    """Verified (linear, rest) splits of a canonical segment polynomial."""
    env = envelope(fc)
    _origin, step = env.chain
    out = []
    for root, _mult in env.roots:
        linear = TropPoly(2, {step: Fraction(0), (0, 0): root})
        g = residual(fc, linear)
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
