"""The integer parser terms and curve pieces against the Fraction versions they
replaced (`curve_reference.py`): the same divisor, balancing verdict and ray
weights on random plane curves, some with a weight changed, and the same
polynomial or error from random term texts."""
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import curve_reference
from troprat import (
    TropError,
    TropPoly,
    balancing_check,
    canonicalize,
    curve_to_divisor,
    parse_poly,
    plane_curve,
)

CURVE = settings(max_examples=100, deadline=None)
PARSE = settings(max_examples=200, deadline=None)
XY = ("x", "y")

coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
plane_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
steps = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (1, 3), (-3, 2)])


def _same_as_reference(C):
    assert balancing_check(C) is curve_reference.balancing_check(C)
    D = curve_to_divisor(C)
    assert repr(D) == repr(curve_reference.curve_to_divisor(C))
    for piece in C.rays + C.lines:
        for k in (1, 2, -1):  # along, scaled, and against the piece
            d = (k * piece.direction[0], k * piece.direction[1])
            want = curve_reference.weight_on_ray(D, piece.base, d)
            assert D.weight_on_ray(piece.base, d) == want


def _check_with_a_changed_weight(C, data):
    _same_as_reference(C)
    assert balancing_check(C)
    kinds = [kind for kind in ("edges", "rays", "lines") if getattr(C, kind)]
    kind = data.draw(st.sampled_from(kinds))
    pieces = list(getattr(C, kind))
    i = data.draw(st.integers(0, len(pieces) - 1))
    bump = data.draw(st.sampled_from((-1, 1, 2)))
    pieces[i] = replace(pieces[i], weight=pieces[i].weight + bump)
    changed = replace(C, **{kind: tuple(pieces)})
    _same_as_reference(changed)
    # lines meet no vertex; any other piece ends at one that no longer balances
    assert balancing_check(changed) is (kind == "lines")


@CURVE
@given(
    st.dictionaries(plane_points, coeffs, min_size=2, max_size=10),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
)
def test_curve_pieces_match_the_reference(terms, k, canonical, data):
    # a dilation by k gives edges of lattice length k or more
    f = TropPoly(2, {(k * x, k * y): c for (x, y), c in terms.items()})
    _check_with_a_changed_weight(plane_curve(canonicalize(f) if canonical else f), data)


@CURVE
@given(
    plane_points,
    steps,
    st.dictionaries(st.integers(0, 6), coeffs, min_size=2, max_size=7),
    st.data(),
)
def test_line_pieces_match_the_reference(start, step, terms, data):
    x, y = start
    f = TropPoly(2, {(x + t * step[0], y + t * step[1]): c for t, c in terms.items()})
    _check_with_a_changed_weight(plane_curve(f), data)


# a term is a run of factors: numbers (integers, decimals and rational
# literals with denominators of either sign, now and then 0), names and
# parenthesised sums, each with an optional power
_POWERS = st.sampled_from(("", "^2", "^-1", "^3", "^0"))
_NUMBERS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds(
        "{}{}.{}".format,
        st.sampled_from(("", "-")),
        st.integers(0, 9),
        st.text("0123456789", min_size=1, max_size=2),
    ),
    st.builds("({}/{})".format, st.integers(-9, 9), st.integers(-9, 9)),
)
_SUMS = st.sampled_from(("(x + (1/2)y + -3)", "(x + 0)", "(2x + (-1/3))"))
_FACTORS = st.builds(
    str.__add__, _NUMBERS | st.sampled_from(("x", "y", "xy", "yx")) | _SUMS, _POWERS
)
_TERMS = st.builds(
    lambda first, rest: first + "".join(sep + factor for sep, factor in rest),
    _FACTORS,
    st.lists(st.tuples(st.sampled_from(("*", " ", " * ")), _FACTORS), max_size=4),
)


def _outcome(parse, text):
    """The polynomial, or the error's type, message and position."""
    try:
        return "ok", parse(text, XY)
    except (ZeroDivisionError, TropError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@PARSE
@given(st.lists(_TERMS, min_size=1, max_size=4).map(" + ".join))
def test_terms_match_the_fraction_reference(text):
    assert _outcome(parse_poly, text) == _outcome(curve_reference.parse_poly, text)
