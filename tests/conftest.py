import random
from fractions import Fraction
from math import lcm

import pytest

from troprat import TropPoly, parse_poly

X = ("x",)
XY = ("x", "y")

# the rational function with two distinct minimum-volume representations
ALT_MIN_NUM_1 = "x*y + (-1)*y^2 + x + y + 0"
ALT_MIN_DEN_1 = "(-1)*x*y^2 + x*y + (-1)*y^2 + x + y"
ALT_MIN_NUM_2 = "x^2 + x*y + (-1)*y^2 + x + (-1)*y"
ALT_MIN_DEN_2 = "(-1)*x^2*y + (-1)*x*y^2 + x^2 + x*y + (-1)*y^2"

# factor splittings of the four polynomials above, all with fcomp 4
ALT_MIN_FACTORS = [
    ("x + (-1)*y + 0", "y + 0"),
    ("x + y + 0", "x + (-1)*y"),
    ("x*y + x + y", "(-1)*y + 0"),
    ("(-1)*x*y + x + (-1)*y", "x + y"),
]

# the unique-minimum pair whose factorizations are never complexity-minimal
UNIQUE_MIN_NUM = "x^2 + x*y + y^2 + x + y"
UNIQUE_MIN_DEN = "x*y + x + y"
LARGER_VOL_NUM = "x^2 + x*y + y^2 + x + y + 0"
LARGER_VOL_DEN = "x*y + x + y + 0"

# union of four lines; has two distinct irreducible factorizations
FOUR_LINES = "x^2*y^3 + x*y^4 + x^2*y^2 + x*y^3 + x^2*y + x*y^2 + y^3 + x*y + y^2 + x + y"
FOUR_LINES_NATURAL = "x^2y^3 + xy^4 + x^2y^2 + xy^3 + x^2y + xy^2 + y^3 + xy + y^2 + x + y"
FOUR_LINES_FACTOR_A = "x*y^2 + x*y + x + y"
FOUR_LINES_FACTOR_B = "x*y + y^2 + y + 0"
FOUR_LINES_LINES = ("x*y + 0", "x + y", "y + 0", "y + 0")

UNI_NUM_1, UNI_DEN_1 = "x + 0", "x + 1"
UNI_NUM_2, UNI_DEN_2 = "(-2)*x^2 + x + 0", "(-2)*x^2 + x + 1"


def p1(src: str) -> TropPoly:
    return parse_poly(src, X)


def p2(src: str) -> TropPoly:
    return parse_poly(src, XY)


def rand_fraction(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_poly(
    rng: random.Random,
    arity: int,
    max_terms: int = 5,
    exp_range=(0, 3),
    coeff_span: int = 4,
    integer_coeffs: bool = True,
    min_terms: int = 1,
) -> TropPoly:
    lo, hi = exp_range
    n_terms = rng.randint(min_terms, max_terms)
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(lo, hi) for _ in range(arity))
        c = rng.randint(-coeff_span, coeff_span) if integer_coeffs else rand_fraction(rng, coeff_span)
        terms[e] = max(terms.get(e, c), c)
    return TropPoly(arity, terms)


def cleared_lifts(lifted) -> dict:
    """((x, y), value) pairs as {(x, y): int} over the lcm of the values'
    denominators, as `TropPoly` keeps its terms."""
    m = lcm(*(Fraction(c).denominator for _p, c in lifted))
    return {p: int(c * m) for p, c in lifted}


def rand_lattice_polygon(rng: random.Random, box: int = 4, points: int = 6):
    from troprat import hull2

    pts = [(rng.randint(0, box), rng.randint(0, box)) for _ in range(rng.randint(1, points))]
    return hull2(pts)


@pytest.fixture(scope="session")
def alt_min_pairs():
    return (
        (p2(ALT_MIN_NUM_1), p2(ALT_MIN_DEN_1)),
        (p2(ALT_MIN_NUM_2), p2(ALT_MIN_DEN_2)),
    )


@pytest.fixture(scope="session")
def four_lines():
    return p2(FOUR_LINES)
