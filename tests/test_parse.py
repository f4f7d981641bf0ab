import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troprat import LexError, ParseError, TropError, TropPoly, format_poly, parse_poly, tokenize
from conftest import (
    ALT_MIN_DEN_1,
    ALT_MIN_NUM_1,
    FOUR_LINES,
    FOUR_LINES_NATURAL,
    XY,
    p1,
    p2,
    rand_fraction,
)

X, Y = TropPoly.variable(0, 2), TropPoly.variable(1, 2)


def C(value):
    return TropPoly.constant(2, Fraction(value))


class TestTokenize:
    def test_simple(self):
        kinds = [t.kind for t in tokenize("x + 0")]
        assert kinds == ["Variable", "Plus", "Number", "Eof"]

    def test_eleven_tokens(self):
        toks = tokenize("(-2)*x^2 + x + 0")
        assert len(toks) - 1 == 11  # excluding the synthetic end marker

    def test_lex_error_position(self):
        with pytest.raises(LexError) as err:
            tokenize("x $ y")
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "text, position",
        [
            ("\u0663x + 0", 0),  # Arabic-Indic digit three
            ("\u00b2x + 0", 0),  # superscript two
            ("x + \u0663", 4),
            ("-\u0663x + 0", 0),  # a '-' before a non-ASCII digit is stray
            ("x\u00e9 + 0", 1),  # e with acute accent
            ("\uff58 + 0", 0),  # fullwidth x
        ],
        ids=["arabic-digit", "superscript", "late-digit", "signed", "accent", "fullwidth"],
    )
    def test_non_ascii_digits_and_letters_are_lex_errors(self, text, position):
        for parse in (tokenize, parse_poly):
            with pytest.raises(LexError) as err:
                parse(text)
            assert err.value.position == position

    def test_positions_strictly_increase(self):
        toks = tokenize("3*x^2 + (1/2)y + -inf")
        positions = [t.position for t in toks[:-1]]
        assert positions == sorted(set(positions))


class TestParse:
    def test_mixed_coefficient_input(self):
        f = parse_poly("x*y + (-1)*y^2 + x + y + 0", XY)
        assert f.coeff((1, 1)) == 0
        assert f.coeff((0, 2)) == -1
        assert f.coeff((0, 0)) == 0
        assert len(f) == 5

    def test_juxtaposition_matches_starred(self):
        assert p2(FOUR_LINES_NATURAL) == p2(FOUR_LINES)
        assert p2("3x^2y") == p2("3*x^2*y")

    def test_laurent_exponent(self):
        f = parse_poly("x^-2 + 0", ("x",))
        assert f.coeff((-2,)) == 0

    def test_parse_error_at_end(self):
        with pytest.raises(ParseError):
            parse_poly("x + ", ("x",))

    def test_rational_and_decimal_literals(self):
        f = p1("(1/2)*x + 2.5")
        assert f.coeff((1,)) == Fraction(1, 2)
        assert f.coeff((0,)) == Fraction(5, 2)
        g = p1("(-1/2)x")
        assert g.coeff((1,)) == Fraction(-1, 2)

    def test_slash_outside_parens_rejected(self):
        with pytest.raises(ParseError):
            p1("x / 2")

    def test_minus_inf_rules(self):
        assert parse_poly("-inf", ("x",)).is_bottom
        assert parse_poly("  -inf ", XY).is_bottom
        with pytest.raises(ParseError):
            p1("x + -inf")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x + z", XY)

    def test_power_of_sum(self):
        assert p2("(x + y + 0)^2") == p2("x^2 + x*y + y^2 + x + y + 0")

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(ParseError):
            p1("(x + 0)^-1")

    def test_negative_power_error_names_the_inner_factor(self):
        with pytest.raises(ParseError) as err:
            p1("3 + ((x + 0)^-1)^2")
        assert err.value.position == 5

    @pytest.mark.parametrize(
        "src, product",
        [
            ("3x^2y(x + 0)^2(1/2)", lambda: C(3) * X**2 * Y * (X + C(0)) ** 2 * C(Fraction(1, 2))),
            ("x^-1 y^0 (-2)^3", lambda: X**-1 * Y**0 * C(-2) ** 3),
            ("(x + y)^0 x", lambda: (X + Y) ** 0 * X),
            ("2(x + y)(x + 0)1.5y^-2", lambda: C(2) * (X + Y) * (X + C(0)) * C(1.5) * Y**-2),
            ("(x)^-2(y + 1)^2", lambda: X**-2 * (Y + C(1)) ** 2),
            ("xy^2", lambda: X * Y**2),
        ],
    )
    def test_term_is_the_product_of_its_factors(self, src, product):
        assert p2(src) == C(0) * product()

    def test_first_error_in_reading_order(self):
        # the negative power is folded before the second '+' is read
        with pytest.raises(ParseError) as err:
            p1("(x + 0)^-1 + + 0")
        assert err.value.position == 0

    def test_empty_variable_list(self):
        with pytest.raises(ParseError):
            parse_poly("x", ())


# Random expression trees, rendered to text and evaluated with TropPoly
# operators.  A sum is a list of terms, a term a list of (separator, factor),
# and a factor one of ("number", (text, value), power),
# ("names", variable indices, power) or ("paren", sum, power); power is None
# or an int.


def _decimal(sign, whole, digits):
    value = whole + Fraction(int(digits), 10 ** len(digits))
    return f"{sign}{whole}.{digits}", -value if sign else value


_NUMBERS = st.one_of(
    st.integers(-9, 9).map(lambda n: (str(n), Fraction(n))),
    st.builds(
        _decimal,
        st.sampled_from(("", "-")),
        st.integers(0, 9),
        st.text("0123456789", min_size=1, max_size=2),
    ),
    st.builds(lambda p, q: (f"({p}/{q})", Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9)),
)
_POWERS = st.none() | st.integers(-2, 3)
_SEPARATORS = st.sampled_from(("*", " * ", " ", ""))


def _sums(factors):
    terms = st.lists(st.tuples(_SEPARATORS, factors), min_size=1, max_size=3)
    return st.lists(terms, min_size=1, max_size=3)


_LEAVES = st.one_of(
    st.tuples(st.just("number"), _NUMBERS, _POWERS),
    # a juxtaposed identifier like "xy^2": the power binds to the last name
    st.tuples(st.just("names"), st.lists(st.integers(0, 1), min_size=1, max_size=3), _POWERS),
)


def _factors(depth):
    if depth == 0:
        return _LEAVES
    return _LEAVES | st.tuples(st.just("paren"), _sums(_factors(depth - 1)), _POWERS)


_TREES = _sums(_factors(2))


class _Render:
    """Writes a tree as text and folds it with TropPoly operators.  `error`
    is the offset of the '(' of the first negative power of a non-monomial,
    first in the order the parser completes factors."""

    def __init__(self, tree):
        self.text, self.error = "", None
        self.value = self.sum(tree)

    def sum(self, terms):
        values = []
        for i, term in enumerate(terms):
            self.text += " + " if i else ""
            values.append(self.term(term))
        return sum(values[1:], values[0])

    def term(self, factors):
        value = C(0)
        for i, (sep, factor) in enumerate(factors):
            # juxtaposed numbers would run together: "2" "3" is not "23"
            if sep == "" and factor[0] == "number" and not factor[1][0].startswith("("):
                sep = " "
            self.text += sep if i else ""
            value = value * self.factor(*factor)
        return value

    def factor(self, kind, body, power):
        at, k = len(self.text), 1 if power is None else power
        if kind == "number":
            self.text += body[0]
            base = C(body[1])
        elif kind == "names":
            self.text += "".join("xy"[i] for i in body)
            base = C(0)
            for i in body[:-1]:
                base = base * (X, Y)[i]
            base, k = base * (X, Y)[body[-1]] ** k, 1
        else:
            self.text += "("
            base = self.sum(body)
            self.text += ")"
        if power is not None:
            self.text += f"^{power}"
        try:
            return base**k
        except TropError:
            if self.error is None:
                self.error = at
            return base


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_parse_equals_the_folded_tree(tree):
    r = _Render(tree)
    if r.error is None:
        assert parse_poly(r.text, XY) == r.value
    else:
        with pytest.raises(ParseError) as err:
            parse_poly(r.text, XY)
        assert err.value.position == r.error


class TestFormat:
    def test_canonical_order(self):
        assert format_poly(p1("0 + x")) == "x + 0"

    def test_bottom(self):
        assert format_poly(TropPoly.zero(1)) == "-inf"

    def test_negative_and_fraction_coefficients(self):
        f = p2("(-1)*x*y^2 + (1/3)*x + 0")
        assert format_poly(f, XY) == "(-1)*x*y^2 + (1/3)*x + 0"

    def test_round_trip_random(self):
        rng = random.Random(55)
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

    def test_all_fixture_sources_round_trip(self):
        for src in (ALT_MIN_NUM_1, ALT_MIN_DEN_1, FOUR_LINES):
            f = p2(src)
            assert parse_poly(format_poly(f, XY), XY) == f
