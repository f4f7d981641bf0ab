import random
from fractions import Fraction

import pytest

from troprat import (
    BOTTOM,
    DimensionMismatch,
    TropNum,
    TropPoly,
    TropRational,
    canonicalize,
    func_eq,
    is_unit,
    rat_eq,
    rat_eval,
    trop_add,
    trop_mul,
)
from conftest import ALT_MIN_DEN_1, ALT_MIN_DEN_2, ALT_MIN_NUM_1, ALT_MIN_NUM_2, p1, p2, rand_fraction, rand_poly
from oracles import envelope_value, sample_grid


class TestTropNum:
    def test_semiring_laws(self):
        rng = random.Random(101)
        elems = [BOTTOM] + [TropNum.of(rand_fraction(rng)) for _ in range(12)]
        for a in elems:
            assert a + BOTTOM == a
            assert BOTTOM + a == a
            assert a * BOTTOM == BOTTOM
            assert a + a == a  # idempotent
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    def test_quotient_and_order(self):
        assert TropNum.of(5) / TropNum.of(2) == TropNum.of(3)
        assert (BOTTOM / TropNum.of(1)).is_bottom
        with pytest.raises(ZeroDivisionError):
            TropNum.of(1) / BOTTOM
        assert BOTTOM < TropNum.of(-100)
        assert TropNum.of(Fraction(1, 3)) < TropNum.of(Fraction(1, 2))

    def test_string_outside_number_grammar_rejected(self):
        # Fraction() alone would expand "1e400" into a 401-digit integer
        for text in ("1e400", "1E2", " 1", "1 ", "1_0", "inf", "0x10", "+1", "1.", ".5"):
            with pytest.raises(ValueError):
                TropNum.of(text)
        assert TropNum.of("-3/6") == TropNum.of(Fraction(-1, 2))
        assert TropNum.of("2.50") == TropNum.of(Fraction(5, 2))


class TestEval:
    def test_examples(self):
        assert p1("x + 0")((5,)) == TropNum.of(5)
        assert p1("(-2)*x^2 + x + 0")((3,)) == TropNum.of(4)
        assert TropPoly.zero(1)((17,)).is_bottom

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            p1("x + 0")((1, 2))

    def test_eval_is_semiring_homomorphism(self):
        rng = random.Random(7)
        for _ in range(60):
            arity = rng.choice((1, 2))
            f = rand_poly(rng, arity)
            g = rand_poly(rng, arity)
            pt = tuple(rand_fraction(rng) for _ in range(arity))
            assert trop_mul(f, g)(pt) == f(pt) * g(pt)
            assert trop_add(f, g)(pt) == f(pt) + g(pt)


class TestArithmetic:
    def test_mul_example(self):
        assert trop_mul(p1("x + 0"), p1("x + 2")) == p1("x^2 + 2*x + 2")

    def test_mul_absorbing(self):
        f = p1("x + 0")
        assert trop_mul(f, TropPoly.zero(1)).is_bottom

    def test_add_coefficientwise(self):
        assert trop_add(p1("x + 0"), p1("x + 1")) == p1("x + 1")

    def test_monomial_power_closed_form(self):
        m = TropPoly.monomial((1, -2), Fraction(1, 2))
        for k in range(-3, 5):
            repeated = TropPoly.constant(2, 0)
            for _ in range(abs(k)):
                repeated = repeated * m
            if k < 0:
                (e, c), = repeated.items()
                repeated = TropPoly.monomial(tuple(-i for i in e), -c)
            assert m**k == repeated

    def test_huge_monomial_power_parses_and_evaluates(self):
        f = p1("x^99999999999999999999")
        assert f((1,)) == TropNum.of(99999999999999999999)


class TestCanonicalize:
    def test_fills_gap(self):
        assert canonicalize(p1("x^2 + 0")) == p1("x^2 + 0*x + 0")

    def test_concave_unchanged(self):
        f = p1("(-2)*x^2 + x + 0")
        assert canonicalize(f) == f

    def test_bottom(self):
        assert canonicalize(TropPoly.zero(2)).is_bottom

    def test_idempotent_and_function_preserving(self):
        rng = random.Random(21)
        for _ in range(40):
            arity = rng.choice((1, 2))
            f = rand_poly(rng, arity, integer_coeffs=False)
            cf = canonicalize(f)
            assert canonicalize(cf) == cf
            for pt in sample_grid(arity, radius=3)[::5]:
                assert cf(pt) == f(pt)

    def test_matches_envelope_oracle(self):
        rng = random.Random(22)
        for _ in range(30):
            arity = rng.choice((1, 2))
            f = rand_poly(rng, arity)
            cf = canonicalize(f)
            for e, c in cf.items():
                assert envelope_value(f, e) == c
            # no support outside the brute-force hull either
            assert set(cf.support) == {
                e for e, _ in cf.items() if envelope_value(f, e) is not None
            }


class TestFuncEq:
    def test_examples(self):
        assert func_eq(p1("x^2 + 0"), p1("x^2 + 0*x + 0"))
        assert not func_eq(p1("x + 0"), p1("x + 1"))
        lhs = p2("x^2 + x*y + y^2 + x + y + 0")
        rhs = trop_mul(p2("x + y + 0"), p2("x + y + 0"))
        assert func_eq(lhs, rhs)

    def test_agrees_with_grid_sampling(self):
        rng = random.Random(31)
        for _ in range(30):
            arity = rng.choice((1, 2))
            f = rand_poly(rng, arity)
            g = rand_poly(rng, arity)
            verdict = func_eq(f, g)
            sampled = all(f(pt) == g(pt) for pt in sample_grid(arity, radius=4))
            if verdict:
                assert sampled
            if not sampled:
                assert not verdict


class TestRational:
    def test_rat_eval(self):
        phi = TropRational(p1("x + 0"), p1("x + 1"))
        assert rat_eval(phi, (2,)) == TropNum.of(0)
        assert rat_eval(phi, (0,)) == TropNum.of(-1)
        bottom_phi = TropRational(TropPoly.zero(1), p1("x + 0"))
        assert rat_eval(bottom_phi, (9,)).is_bottom

    def test_rat_eq_examples(self):
        assert rat_eq(
            TropRational(p1("x + 0"), p1("x + 1")),
            TropRational(p1("(-2)*x^2 + x + 0"), p1("(-2)*x^2 + x + 1")),
        )
        assert rat_eq(
            TropRational(p2(ALT_MIN_NUM_1), p2(ALT_MIN_DEN_1)),
            TropRational(p2(ALT_MIN_NUM_2), p2(ALT_MIN_DEN_2)),
        )
        assert not rat_eq(
            TropRational(p1("x + 0"), p1("0")),
            TropRational(p1("x + 1"), p1("0")),
        )

    def test_invalid_denominator(self):
        with pytest.raises(Exception):
            TropRational(p1("x + 0"), TropPoly.zero(1))


def test_is_unit():
    assert is_unit(p1("3*x^2"))
    assert not is_unit(p1("x + 0"))
    assert not is_unit(TropPoly.zero(1))
