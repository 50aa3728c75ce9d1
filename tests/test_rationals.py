"""Exact rational scalars: arithmetic, serialization, float approximation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvkit.errors import DomainError, ResourceLimitError
from hvkit.rationals import (
    MAX_RATIONAL_DIGITS,
    approximate_from_float,
    rational_from_string,
    rational_to_string,
)


def small_fractions(max_value=50):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_value, max_value=max_value),
        st.integers(min_value=1, max_value=max_value),
    )


class TestArithmetic:
    def test_addition_reduces(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_multiplication_by_zero(self):
        result = Fraction(1, 2) * Fraction(0)
        assert result == 0
        assert result.denominator == 1

    def test_canonical_form(self):
        q = Fraction(2, 4)
        assert (q.numerator, q.denominator) == (1, 2)
        assert Fraction(-3, -6) == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(small_fractions(), small_fractions(), small_fractions())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


class TestSerialization:
    def test_to_string_canonical(self):
        assert rational_to_string(Fraction(1, 2)) == "1/2"
        assert rational_to_string(Fraction(0)) == "0/1"
        assert rational_to_string(Fraction(-2, 4)) == "-1/2"
        assert rational_to_string(Fraction(3)) == "3/1"

    def test_parse_fraction_and_integer(self):
        assert rational_from_string("1/2") == Fraction(1, 2)
        assert rational_from_string("-1/2") == Fraction(-1, 2)
        assert rational_from_string("7") == Fraction(7)
        assert rational_from_string(" 2/6 ") == Fraction(1, 3)

    @pytest.mark.parametrize("bad", ["1/0", "1/-2", "", "x", "1/2/3", "1.5", "1 /2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            rational_from_string(bad)

    @given(small_fractions())
    def test_round_trip(self, q):
        assert rational_from_string(rational_to_string(q)) == q

    def test_digit_cap(self):
        n = "9" * MAX_RATIONAL_DIGITS
        assert rational_from_string(f"-{n}/{n}") == -1
        assert rational_to_string(rational_from_string(f"{n}/7")) == f"{n}/7"
        for text in (f"{n}9", f"-{n}9", f"1/{n}9"):
            with pytest.raises(ValueError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
                rational_from_string(text)

    def test_output_digit_cap(self):
        widest = 10**MAX_RATIONAL_DIGITS - 1
        assert rational_to_string(Fraction(-widest, widest - 1)) == f"-{widest}/{widest - 1}"
        for value in (Fraction(widest + 1), Fraction(-widest - 1), Fraction(1, widest + 1)):
            with pytest.raises(ResourceLimitError, match="MAX_RATIONAL_DIGITS"):
                rational_to_string(value)

    def test_rejected_text_is_quoted_with_a_bounded_prefix(self):
        for text in ("y" * 10_000, "1/" + "0" * 4000):
            with pytest.raises(ValueError) as caught:
                rational_from_string(text)
            message = str(caught.value)
            assert len(message) < 120
            assert f"({len(text)} characters)" in message


def best_approximation_brute_force(x: Fraction, max_denominator: int) -> Fraction:
    """Independent oracle: try every admissible denominator."""
    best = None
    for d in range(1, max_denominator + 1):
        n = round(x * d)
        candidate = Fraction(n, d)
        if best is None or abs(candidate - x) < abs(best - x):
            best = candidate
    return best


def convergents_from_float(x: float):
    """Independent continued-fraction expansion of the exact binary value."""
    value = Fraction(x)
    coefficients = []
    while True:
        a = value.numerator // value.denominator
        coefficients.append(a)
        frac = value - a
        if frac == 0 or len(coefficients) > 64:
            break
        value = 1 / frac
    h_prev, h = 1, coefficients[0]
    k_prev, k = 0, 1
    yield Fraction(h, k)
    for a in coefficients[1:]:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        yield Fraction(h, k)


class TestApproximateFromFloat:
    def test_exactly_representable(self):
        assert approximate_from_float(0.5, 100) == Fraction(1, 2)
        assert approximate_from_float(0.0, 10) == Fraction(0)
        assert approximate_from_float(1.0, 10) == Fraction(1)

    def test_boundary_validation(self):
        with pytest.raises(DomainError):
            approximate_from_float(1.0000001, 10)
        with pytest.raises(DomainError):
            approximate_from_float(-0.1, 10)
        with pytest.raises(DomainError):
            approximate_from_float(0.5, 0)

    def test_quarter_turn_probability_convergent(self):
        # (2 + sqrt 2)/4, a Born probability at the optimal test angles
        x = (2.0 + math.sqrt(2.0)) / 4.0
        approx = approximate_from_float(x, 10**6)

        # frozen from the independent continued-fraction oracle below:
        # the best admissible approximant is the semiconvergent between
        # 235416/275807 and 1136689/1331714, with error ~2.324e-12 (the
        # best achievable at this denominator cap)
        assert approx == Fraction(665857, 780100)

        exact = Fraction(x)
        for convergent in convergents_from_float(x):
            if convergent.denominator <= 10**6:
                assert abs(approx - exact) <= abs(convergent - exact)
        assert approx.denominator <= 10**6
        assert abs(approx - exact) < Fraction(3, 10**12)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150)
    def test_monotone_error_against_brute_force(self, x, max_denominator):
        approx = approximate_from_float(x, max_denominator)
        assert approx.denominator <= max_denominator
        assert 0 <= approx <= 1
        oracle = best_approximation_brute_force(Fraction(x), max_denominator)
        assert abs(approx - Fraction(x)) == abs(oracle - Fraction(x))
