"""Exact/float scalar helpers."""

from fractions import Fraction

import pytest

from admcdm.scalars import exact, fmt, is_exact, sig


def test_exact_passes_fractions_through():
    v = Fraction(3, 7)
    assert exact(v) is v


def test_exact_converts_ints_and_strings():
    assert exact(4) == Fraction(4)
    assert exact("0.8") == Fraction(4, 5)
    assert exact("9/5") == Fraction(9, 5)


def test_exact_reads_finite_floats_exactly():
    assert exact(0.5) == 0.5
    assert isinstance(exact(0.5), Fraction)
    assert exact(0.1) == Fraction(3602879701896397, 36028797018963968)
    # inf and nan stay floats, which the model's checks refuse
    assert exact(float("inf")) == float("inf")
    assert isinstance(exact(float("nan")), float)


def test_exact_rejects_bools():
    with pytest.raises(TypeError):
        exact(True)


def test_is_exact():
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.3)


def test_sig_rounds_to_twelve_significant_digits():
    assert sig(Fraction(1, 3)) == 0.333333333333
    assert sig(0.75) == 0.75


def test_fmt_fraction_and_float():
    assert fmt(Fraction(5, 12)) == "5/12"
    assert fmt(Fraction(4)) == "4"
    assert fmt(0.125) == "1/8"


def test_sig_refuses_a_value_past_the_float_range():
    from admcdm.errors import InvalidProblem

    with pytest.raises(InvalidProblem, match="float range"):
        sig(Fraction(10**400))
    assert sig(Fraction(1, 10**400)) == 0.0


def test_matches_is_exact_on_fractions_and_relative_on_floats():
    from admcdm.scalars import matches

    assert not matches(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**20))
    assert matches(1 / 3, Fraction(1, 3))
    assert matches(1e6, 1e6 * (1 + 1e-13))
    assert not matches(1e6, 1e6 * (1 + 1e-11))
    assert matches(0.0, 1e-13)  # the tolerance is floored at 1
    assert not matches(Fraction(10**400), 1e300)
