"""Scalar helpers: exact rationals with a float fallback.

Coefficients that can be written as a ratio of integers are kept as
fractions.Fraction so rational answers (20/57, 5/12, 125/64, ...) stay exact
through the whole pipeline. Irrational values, such as square-root roots of
parametric equations, live as ordinary floats; Python's numeric tower mixes
the two transparently, so most code below is agnostic to which kind it holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import NonPositiveComponent

Scalar = Union[Fraction, float]
PriorityVector = tuple


def exact(value) -> Scalar:
    """Coerce to Fraction where that loses nothing.

    int, str ("2.4", "5/12") and Fraction become Fractions. A float is
    returned unchanged: it already carries binary rounding, and pretending
    otherwise would fabricate precision.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        return value
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def sig(value, digits: int = 12) -> float:
    """Round to `digits` significant decimal digits.

    The result reparses to the same shortest repr, which is what makes the
    JSON reports byte-stable across serialize/parse cycles.
    """
    return float(f"{float(value):.{digits}g}")


def fmt(value, digits: int = 12) -> str:
    """Compact human form: exact integers bare, rationals as p/q, floats
    with `digits` significant digits."""
    if is_exact(value):
        f = Fraction(value)
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    return f"{float(value):.{digits}g}"


def normalize(v) -> PriorityVector:
    """The positive vector v scaled to unit sum."""
    vals = list(v)
    for x in vals:
        if not x > 0:
            raise NonPositiveComponent("can only normalize a positive vector")
    total = sum(vals)
    return tuple(x / total for x in vals)
