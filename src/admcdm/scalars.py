"""Scalar helpers: exact rationals with a float fallback.

Every coefficient a problem holds is a fractions.Fraction: integers,
decimal strings and finite floats alike (a float as the exact value of its
binary form), so rational answers (20/57, 5/12, 125/64, ...) stay exact
through the whole pipeline. Irrational values, such as square-root roots of
parametric equations, live as ordinary floats; Python's numeric tower mixes
the two transparently, so most code below is agnostic to which kind it holds.

Record, the base of the engine's immutable value types, lives here too:
every engine module imports this one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from typing import Union

from .errors import InvalidProblem, NonPositiveComponent

Scalar = Union[Fraction, float]
PriorityVector = tuple


class Record:
    """Immutable value with named fields.

    A subclass declares its fields as its own annotations, in order; a
    class attribute of a field's name is its default. An instance takes
    its fields positionally or by keyword, then runs the class's own
    __post_init__, which may still set a field with object.__setattr__.
    It compares and hashes as the tuple of its fields, prints as
    Name(field=value, ...) and refuses assignment and deletion; it keeps
    a __dict__, so functools.cached_property works on it.
    """

    _fields = ()
    _defaults = {}
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {f: own[f] for f in cls._fields if f in own}
        cls._post_init = own.get("__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        post_init = self._post_init
        if post_init is not None:
            post_init()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values, in order, of a call with keywords, defaults
        or a wrong count of arguments."""
        fields = cls._fields
        values = {**cls._defaults, **kwargs}
        values.update(zip(fields, args))
        if (len(args) <= len(fields) and values.keys() == set(fields)
                and kwargs.keys().isdisjoint(fields[:len(args)])):
            return [values[f] for f in fields]
        raise TypeError(
            f"{cls.__qualname__}() takes the fields ({', '.join(fields)}); "
            f"got {len(args)} positional and {sorted(kwargs)} by keyword")

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def exact(value) -> Scalar:
    """Coerce to the Fraction of the value's exact reading.

    int, str ("2.4", "5/12") and Fraction become Fractions, and so does a
    finite float: the exact value of its binary form (0.1 is
    3602879701896397/36028797018963968), so every module reads it alike.
    inf and nan stay floats, for the model's positivity checks to refuse.
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
        return Fraction(value) if isfinite(value) else value
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def sig(value) -> float:
    """Round to 12 significant decimal digits.

    The result reparses to the same shortest repr, which is what makes the
    JSON reports byte-stable across serialize/parse cycles.

    Raises:
        InvalidProblem: the value lies outside the float range.
    """
    try:
        value = float(value)
    except OverflowError:
        raise InvalidProblem(
            "a result lies outside the float range and cannot be reported"
        ) from None
    return float(f"{value:.12g}")


def fmt(value) -> str:
    """Compact exact form: integers bare, rationals as p/q, a float as the
    p/q of its binary value (as exact() reads it)."""
    return str(Fraction(value))


def integer_row(values) -> tuple:
    """values read exactly and scaled by the lcm of their denominators:
    (integers, scale)."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(d for _, d in ratios))
    return [a * (scale // d) for a, d in ratios], scale


def normalize(v) -> PriorityVector:
    """The positive vector v scaled to unit sum; integers give Fractions."""
    vals = list(v)
    for x in vals:
        if not x > 0:
            raise NonPositiveComponent("can only normalize a positive vector")
    total = sum(vals)
    if isinstance(total, int):
        return tuple(Fraction(x, total) for x in vals)
    return tuple(x / total for x in vals)
