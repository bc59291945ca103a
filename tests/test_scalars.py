"""Exact/float scalar helpers and the Record base of the value types."""

import dataclasses
from fractions import Fraction

import pytest

from admcdm.model import make_cyclic_example, statement_rows
from admcdm.scalars import Record, exact, fmt, is_exact, sig
from admcdm.solver import ParamSystem


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
    with pytest.raises(TypeError, match="unsupported scalar type: list"):
        exact([1])


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


# Record keeps what callers saw of the frozen dataclasses it replaced; each
# check runs against a dataclass twin with the same name, fields and
# __post_init__.

def _sort_b(self):
    if self.a < 0:
        raise ValueError("a must be >= 0")
    object.__setattr__(self, "b", tuple(sorted(self.b)))


class Pair(Record):
    a: int
    b: tuple = ()

    __post_init__ = _sort_b


class Other(Record):
    a: int
    b: tuple = ()


Twin = dataclasses.make_dataclass(
    "Pair", [("a", int), ("b", tuple, dataclasses.field(default=()))],
    namespace={"__post_init__": _sort_b}, frozen=True)


@pytest.mark.parametrize("cls", [Pair, Twin], ids=["record", "dataclass"])
class TestRecordContract:
    def test_repr(self, cls):
        assert repr(cls(1, (3, 2))) == "Pair(a=1, b=(2, 3))"
        assert repr(cls(a=4, b=["y", "x"])) == "Pair(a=4, b=('x', 'y'))"

    def test_equality_and_hash_are_the_fields(self, cls):
        assert cls(1, [3, 2]) == cls(a=1, b=(2, 3))
        assert cls(1) != cls(2)
        assert hash(cls(1, (3, 2))) == hash((1, (2, 3)))

    def test_another_class_never_compares_equal(self, cls):
        for other in (Pair, Other, Twin):
            if other is not cls:
                assert cls(1) != other(1)
                assert cls(1).__eq__(other(1)) is NotImplemented
        assert cls(1) != (1, ())

    def test_positional_keyword_and_default_construction(self, cls):
        for value in (cls(1, (2,)), cls(1, b=(2,)), cls(b=(2,), a=1)):
            assert (value.a, value.b) == (1, (2,))
        assert cls(1).b == ()

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                    # a is missing
        ((), {"b": ()}),
        ((1, (), 3), {}),            # one argument too many
        ((1,), {"c": 2}),            # unknown keyword
        ((1,), {"a": 2}),            # a given twice
    ])
    def test_a_bad_call_raises_type_error(self, cls, args, kwargs):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    def test_post_init_runs_after_the_fields_are_set(self, cls):
        assert cls(0, [5, 1, 3]).b == (1, 3, 5)
        with pytest.raises(ValueError):
            cls(-1)

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        value = cls(1)
        with pytest.raises(AttributeError):
            value.a = 2
        with pytest.raises(AttributeError):
            value.c = 2
        with pytest.raises(AttributeError):
            del value.a
        assert value == cls(1)


def test_record_fields_are_the_class_own_annotations_in_order():
    assert Pair._fields == ("a", "b")
    assert Pair._defaults == {"b": ()}
    assert not dataclasses.is_dataclass(Pair)


def test_param_system_matrix_is_cached_outside_the_fields():
    problem = make_cyclic_example(2)
    ps = ParamSystem(statement_rows(problem), problem.binding)
    assert ps.matrix is ps.matrix
    assert "matrix" in vars(ps)
    assert ps == ParamSystem(statement_rows(problem), problem.binding)
    assert "matrix=" not in repr(ps)
