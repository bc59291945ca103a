"""Domain model: criteria, preference statements, parameter bindings, and
assembly of the homogeneous system matrix.

A preference file describes n criteria and m statements about them. Each
equation-type statement ("C1 is worth 4 times C2", "C1 equals 2 C2 plus
3 C3", "x equals 2 y z") pins the subject criterion to an expression in the
others; inequalities only constrain the ordering. A linear statement keeps
its subject alone on the left (a ratio "C2 / C1 = 3" is the one-term
statement C2 = 3 C1), which makes it a homogeneous row: +1 in the subject
column, the negated coefficients elsewhere. Each equation statement is
read into integers once, when it is built, by _form; every engine module
takes a statement's integers from that form.

All types are immutable and validated on construction, so a Problem in hand
is always well-formed: indices in range, coefficients positive, at least one
equation present, and the binding consistent with the preference list.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import (
    InvalidProblem,
    NonEquationPreference,
    NonlinearPreferencePresent,
    NonPositiveParameter,
)
from .scalars import Record, Scalar, exact


def _positive_finite(value) -> bool:
    # value has been through exact(), which leaves only inf and nan floats
    return isinstance(value, Fraction) and value.numerator > 0


_index = itemgetter(0)


class CriteriaSet(Record):
    """Ordered, distinct criterion names; positions are 0-based."""

    names: tuple

    def __post_init__(self):
        if len(self.names) < 2:
            raise InvalidProblem("a problem needs at least two criteria")
        if len(set(self.names)) != len(self.names):
            raise InvalidProblem("criterion names must be distinct")
        if any(not isinstance(nm, str) or not nm for nm in self.names):
            raise InvalidProblem("criterion names must be non-empty strings")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidProblem(f"unknown criterion {name!r}") from None


class LinearPreference(Record):
    """subject = sum of coefficient * criterion terms.

    terms is a tuple of (criterion index, coefficient) pairs; it is stored
    sorted by index so equal preferences compare equal regardless of the
    order the terms were given in. form is the statement in integers.
    """

    subject: int
    terms: tuple

    def __post_init__(self):
        terms = tuple(sorted([(i, exact(c)) for i, c in self.terms],
                             key=_index))
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise InvalidProblem("a linear preference needs at least one term")
        seen = set()
        for i, c in terms:
            if i == self.subject:
                raise InvalidProblem("subject may not appear among its own terms")
            if i in seen:
                raise InvalidProblem("duplicate criterion in terms")
            seen.add(i)
            if not _positive_finite(c):
                raise InvalidProblem(
                    "term coefficients must be positive and finite")
        object.__setattr__(self, "form", _form(self))


class MonomialPreference(Record):
    """subject = coefficient * product of criteria raised to integer powers;
    form is the statement in integers."""

    subject: int
    coefficient: Scalar
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", exact(self.coefficient))
        exps = tuple(sorted((i, int(e)) for i, e in self.exponents))
        object.__setattr__(self, "exponents", exps)
        if not _positive_finite(self.coefficient):
            raise InvalidProblem(
                "monomial coefficient must be positive and finite")
        if not exps:
            raise InvalidProblem("a monomial preference needs at least one factor")
        seen = set()
        for i, e in exps:
            if i == self.subject:
                raise InvalidProblem("subject may not appear among its own factors")
            if i in seen:
                raise InvalidProblem("duplicate criterion in factors")
            seen.add(i)
            if e < 1:
                raise InvalidProblem("exponents must be positive integers")
        object.__setattr__(self, "form", _form(self))


def _form(pref) -> tuple:
    """pref's form (subject, scale, ((w, factors), ...)): scale * x[subject]
    = sum of w * prod x[j] ** p over the factors (j, p), scale the lcm of
    the coefficients' denominators. A linear term has the factor (j, 1)."""
    if isinstance(pref, MonomialPreference):
        w, scale = pref.coefficient.as_integer_ratio()
        return pref.subject, scale, ((w, pref.exponents),)
    terms = pref.terms
    if len(terms) == 1:
        ((j, a),) = terms
        w, scale = a.as_integer_ratio()
        return pref.subject, scale, ((w, ((j, 1),)),)
    scale = lcm(*[a.denominator for _, a in terms])
    return pref.subject, scale, tuple([
        (a.numerator * (scale // a.denominator), ((j, 1),))
        for j, a in terms])


class Relation(Enum):
    STRICT_LESS = "<"
    STRICT_GREATER = ">"


class InequalityPreference(Record):
    """lhs < rhs or lhs > rhs (strict)."""

    lhs: int
    rhs: int
    relation: Relation

    def __post_init__(self):
        if self.lhs == self.rhs:
            raise InvalidProblem("inequality relates a criterion to itself")
        if not isinstance(self.relation, Relation):
            raise InvalidProblem("relation must be STRICT_LESS or STRICT_GREATER")


class ParamBinding(Record):
    """Per-preference discount multipliers and the fairness core.

    Preference i receives the parameter c_i * alpha, so with every c_i = 1
    all statements share one parameter (the fairness principle) while unequal
    multipliers encode an expert's opinion such as "discount the second
    statement twice as much as the first". core_mask lists the preference
    positions whose rows form the square system the parametric equation is
    taken from; preferences outside it keep parameters of their own that are
    solved afterwards.
    """

    multipliers: tuple
    core_mask: tuple

    def __post_init__(self):
        mults = tuple(exact(c) for c in self.multipliers)
        object.__setattr__(self, "multipliers", mults)
        object.__setattr__(self, "core_mask", tuple(int(i) for i in self.core_mask))
        if not all(map(_positive_finite, mults)):
            raise InvalidProblem(
                "binding multipliers must be positive and finite")
        if not self.core_mask:
            raise InvalidProblem("core must contain at least one preference")
        if len(set(self.core_mask)) != len(self.core_mask):
            raise InvalidProblem("core lists a preference twice")


def is_equation(pref) -> bool:
    return not isinstance(pref, InequalityPreference)


def equation_positions(preferences) -> tuple:
    return tuple(i for i, p in enumerate(preferences) if is_equation(p))


def default_core(preferences, n: int) -> tuple:
    """The first min(n, m) equation preferences' positions."""
    eq = equation_positions(preferences)
    if not eq:
        raise InvalidProblem("a problem needs at least one equation preference")
    return eq[:n]


def default_binding(preferences, n: int) -> ParamBinding:
    """All multipliers 1; core = default_core(preferences, n)."""
    return ParamBinding(tuple(Fraction(1) for _ in preferences),
                        default_core(preferences, n))


class Problem(Record):
    """n criteria, the statements about them and their binding, by
    default default_binding(preferences, n)."""

    criteria: CriteriaSet
    preferences: tuple
    binding: ParamBinding = None

    def __post_init__(self):
        object.__setattr__(self, "preferences", tuple(self.preferences))
        n = self.criteria.n
        if self.binding is None:
            object.__setattr__(
                self, "binding", default_binding(self.preferences, n))
        eq = equation_positions(self.preferences)
        if not eq:
            raise InvalidProblem("a problem needs at least one equation preference")
        for pref in self.preferences:
            for i in _referenced(pref):
                if not 0 <= i < n:
                    raise InvalidProblem(f"criterion index {i} out of range")
        b = self.binding
        if len(b.multipliers) != len(self.preferences):
            raise InvalidProblem("binding must carry one multiplier per preference")
        core = set(b.core_mask)
        if not core <= set(eq):
            raise InvalidProblem("core may only contain equation preferences")
        for i, c in enumerate(b.multipliers):
            if c != 1 and i not in core:
                raise InvalidProblem(
                    "only core preferences may carry a non-unit multiplier")


def _referenced(pref):
    if isinstance(pref, LinearPreference):
        return (pref.subject, *(i for i, _ in pref.terms))
    if isinstance(pref, MonomialPreference):
        return (pref.subject, *(i for i, _ in pref.exponents))
    if isinstance(pref, InequalityPreference):
        return (pref.lhs, pref.rhs)
    raise InvalidProblem(f"unknown preference type {type(pref).__name__}")


def canonicalize(pref):
    """A linear statement, unchanged; TypeError for any other. No engine
    module calls it: a ratio statement is a LinearPreference already."""
    if isinstance(pref, LinearPreference):
        return pref
    raise TypeError(f"cannot canonicalize {type(pref).__name__}")


def statement_rows(problem: Problem) -> tuple:
    """Each equation preference x_s = alpha * c * sum a_j x_j as the integer
    row (s, L, B), at alpha = p / q the row q * L * e_s - p * B: the dense
    view of its form times c = k / d, L = d * scale and B_j = k * w_j."""
    n = problem.criteria.n
    rows = []
    for pref, c in zip(problem.preferences, problem.binding.multipliers):
        if isinstance(pref, InequalityPreference):
            raise NonEquationPreference(
                "inequalities have no row in the system matrix")
        if isinstance(pref, MonomialPreference):
            raise NonlinearPreferencePresent(
                "monomial preferences do not assemble into a linear system")
        s, scale, terms = pref.form
        k, d = c.as_integer_ratio()
        row = [0] * n
        for w, ((j, _),) in terms:
            row[j] = k * w
        rows.append((s, d * scale, tuple(row)))
    return tuple(rows)


def row_at(row, p: int, q: int) -> list:
    """The integer row (s, L, B) at alpha = p / q: q * L * e_s - p * B."""
    s, scale, terms = row
    return [q * scale if j == s else -p * b for j, b in enumerate(terms)]


def unit_rows(problem: Problem, rows) -> list:
    """The statement rows as written, each at alpha = 1 / its multiplier:
    assemble()'s system in integers."""
    return [row_at(r, *c.as_integer_ratio()[::-1])
            for r, c in zip(rows, problem.binding.multipliers)]


def assemble(problem: Problem):
    """Rows of the homogeneous system, one per equation preference.

    The row for subject i with terms a_j reads e_i - sum a_j e_j, so a
    consistent set of statements makes the rows linearly dependent. Entries
    are Fractions, as every coefficient the model holds is.
    """
    rows = statement_rows(problem)
    return [[Fraction(x, r[s]) for x in r]
            for r, (s, _, _) in zip(unit_rows(problem, rows), rows)]


def make_cyclic_example(t) -> Problem:
    """The three-criteria cycle x = t*y, x = (1/t)*z, y = t*z.

    At t = 1 the statements agree perfectly; as t moves away from 1 in either
    direction the cycle contradicts itself ever harder, which makes this
    family a one-knob consistency testbed.
    """
    t = exact(t)
    if not t > 0:
        raise NonPositiveParameter("t must be positive")
    criteria = CriteriaSet(("x", "y", "z"))
    prefs = (
        LinearPreference(0, ((1, t),)),
        LinearPreference(0, ((2, exact(1) / t),)),
        LinearPreference(1, ((2, t),)),
    )
    return Problem(criteria, prefs)
