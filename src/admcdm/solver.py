"""The discounting pipeline in one pass: a positive root alpha of the core
determinant, the core's null vector at alpha, and from that vector the
parameter of each statement outside the core and the priority vector.

Each statement's integer form (model's form) gives the row (s, L, B) that
at alpha = p / q is q * L * e_s - p * B (model.statement_rows); every exact
stage runs on these ints. The statements as written are tested first
(classification._exact_test, which classify() shares): a consistent set
has discount 1 and the vector that test found. Otherwise the core
determinant f, an integer polynomial in alpha, is the test's when it
computed one, and the positive root of f closest to 1 in log scale is
the discount. The core's null vector v at alpha is taken once: it is the
test's own elimination of the core at 1 when f(1) = 0 (1 is then the
root chosen), else an elimination of the core rows at alpha. A
preference outside the core gets its own parameter
beta = L * v_s / (B . v), at which every auxiliary determinant its row
forms with core rows vanishes; the extra rows then hold, so v is the
whole system's vector. Without a null line at alpha the extra parameters
stay unfixed (InconsistentExtraParams). The consistency degree is
min(alpha, 1/alpha). Fractions are built only for reported values:
alpha, the betas and the vector. The integer coefficients of f go to
root isolation as they are; f as a Fraction Poly is built only for
parametric_equation and for the NoPositiveRoot message. An irrational
alpha is a float, and so are the core rows at it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from .classification import _classify_solved, _core_det, _exact_test
from .errors import (
    DegenerateCore,
    FullRank,
    InconsistentExtraParams,
    InvalidProblem,
    NoPositiveRoot,
)
from .linalg import (  # CONSISTENT_DET_TOL is re-exported
    CONSISTENT_DET_TOL,
    PolyMatrix,
    det_poly,
    null_vector,
    positive,
)
from .model import (
    InequalityPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    row_at,
    statement_rows,
)
from .polynomial import Poly, integer_positive_roots, poly
from .scalars import PriorityVector, Record, Scalar, normalize


class ParamSystem(Record):
    """Homogeneous system with parameterized right-hand coefficients: rows
    from statement_rows(), and matrix, the same rows over polynomials (the
    subject entry 1, a term coefficient a as -a * c_i * alpha)."""

    rows: tuple
    binding: ParamBinding

    @cached_property
    def matrix(self) -> PolyMatrix:
        return PolyMatrix(tuple(tuple(
            poly((1,) if j == s else (0, Fraction(-b, scale)) if b else ())
            for j, b in enumerate(terms)) for s, scale, terms in self.rows))


class AlphaSolution(Record):
    """Outcome of the parametric solve.

    roots lists every positive root of the parametric equation; alpha is the
    chosen one (closest to 1 in log scale, smaller on ties). consistency is
    min(alpha, 1/alpha), inconsistency its complement to 1. extra_params
    holds (preference position, value) pairs for preferences outside the
    core. discharged marks a result whose consistency fell below the
    caller's threshold_c.
    """

    roots: tuple
    alpha: Scalar
    consistency: Scalar
    inconsistency: Scalar
    extra_params: tuple = ()
    discharged: bool = False


_CONSISTENT = AlphaSolution((Fraction(1),), Fraction(1), Fraction(1),
                            Fraction(0), (), False)
_FLOAT_RANGE = "a coefficient ratio lies outside the float range"


def _consistency_of(alpha) -> Scalar:
    return alpha if alpha <= 1 else 1 / alpha


def parameterize(problem: Problem) -> ParamSystem:
    return ParamSystem(statement_rows(problem), problem.binding)


def _core(ps: ParamSystem) -> tuple:
    """The core's positions; InvalidProblem unless it has n rows."""
    core, n = ps.binding.core_mask, len(ps.rows[0][2])
    if len(core) != n:
        raise InvalidProblem(
            f"the core must contain exactly {n} preferences, got {len(core)}")
    return core


_DEGENERATE = ("core determinant vanishes identically; every parameter "
               "value leaves the core dependent, so no parametric equation "
               "exists")


def _equation(ps: ParamSystem, det=None) -> list:
    """The core determinant's integer coefficients c, constant first: det,
    or else _core_det's. The determinant is the sum of c[k] * alpha**k over
    the product of the core rows' scales, so its roots are those of c."""
    core = _core(ps)
    cs = _core_det(ps.rows, core) if det is None else det
    if not cs:
        raise DegenerateCore(_DEGENERATE)
    return cs


def parametric_equation(ps: ParamSystem) -> Poly:
    """Determinant of the core rows as a polynomial in the base parameter,
    by det_poly on ps.matrix."""
    d = det_poly(PolyMatrix(tuple(ps.matrix.entries[i] for i in _core(ps))))
    if d.is_zero():
        raise DegenerateCore(_DEGENERATE)
    return d


def _choose_root(roots):
    """The root closest to 1 in log scale; the roots ascend, so of two
    equally close max keeps the smaller."""
    return max(roots, key=_consistency_of)


def _core_vector(ps: ParamSystem, alpha):
    """null_vector() of the core rows at alpha, floats at a float alpha."""
    rows = [ps.rows[i] for i in ps.binding.core_mask]
    if isinstance(alpha, float):
        try:  # 0.0, not 0: _rref turns an int into a Fraction
            rows = [[1.0 if j == s else -b / scale * alpha if b else 0.0
                     for j, b in enumerate(terms)] for s, scale, terms in rows]
        except OverflowError:
            raise InvalidProblem(_FLOAT_RANGE) from None
        return null_vector(rows)
    p, q = alpha.as_integer_ratio()
    return null_vector([row_at(r, p, q) for r in rows])


def _solve_extras(ps: ParamSystem, alpha, v, free) -> tuple:
    """Each extra preference's own parameter beta, read off the core's null
    vector v at alpha and its count of free variables free (v None and
    free 0 when the core keeps every pivot); InconsistentExtraParams
    unless free is 1."""
    core = set(ps.binding.core_mask)
    extras = [i for i in range(len(ps.rows)) if i not in core]
    if extras and free != 1:
        raise InconsistentExtraParams(
            "the core needs exactly one null vector at the chosen parameter "
            "to fix the parameters of the remaining preferences")
    out, fl = [], isinstance(alpha, float)
    for pos in extras:
        s, scale, terms = ps.rows[pos]
        # every auxiliary determinant is a multiple of the row dotted with
        # v; a float alpha takes the float steps of ps.matrix's row
        try:
            den = sum((b / scale if fl else b) * x
                      for b, x in zip(terms, v) if b)
        except OverflowError:
            raise InvalidProblem(_FLOAT_RANGE) from None
        beta = den and (v[s] / den if fl else Fraction(scale * v[s], den))
        if not beta > 0:
            raise InconsistentExtraParams(
                f"auxiliary determinant for preference {pos + 1} "
                "admits no positive parameter")
        out.append((pos, beta))
    return tuple(out)


def _check_threshold(threshold_c):
    if not 0 <= threshold_c <= 1:
        raise InvalidProblem("threshold_c must lie in [0, 1]")


def _solve(ps: ParamSystem, threshold_c, cs: list, line=None):
    """solve_alpha's result from _equation's coefficients cs, and the
    core's null vector v at alpha (None when the core keeps every pivot
    there); line, _exact_test's (v, free) at alpha = 1, is given only when
    1 is a root, and so the root chosen."""
    roots = tuple(integer_positive_roots(cs))
    if not roots:
        scale = prod(ps.rows[i][1] for i in ps.binding.core_mask)
        raise NoPositiveRoot(
            f"parametric equation {poly(Fraction(c, scale) for c in cs)} "
            "has no positive root")
    alpha = _choose_root(roots)
    try:
        v, free = line or _core_vector(ps, alpha)
    except FullRank:  # only a float alpha misses the exact zero
        v, free = None, 0
    extras = _solve_extras(ps, alpha, v, free)
    c = _consistency_of(alpha)
    # positional: a keyword construction costs a Record about 2 us more
    return AlphaSolution(
        roots, alpha, c, 1 - c, extras, c < threshold_c), v


def solve_alpha(ps: ParamSystem, threshold_c: Scalar = 0) -> AlphaSolution:
    """The parametric solve; discharged when the consistency falls below
    threshold_c, which must lie in [0, 1] (the default 0 discharges
    none)."""
    _check_threshold(threshold_c)
    # times the core rows' scales, the equation has _equation's integers
    scale = prod(ps.rows[i][1] for i in _core(ps))
    cs = [int(c * scale) for c in parametric_equation(ps).coeffs]
    return _solve(ps, threshold_c, cs)[0]


def priority(problem: Problem, threshold_c: Scalar = 0):
    """Full pipeline: returns (priority vector, AlphaSolution, report).
    The solution is discharged when its consistency falls below
    threshold_c, which must lie in [0, 1]; a consistent set never is.

    One pass: _exact_test tests the statements as written and keeps the
    core determinant f when it computes one. An inconsistent set takes
    its discount alpha from the roots of f, and the core's null vector at
    alpha, taken once, fixes the extra parameters and is the priority
    vector; at alpha = 1 it is the test's own elimination of the core. An
    irrational alpha whose float elimination of the core keeps every
    pivot raises InvalidProblem."""
    _check_threshold(threshold_c)
    rows = statement_rows(problem)
    v, det, line = _exact_test(problem, rows)
    consistent = v is not None
    if consistent:
        solution = _CONSISTENT
    else:
        ps = ParamSystem(rows, problem.binding)
        solution, v = _solve(ps, threshold_c, _equation(ps, det), line)
        if v is None:
            raise InvalidProblem(
                "the float elimination of the core at the irrational "
                "root alpha keeps every pivot: no null vector")
    pv = normalize(positive(v))
    # a consistent set got here only with its positive vector
    report = _classify_solved(problem, solved=consistent)
    return pv, solution, report


def discount_report(problem: Problem, pv: PriorityVector):
    """Realized scaling per preference: how far each statement was bent.

    For statement subject = sum of a_j * x_j the report carries the factor f
    with pv[subject] = f * sum of a_j * pv[j]; for a one-term statement this
    is (pv_i / pv_j) / k, the realized ratio against the stated one. With no
    float in pv, f is one Fraction from the statement's form, its weighted
    sum kept over a common denominator, so a statement costs one gcd.
    """
    out = []
    # a Fraction times a float is float(a) * x; stated so, the term skips
    # Fraction's operator fallback
    floats = all(isinstance(x, float) for x in pv)
    ints = None if any(isinstance(x, float) for x in pv) else [
        (x.numerator, x.denominator) for x in pv]
    for pos, pref in enumerate(problem.preferences):
        if isinstance(pref, (InequalityPreference, MonomialPreference)):
            continue
        if ints:
            s, scale, terms = pref.form
            num, den = 0, 1
            for w, ((j, _),) in terms:
                n, d = ints[j]
                num, den = num * d + w * n * den, den * d
            n, d = ints[s]
            out.append((pos, Fraction(n * den * scale, d * num)))
            continue
        if floats:
            stated = sum(float(a) * pv[j] for j, a in pref.terms)
        else:
            stated = sum(a * pv[j] for j, a in pref.terms)
        out.append((pos, pv[pref.subject] / stated))
    return tuple(out)
