"""The discounting pipeline: parameterize the system, solve the parametric
determinant equation, pick the discount, and produce the priority vector.

Each statement's integer form (model's form) gives the row (s, L, B) that
at alpha = p / q is q * L * e_s - p * B (model.statement_rows); every exact
stage runs on these ints. The core determinant f, an integer polynomial
in alpha, comes first when every multiplier is 1 and the core has n rows:
those rows at alpha = 1 are the statements as written, so f(1) != 0 means
inconsistent statements. When f(1) = 0 the core rows alone are
eliminated at 1; a null line v there decides the set by one dot product
per other row. If every one vanishes on v, the set is consistent:
discount 1 and the vector v. If not, the root 1 is chosen and v fixes the
other parameters. A null plane at 1 with other rows has the rows as
written eliminated too; if only 0 solves them, the root 1 is chosen and
the plane leaves the other parameters unfixed (InconsistentExtraParams).
In every other case the rows as written are eliminated
once (classification._exact_test, which classify() shares). An
inconsistent set has a positive root of f fix the parameter, and the
core's null vector v there gives the priority vector. A preference
outside the core gets its own parameter beta = L * v_s / (B . v), at
which every auxiliary determinant its row forms with core rows vanishes.
The consistency degree is min(alpha, 1/alpha). Fractions are built only
for reported values: alpha, the betas and the vector. The integer
coefficients of f go to root isolation as they are; f as a Fraction Poly
is built only for parametric_equation and for the NoPositiveRoot
message. An irrational alpha is a float, and so are the core rows at it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

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
from .scalars import PriorityVector, Record, Scalar, integer_row, normalize


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


def _equation(ps: ParamSystem, det=None):
    """The core determinant (scale, c), the sum of c[k] * alpha**k / scale:
    det, or else _core_det. Its roots are those of the integers c, so
    the Fraction Poly is built only for a message."""
    _core(ps)
    scale, cs = det or _core_det(ps.rows, ps.binding.core_mask)
    if not cs:
        raise DegenerateCore(_DEGENERATE)
    return scale, cs


def parametric_equation(ps: ParamSystem) -> Poly:
    """Determinant of the core rows as a polynomial in the base parameter,
    by det_poly on ps.matrix."""
    d = det_poly(PolyMatrix(tuple(ps.matrix.entries[i] for i in _core(ps))))
    if d.is_zero():
        raise DegenerateCore(_DEGENERATE)
    return d


def _choose_root(roots):
    best = None
    for r in roots:
        c = _consistency_of(r)
        if best is None or c > best[0] or (c == best[0] and r < best[1]):
            best = (c, r)
    return best[1]


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


def _solve_extras(ps: ParamSystem, alpha, line=None):
    """Each extra preference's own parameter beta, and the core's null
    vector v at alpha it was read from (None without extra preferences):
    line, the (v, free) _exact_test found at alpha = 1, or else computed;
    InconsistentExtraParams unless the core has one free variable."""
    core = set(ps.binding.core_mask)
    extras = [i for i in range(len(ps.rows)) if i not in core]
    if not extras:
        return (), None
    try:
        v, free = line or _core_vector(ps, alpha)
    except FullRank:
        free = 0
    if free != 1:
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
    return tuple(out), v


def _check_threshold(threshold_c):
    if not 0 <= threshold_c <= 1:
        raise InvalidProblem("threshold_c must lie in [0, 1]")


def _solve(ps: ParamSystem, threshold_c, equation, line=None):
    """solve_alpha's result from the core's equation (scale, c), and the
    core's null vector at alpha when the extra preferences needed it (else
    None); line is _solve_extras', for a root alpha = 1."""
    scale, cs = equation
    roots = tuple(integer_positive_roots(cs))
    if not roots:
        equation = poly(Fraction(c, scale) for c in cs)
        raise NoPositiveRoot(
            f"parametric equation {equation} has no positive root")
    alpha = _choose_root(roots)
    extras, v = _solve_extras(ps, alpha, line)
    c = _consistency_of(alpha)
    # positional: a keyword construction costs a Record about 2 us more
    return AlphaSolution(
        roots, alpha, c, 1 - c, extras, c < threshold_c), v


def solve_alpha(ps: ParamSystem, threshold_c: Scalar = 0) -> AlphaSolution:
    """The parametric solve; discharged when the consistency falls below
    threshold_c, which must lie in [0, 1] (the default 0 discharges
    none)."""
    _check_threshold(threshold_c)
    cs, scale = integer_row(parametric_equation(ps).coeffs)
    return _solve(ps, threshold_c, (scale, cs))[0]


def priority(problem: Problem, threshold_c: Scalar = 0):
    """Full pipeline: returns (priority vector, AlphaSolution, report).
    The solution is discharged when its consistency falls below
    threshold_c, which must lie in [0, 1]; a consistent set never is.

    The consistency test is _exact_test's: core first, and the core's
    determinant f, when computed, is kept for the parametric solve. When
    f(1) = 0 and the set is inconsistent, that root 1 is chosen and the
    core's elimination at 1 is reused: a null line fixes the extra
    parameters, and a null plane raises InconsistentExtraParams, without
    a second elimination. An irrational alpha whose float elimination of
    the core keeps every pivot raises InvalidProblem."""
    _check_threshold(threshold_c)
    rows = statement_rows(problem)
    v, det, line = _exact_test(problem, rows)
    consistent = v is not None
    if consistent:
        solution = _CONSISTENT
    else:
        # the extra rows hold at their parameters, so the core's null
        # space is the whole system's
        ps = ParamSystem(rows, problem.binding)
        solution, v = _solve(ps, threshold_c, _equation(ps, det), line)
        if v is None:  # no extra preference eliminated the core yet
            try:
                v, _ = _core_vector(ps, solution.alpha)
            except FullRank:  # only a float alpha misses the exact zero
                raise InvalidProblem(
                    "the float elimination of the core at the irrational "
                    "root alpha keeps every pivot: no null vector") from None
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
