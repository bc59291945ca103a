"""The discounting pipeline: parameterize the system, solve the parametric
determinant equation, pick the discount, and produce the priority vector.

The assembled system is eliminated once: if its rank is below n the
statements are consistent, the discount is 1 and the same elimination's
general solution gives the priority vector. Otherwise each statement's
right-hand side is scaled by its multiplier times the shared base
parameter, the core determinant becomes an exact polynomial whose positive
root fixes the parameter, and the core's null space at that root, again
eliminated once, gives the priority vector. A preference outside the core
gets its own parameter beta: with the core's one null vector v, its row
const + beta * slope must be orthogonal to v, so
beta = -(const . v) / (slope . v), the value at which every auxiliary
determinant it forms with core rows vanishes. The consistency
degree is min(alpha, 1/alpha): a discount far below 1 or an amplification
far above it both signal statements that had to be bent a long way to
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import ClassificationReport, _classify_solved
from .errors import (
    DegenerateCore,
    FullRank,
    InconsistentExtraParams,
    InvalidProblem,
    NoPositiveRoot,
    NonEquationPreference,
    NonlinearPreferencePresent,
)
from .linalg import (  # CONSISTENT_DET_TOL is re-exported
    CONSISTENT_DET_TOL,
    PolyMatrix,
    PriorityVector,
    det_poly,
    general_solution,
    normalize,
    particular_positive,
)
from .model import (
    InequalityPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    assemble,
    canonicalize,
)
from .polynomial import Poly, ZERO, peval, poly, positive_roots
from .scalars import Scalar

@dataclass(frozen=True)
class ParamSystem:
    """Homogeneous system with parameterized right-hand coefficients.

    Row i belongs to preference i; the subject entry is the constant 1 and a
    term coefficient a becomes the degree-1 polynomial -a * c_i * alpha.
    Evaluating every row at alpha = 1 under all-ones multipliers recovers
    the plain assembled matrix.
    """

    matrix: PolyMatrix
    binding: ParamBinding


@dataclass(frozen=True)
class ConsistencyPolicy:
    """A result whose solved consistency falls below threshold_c is
    discharged; the default 0 discharges none."""

    threshold_c: Scalar = 0

    def __post_init__(self):
        if not 0 <= float(self.threshold_c) <= 1:
            raise InvalidProblem("threshold_c must lie in [0, 1]")


@dataclass(frozen=True)
class AlphaSolution:
    """Outcome of the parametric solve.

    roots lists every positive root of the parametric equation; alpha is the
    chosen one (closest to 1 in log scale, smaller on ties). consistency is
    min(alpha, 1/alpha), inconsistency its complement to 1. extra_params
    holds (preference position, value) pairs for preferences outside the
    core. discharged marks a result whose consistency fell below the
    policy's threshold.
    """

    roots: tuple
    alpha: Scalar
    consistency: Scalar
    inconsistency: Scalar
    extra_params: tuple = ()
    discharged: bool = False


def _consistency_of(alpha) -> Scalar:
    return alpha if alpha <= 1 else 1 / alpha


def parameterize(problem: Problem) -> ParamSystem:
    n = problem.criteria.n
    rows = []
    for pos, pref in enumerate(problem.preferences):
        if isinstance(pref, MonomialPreference):
            raise NonlinearPreferencePresent(
                "monomial preferences take the nonlinear route")
        if isinstance(pref, InequalityPreference):
            raise NonEquationPreference(
                "inequalities cannot be parameterized")
        lin = canonicalize(pref)
        c = problem.binding.multipliers[pos]
        row = [ZERO] * n
        row[lin.subject] = poly((1,))
        for j, a in lin.terms:  # a float coefficient is read exactly
            row[j] = poly((0, -Fraction(a) * Fraction(c)))
        rows.append(tuple(row))
    return ParamSystem(PolyMatrix(tuple(rows)), problem.binding)


def parametric_equation(ps: ParamSystem) -> Poly:
    """Determinant of the core rows as a polynomial in the base parameter."""
    core = ps.binding.core_mask
    n = ps.matrix.n
    if len(core) != n:
        raise InvalidProblem(
            f"the core must contain exactly {n} preferences, got {len(core)}")
    d = det_poly(PolyMatrix(tuple(ps.matrix.entries[i] for i in core)))
    if d.is_zero():
        raise DegenerateCore(
            "core determinant vanishes identically; every parameter value "
            "leaves the core dependent, so no parametric equation exists")
    return d


def _choose_root(roots):
    best = None
    for r in roots:
        c = _consistency_of(r)
        if best is None or c > best[0] or (c == best[0] and r < best[1]):
            best = (c, r)
    return best[1]


def _core_solution(ps: ParamSystem, alpha):
    """General solution of the core rows at alpha."""
    return general_solution([[peval(e, alpha) for e in ps.matrix.entries[i]]
                             for i in ps.binding.core_mask])


def _solve_extras(ps: ParamSystem, alpha):
    """Each extra preference's own parameter beta, and the core's general
    solution at alpha it was read from (None when there is no extra
    preference). Only its row carries beta, and every auxiliary determinant
    it forms with n - 1 core rows is a multiple of that row dotted with the
    core's null vector v, so the row const + beta * slope fixes
    beta = -(const . v) / (slope . v)."""
    core = set(ps.binding.core_mask)
    extras = [i for i in range(ps.matrix.m) if i not in core]
    if not extras:
        return (), None
    try:
        gs = _core_solution(ps, alpha)
    except FullRank:
        gs = None
    if gs is None or len(gs.secondary_vars) != 1:
        raise InconsistentExtraParams(
            "the core needs exactly one null vector at the chosen parameter "
            "to fix the parameters of the remaining preferences")
    v = gs.vector([Fraction(1)])
    out = []
    for pos in extras:
        # entries are constants or multiples of beta (degree <= 1)
        const, slope = zip(*((e.coeffs + (0, 0))[:2]
                             for e in ps.matrix.entries[pos]))
        c0 = sum(a * x for a, x in zip(const, v))
        c1 = sum(a * x for a, x in zip(slope, v))
        if c1 == 0 or not -c0 / c1 > 0:
            raise InconsistentExtraParams(
                f"auxiliary determinant for preference {pos + 1} "
                "admits no positive parameter")
        out.append((pos, -c0 / c1))
    return tuple(out), gs


def _solve(ps: ParamSystem, policy):
    """solve_alpha's result, and the core's general solution at alpha when
    the extra preferences needed it (else None)."""
    if policy is None:
        policy = ConsistencyPolicy()
    equation = parametric_equation(ps)
    roots = tuple(positive_roots(equation))
    if not roots:
        raise NoPositiveRoot(
            f"parametric equation {equation} has no positive root")
    alpha = _choose_root(roots)
    extras, gs = _solve_extras(ps, alpha)
    c = _consistency_of(alpha)
    return AlphaSolution(
        roots=roots, alpha=alpha, consistency=c, inconsistency=1 - c,
        extra_params=extras, discharged=float(c) < float(policy.threshold_c),
    ), gs


def solve_alpha(ps: ParamSystem, policy: ConsistencyPolicy = None) -> AlphaSolution:
    return _solve(ps, policy)[0]


def priority(problem: Problem, policy: ConsistencyPolicy = None):
    """Full pipeline: returns (priority vector, AlphaSolution, report)."""
    # the consistency test is the elimination that yields the vector
    try:
        gs = general_solution(assemble(problem))
    except FullRank:
        gs = None
    consistent = gs is not None
    if consistent:
        one = Fraction(1)
        solution = AlphaSolution(roots=(one,), alpha=one, consistency=one,
                                 inconsistency=Fraction(0))
    else:
        # the extra rows hold at their parameters, so the core's null
        # space is the whole system's
        ps = parameterize(problem)
        solution, gs = _solve(ps, policy)
        if gs is None:  # no extra preference eliminated the core yet
            gs = _core_solution(ps, solution.alpha)
    pv = normalize(particular_positive(gs))
    # a consistent set got here only with its positive vector
    report = _classify_solved(problem, solved=consistent)
    return pv, solution, report


def discount_report(problem: Problem, pv: PriorityVector):
    """Realized scaling per preference: how far each statement was bent.

    For statement subject = sum of a_j * x_j the report carries the factor f
    with pv[subject] = f * sum of a_j * pv[j]; for a one-term statement this
    is (pv_i / pv_j) / k, the realized ratio against the stated one.
    """
    out = []
    for pos, pref in enumerate(problem.preferences):
        if isinstance(pref, (InequalityPreference, MonomialPreference)):
            continue
        lin = canonicalize(pref)
        stated = sum(a * pv[j] for j, a in lin.terms)
        out.append((pos, pv[lin.subject] / stated))
    return tuple(out)
