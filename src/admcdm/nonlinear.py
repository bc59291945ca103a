"""Nonlinear extension: triangular systems of single-term linear links and
product statements resolve into a one-free-variable monomial family, and the
positive axis of that free variable splits into ordering regimes.

A system like {x = 2yz, y = 5z} back-substitutes into x_k = c_k * z^{d_k}
for every criterion. No normalization is attempted for such families — the
meaningful output is the criteria ordering, which is constant between the
points where two components cross and flips or degenerates at them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Sequence

from .errors import (
    EmptyDomain,
    MultipleFreeVars,
    NotTriangular,
    OverDetermined,
)
from .model import (
    InequalityPreference,
    Problem,
    Relation,
    is_equation,
)
from .scalars import Record, Scalar


class MonomialSolution(Record):
    """Solution family x_k = c_k * z^{d_k} in one free variable z.

    ``components[k]`` is the pair (coefficient, exponent) for criterion k;
    the free variable's own component is exactly (1, 1).
    """

    free_var: int
    components: tuple[tuple[Scalar, int], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.free_var < len(self.components):
            raise ValueError("free variable index out of range")
        for coef, power in self.components:
            if not coef > 0:
                raise ValueError("component coefficients must be positive")
            if not isinstance(power, int) or power < 0:
                raise ValueError("component exponents must be integers >= 0")
        base_coef, base_power = self.components[self.free_var]
        if base_coef != 1 or base_power != 1:
            raise ValueError("the free variable's component must be (1, 1)")

    @property
    def n(self) -> int:
        return len(self.components)

    def value_at(self, k: int, z: Scalar) -> Scalar:
        coef, power = self.components[k]
        return coef * z**power


class Regime(Record):
    """One piece of the admissible domain with a fixed criteria ordering.

    ``lower == upper`` marks a single-point regime at a crossing;
    ``upper`` of None means the piece is unbounded above. ``ordering``
    lists criterion indices from largest component to smallest, tied
    criteria grouped together.
    """

    lower: Scalar
    upper: Scalar | None
    ordering: tuple[tuple[int, ...], ...]

    @property
    def is_point(self) -> bool:
        return self.upper is not None and self.lower == self.upper


class RegimeReport(Record):
    """Crossing points and the ordering on each piece of the domain."""

    domain: tuple[Scalar, Scalar | None]
    breakpoints: tuple[Scalar, ...]
    regimes: tuple[Regime, ...]


def _equations(problem: Problem) -> list[tuple[int, Fraction, tuple]]:
    """Equation statements as (subject, coefficient, factor list) triples,
    read from each statement's form."""
    out = []
    for pref in filter(is_equation, problem.preferences):
        subject, scale, terms = pref.form
        if len(terms) != 1:
            raise NotTriangular(
                "a multi-term statement cannot be folded into a "
                "single-variable monomial family"
            )
        ((weight, factors),) = terms
        out.append((subject, Fraction(weight, scale), factors))
    return out


def _resolve(equations, n: int, free: int):
    """The components from substitution with the given free variable, in
    passes over the statements not yet consumed: "stuck" when a pass
    consumes none, "conflict" when one closes a criterion to a second
    monomial, "free" when all are consumed and a criterion is unknown."""
    known: dict[int, tuple[Scalar, int]] = {free: (Fraction(1), 1)}
    while equations:
        still = []
        for subject, coef, factors in equations:
            if all(j in known for j, _ in factors):
                total_coef: Scalar = coef
                total_power = 0
                for j, power in factors:
                    base_coef, base_power = known[j]
                    total_coef = total_coef * base_coef**power
                    total_power += base_power * power
                total = (total_coef, total_power)
                if known.setdefault(subject, total) != total:
                    return "conflict"
            elif (
                subject in known
                and len(factors) == 1
                and factors[0][1] == 1
                and factors[0][0] not in known
            ):
                have_coef, have_power = known[subject]
                known[factors[0][0]] = (have_coef / coef, have_power)
            else:
                still.append((subject, coef, factors))
        if len(still) == len(equations):
            return "stuck"
        equations = still
    if len(known) < n:
        return "free"
    return tuple(known[k] for k in range(n))


def solve_triangular(problem: Problem) -> MonomialSolution:
    """Resolve the system into one monomial family by substitution.

    Each candidate free variable is tried from the last criterion down
    (_resolve): forward substitution resolves a statement once all its
    factors are known, and a single-factor statement with a known subject
    is inverted. Redundant statements must reproduce the already-known
    component exactly. The first candidate that resolves every criterion
    wins. Every statement held exactly when it was consumed, and no
    component changes once set, so the family satisfies every statement.
    When no candidate wins, the error names the gravest outcome among
    them: a conflict, then a criterion left free, then statements left
    unresolved.

    Raises:
        NotTriangular: no substitution order exists (a multi-term
            statement, or statements that never become resolvable).
        MultipleFreeVars: the statements leave more than one criterion
            free, which is outside the supported scope.
        OverDetermined: substitution closes a criterion to two different
            monomials, forcing the free variable to a constant.
    """
    equations = _equations(problem)
    n = problem.criteria.n
    outcomes = set()
    for free in reversed(range(n)):
        components = _resolve(equations, n, free)
        if isinstance(components, tuple):
            return MonomialSolution(free, components)
        outcomes.add(components)

    if "conflict" in outcomes:
        raise OverDetermined(
            "substitution closes the free variable to a constant: the "
            "statements pin two different monomials to one criterion"
        )
    if "free" in outcomes:
        raise MultipleFreeVars(
            "the statements leave more than one criterion free"
        )
    raise NotTriangular("no substitution order resolves these statements")


def _crossing(coef_a: Fraction, power_a: int, coef_b: Fraction, power_b: int):
    """The z > 0 where c_a z^{d_a} = c_b z^{d_b}, if the powers differ, as
    (z, r, d): z = r^(1/d) for the rational r > 0 and the integer d > 0,
    the positive root of the integer polynomial q z^d - p (r = p / q) from
    integer_positive_roots, the correctly rounded float (InvalidProblem
    when it has none), or an exact Fraction z, given as (z, z, 1)."""
    if power_a == power_b:
        return None
    if power_a < power_b:
        coef_a, power_a, coef_b, power_b = coef_b, power_b, coef_a, power_a
    r, d = coef_b / coef_a, power_a - power_b
    if d == 1:
        return r, r, d
    from .polynomial import integer_positive_roots

    (z,) = integer_positive_roots([-r.numerator] + [0] * (d - 1)
                                  + [r.denominator])
    return (z, r, d) if isinstance(z, float) else (z, z, 1)


def _compare(u, v) -> int:
    """The sign of z_u - z_v for two crossings (z, r, d): from their
    floats when these differ, since correct rounding is monotone (inf
    standing for a rational crossing past the float range, which every
    irrational crossing lies below), and otherwise read exactly from
    z_u^(d_u d_v / g) = r_u^(d_v / g), g the gcd of d_u and d_v."""
    floats = []
    for z, _, _ in (u, v):
        try:
            floats.append(float(z))
        except OverflowError:
            floats.append(float("inf"))
    a, b = floats
    if a == b:
        g = gcd(u[2], v[2])
        a, b = u[1] ** (v[2] // g), v[1] ** (u[2] // g)
    return (a > b) - (a < b)


_exactly = cmp_to_key(_compare)  # a sort key of crossings


def _groups(order: list[int], compare) -> tuple[tuple[int, ...], ...]:
    """Sort ``order`` in place by ``compare`` (negative when the first
    criterion's component is the larger) and group equal neighbours. The
    sort is stable, so tied criteria keep their order in ``order``."""
    order.sort(key=cmp_to_key(compare))
    groups: list[list[int]] = []
    for k in order:
        if groups and compare(groups[-1][-1], k) == 0:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(g) for g in groups)


def ordering_text(
    ordering: tuple[tuple[int, ...], ...], names: Sequence[str]
) -> str:
    """Render grouped ordering as e.g. ``y>z=x``."""
    return ">".join("=".join(names[k] for k in group) for group in ordering)


def _domain(components, inequalities: Sequence[InequalityPreference]):
    """(lower, upper): the crossings bounding the z > 0 that the
    inequalities admit, over the exact components (c, d); upper is None
    when none bounds z above.

    Raises:
        EmptyDomain: the inequalities leave no admissible z > 0.
    """
    lower = (Fraction(0), Fraction(0), 1)  # z = 0, as a crossing
    upper = None
    for ineq in inequalities:
        left, right = ineq.lhs, ineq.rhs
        if ineq.relation is Relation.STRICT_GREATER:
            left, right = right, left
        coef_l, power_l = components[left]
        coef_r, power_r = components[right]
        if power_l == power_r:
            if not coef_l < coef_r:
                raise EmptyDomain(
                    "an inequality between proportional components fails "
                    "for every value of the free variable"
                )
            continue
        bound = _crossing(coef_l, power_l, coef_r, power_r)
        if power_l < power_r:
            lower = max(lower, bound, key=_exactly)
        else:
            upper = bound if upper is None else min(upper, bound, key=_exactly)
    if upper is not None and _compare(lower, upper) >= 0:
        raise EmptyDomain("the inequalities bound the free variable away "
                          "from its required range")
    return lower, upper


def regime_analysis(
    sol: MonomialSolution,
    inequalities: Sequence[InequalityPreference] = (),
) -> RegimeReport:
    """Split the free variable's positive axis into constant-order pieces.

    Crossing points are the roots z > 0 of c_a z^{d_a} = c_b z^{d_b} for
    every pair with different exponents, from _crossing: exact when
    rational, else the correctly rounded float. Each is z = r^(1/d) for a
    rational r, so crossings are compared, merged and tied exactly: by
    their floats where these differ (correct rounding is monotone), else
    as r1^d2 against r2^d1. Inequalities shrink
    the admissible domain at the same crossings; equal-exponent comparisons
    hold everywhere or nowhere.
    Orderings are read off that exact crossing order, never from a value
    at a sample point or a crossing's float: two components of different
    exponents tie at their crossing, and the larger exponent is the larger
    component above it and the smaller below it; equal exponents compare
    by coefficient (a float read as its binary value) everywhere. Each
    open piece sorts the ordering of the regime before it, and each
    crossing inside the domain gets a single-point regime that sorts the
    ordering just left of it; the sort is stable, so tied criteria keep
    the order they had just left of the point.

    Raises:
        EmptyDomain: the inequalities leave no admissible z > 0.
    """
    components = [(Fraction(c), d) for c, d in sol.components]
    n = len(components)
    lower, upper = _domain(components, inequalities)

    meetings = sorted(
        ((point, a, b) for a in range(n) for b in range(a + 1, n)
         if (point := _crossing(*components[a], *components[b]))),
        key=lambda m: _exactly(m[0]))
    crossings = []  # (crossing, the pairs that meet there), ascending
    for point, a, b in meetings:
        if crossings and _compare(crossings[-1][0], point) == 0:
            crossings[-1][1].add((a, b))
        else:
            crossings.append((point, {(a, b)}))

    inside = [(point, tied) for point, tied in crossings
              if _compare(point, lower) > 0
              and (upper is None or _compare(point, upper) < 0)]

    # each pair's side of its crossing in the current regime: -1 below,
    # 0 at, 1 above
    side = {(a, b): 1 if _compare(point, lower) <= 0 else -1
            for point, a, b in meetings}

    def larger_first(j: int, k: int) -> int:
        (coef_j, power_j), (coef_k, power_k) = components[j], components[k]
        if power_j == power_k:
            return (coef_k > coef_j) - (coef_k < coef_j)
        above = side[min(j, k), max(j, k)]
        return -above if power_j > power_k else above

    order = list(range(n))
    regimes: list[Regime] = []
    lo = lower
    for hi, tied in [*inside, (upper, None)]:
        regimes.append(Regime(lo[0], hi and hi[0],
                              _groups(order, larger_first)))
        if tied:
            side.update(dict.fromkeys(tied, 0))
            regimes.append(Regime(hi[0], hi[0], _groups(order, larger_first)))
            side.update(dict.fromkeys(tied, 1))
        lo = hi

    breakpoints = tuple(point[0] for point, _ in crossings)
    return RegimeReport((lower[0], upper and upper[0]), breakpoints,
                        tuple(regimes))
