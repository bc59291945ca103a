"""Accuracy functional over the open simplex: how far a candidate weight
vector is from satisfying every stated preference at once.

Each equation statement contributes the absolute value of its residual in
its integer form (model's form: the statement as written, multiplied
through by the least common denominator of its coefficients, a float's
binary value included), and the functional is the sum of those absolute
residuals. A consistent problem's priority vector drives the functional
to exactly zero; an inconsistent one has a strictly positive floor.

When every equation statement is linear the functional is an L1 fit, and
its minimum is the optimum of a linear program (Charnes, Cooper & Ferguson
1955): minimise sum(u_i + v_i) subject to residual_i(x) = u_i - v_i,
sum(x) = 1 and x, u, v >= 0. A dense fraction-free simplex method with
Bland's rule (Bland 1977) solves it exactly. An optimal vertex on the
simplex boundary is pulled toward the barycentre just far enough to be
strictly positive while staying within 1e-12 * max(1, minimum) of the
minimum. The linear program ignores inequality statements.

Product statements make the functional nonlinear. A triangular set (see
nonlinear.solve_triangular) reaches exactly 0 at the root of one
polynomial when the inequalities admit it; any other product set gets an
exact scan of the barycentric grid points that meet every inequality,
bounded by a point budget.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, ulp
from typing import Iterator, Sequence

from .errors import (
    InvalidGrid,
    InvalidProblem,
    MultipleFreeVars,
    NotTriangular,
    OffSimplex,
    OverDetermined,
)
from .model import (
    InequalityPreference,
    MonomialPreference,
    Problem,
    Relation,
    is_equation,
)
from .scalars import Record, Scalar, exact, integer_row

# the one tolerance on a caller's input: eval_error accepts a float point
# whose weights sum to 1 within it
SIMPLEX_TOL = 1e-9
DEFAULT_GRID = 100
GRID_BUDGET = 200_000
BOUNDARY_SLACK = Fraction(1, 10**12)


class ErrorMinResult(Record):
    """Outcome of minimizing the accuracy functional.

    ``argmin`` is the best weight vector found: exact fractions, except
    floats at the irrational zero of a monomial family. ``value`` is the
    functional there (exactly 0 at a family zero), and ``evaluations`` the
    number of simplex pivots (linear statements), grid points scanned
    (product statements) or 0 (a family zero).
    """

    argmin: tuple[Scalar, ...]
    value: Scalar
    evaluations: int


_Term = tuple[int, tuple[tuple[int, int], ...]]
_Statement = tuple[int, int, tuple[_Term, ...]]


def _statements(problem: Problem) -> list[_Statement]:
    """Each equation statement's form, (subject, scale, terms) in
    integers: its residual is scale * x[subject] minus, for every term
    (w, exponents), w times the product of x[j] ** p."""
    return [p.form for p in problem.preferences if is_equation(p)]


def _functional(statements: list[_Statement], x: Sequence[Scalar]) -> Scalar:
    """Sum of the absolute residuals of the statements at the point x;
    an int when x and the statements are ints."""
    value: Scalar = 0
    for subject, scale, terms in statements:
        acc = scale * x[subject]
        for weight, exponents in terms:
            product = weight
            for j, power in exponents:
                product = product * (x[j] if power == 1 else x[j] ** power)
            acc = acc - product
        value = value + abs(acc)
    return value


def eval_error(problem: Problem, x: Sequence[Scalar]) -> Scalar:
    """Sum of absolute cleared-denominator residuals at the point ``x``.

    ``x`` must be a strictly positive weight vector summing to 1 within
    1e-9; exact fraction inputs are evaluated exactly.

    Raises:
        OffSimplex: ``x`` has the wrong length, a non-positive component,
            or does not sum to 1.
    """
    n = problem.criteria.n
    if len(x) != n:
        raise OffSimplex(f"expected {n} weights, got {len(x)}")
    point = tuple(exact(v) if not isinstance(v, float) else v for v in x)
    if not all(v > 0 for v in point):
        raise OffSimplex("weights must be strictly positive")
    total = sum(point)
    if abs(float(total) - 1.0) > SIMPLEX_TOL:
        raise OffSimplex(f"weights must sum to 1, got {float(total)!r}")
    return _functional(_statements(problem), point)


def _compositions(n: int, grid_points: int) -> Iterator[tuple[int, ...]]:
    """All positive integer n-tuples summing to grid_points, in
    lexicographic order; the grid is checked before the first one."""
    if grid_points < n:
        raise InvalidGrid(
            "grid_points must be at least the number of criteria "
            f"({n}) to have interior points"
        )
    count = comb(grid_points - 1, n - 1)
    if count > GRID_BUDGET:
        raise InvalidGrid(
            f"a grid of {grid_points} points per axis over {n} criteria has "
            f"{count} points, more than the budget of {GRID_BUDGET}"
        )
    return (
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, grid_points)))
        for cuts in combinations(range(1, grid_points), n - 1)
    )


def simplex_grid(n: int, grid_points: int) -> Iterator[tuple[Fraction, ...]]:
    """Interior barycentric grid: all positive multiples of 1/grid_points
    in n parts summing to 1, in lexicographic order.

    Raises:
        InvalidGrid: grid_points < n (no interior point), or the grid has
            more than ``GRID_BUDGET`` points; both before the first point.
    """
    return (
        tuple(Fraction(k, grid_points) for k in combo)
        for combo in _compositions(n, grid_points)
    )


def minimize_error(
    problem: Problem, grid_points: int = DEFAULT_GRID
) -> ErrorMinResult:
    """Minimize the accuracy functional over the open simplex.

    Linear statements only: the exact minimum of the L1 linear program
    (``grid_points`` is not used, nor are inequalities), at a strictly
    positive point within 1e-12 * max(1, minimum) of it when the optimal
    vertex has a zero weight. ``value`` is ``eval_error(problem, argmin)``
    and ``evaluations`` the number of pivots.

    With a product statement: a triangular set whose family point (exact,
    or correctly rounded floats at an irrational root) meets every
    inequality exactly gets value 0 there, with no evaluation. Any other set
    gets the first least grid point (lexicographic order) among the
    interior barycentric grid points that meet every inequality; the
    value there is exact and ``evaluations`` counts those points.

    Raises:
        EmptyDomain: a triangular set's inequalities admit no value of
            its free variable.
        InvalidGrid: the grid is too coarse or over the point budget (see
            ``simplex_grid``), or none of its points meets the
            inequalities.
    """
    if not any(isinstance(p, MonomialPreference) for p in problem.preferences):
        return _lp_minimize(problem)
    inequalities = [
        p for p in problem.preferences if isinstance(p, InequalityPreference)
    ]
    return (_family_zero(problem, inequalities)
            or _grid_minimize(problem, inequalities, grid_points))


def _lp_minimize(problem: Problem) -> ErrorMinResult:
    """Exact L1 minimum by a fraction-free tableau simplex.

    Columns are x_0..x_{n-1}, u_0..u_{m-1}, v_0..v_{m-1} and the right-hand
    side. Row i states residual_i(x) - u_i + v_i = 0, its coefficients the
    integers of _statements; row m states sum(x) = 1. The tableau holds
    d * B^-1 [A | b] for the current basis B and d = |det B|, so every
    entry is an integer and each pivot divides exactly by the previous d
    (Edmonds). The last row holds d times the reduced costs, with -d times
    the objective in its right-hand side.
    """
    n = problem.criteria.n
    statements = _statements(problem)
    rows: list[list[int]] = []
    for subject, scale, terms in statements:
        row = [0] * n
        row[subject] += scale
        for weight, ((j, _),) in terms:
            row[j] -= weight
        rows.append(row)
    m = len(rows)
    width = n + 2 * m

    # Start basis, of determinant 1: x_0 on the sum row, and on row i
    # whichever of u_i, v_i takes the residual at the vertex e_0, rows[i][0].
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        sign = 1 if row[0] >= 0 else -1
        line = [sign * (row[0] - c) for c in row]
        line += [0] * (2 * m) + [sign * row[0]]
        line[n + i] = sign
        line[n + m + i] = -sign
        tableau.append(line)
        basis.append(n + i if sign > 0 else n + m + i)
    tableau.append([1] * n + [0] * (2 * m) + [1])
    basis.append(0)
    costs = [0] * n + [1] * (2 * m) + [0]
    for line in tableau[:m]:
        costs = [c - e for c, e in zip(costs, line)]
    tableau.append(costs)

    d, pivots = 1, 0
    while True:
        enter = next((j for j in range(width) if costs[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m + 1):
            a = tableau[i][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = i
                continue
            # ratio rhs/a against the best so far; ties to the smaller
            # basic variable (Bland)
            lhs = tableau[i][width] * tableau[leave][enter]
            rhs = tableau[leave][width] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        assert leave is not None, "the L1 objective is bounded below"
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i, line in enumerate(tableau):
            if i == leave:
                continue
            f = line[enter]
            tableau[i] = [
                (e * p - f * q) // d for e, q in zip(line, pivot_row)
            ]
        costs = tableau[-1]
        basis[leave] = enter
        d = p
        pivots += 1

    vertex = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            vertex[var] = Fraction(tableau[i][width], d)
    if any(v == 0 for v in vertex):
        vertex = _pull_inward(statements, vertex, Fraction(-costs[width], d))
    point = tuple(vertex)
    return ErrorMinResult(point, eval_error(problem, point), pivots)


def _pull_inward(
    statements: list[_Statement], vertex: list[Fraction], minimum: Fraction
) -> list[Fraction]:
    """Move a boundary optimum toward the barycentre c by the largest
    eps = 10^-k (k >= 0) with eps * (f(c) - minimum) <= 1e-12 * max(1,
    minimum). The functional is convex, so its value at the returned
    strictly positive point exceeds the minimum by at most that bound."""
    n = len(vertex)
    centre = Fraction(1, n)
    gap = _functional(statements, [centre] * n) - minimum
    bound = BOUNDARY_SLACK * max(1, minimum)
    eps = Fraction(1)
    while eps * gap > bound:
        eps /= 10
    return [(1 - eps) * v + eps * centre for v in vertex]


def _family_zero(
    problem: Problem, inequalities: list[InequalityPreference]
) -> ErrorMinResult | None:
    """The exact zero of a triangular set, or None when the set is not
    triangular or its point breaks an inequality.

    The family x_k = c_k * z^{d_k} meets the simplex where
    sum(c_k * z^{d_k}) = 1; every c_k > 0 and the free variable has
    d = 1, so the sum rises strictly on z > 0 and has one root there. At
    an irrational root each component is the correctly rounded float of
    its exact value there; one that rounds to 0.0 is refused. Rounding is
    monotone, so a float point that meets x_a < x_b has exact components
    that do, and where the floats tie the point counts as outside.
    """
    from .nonlinear import _domain, solve_triangular
    from .polynomial import _round, integer_positive_roots

    try:
        family = solve_triangular(problem)
    except (NotTriangular, MultipleFreeVars, OverDetermined):
        return None
    components = family.components
    _domain(components, inequalities)  # raises EmptyDomain
    coeffs = [Fraction(-1)] + [0] * max(d for _, d in components)
    for c, d in components:
        coeffs[d] += c
    a = integer_row(coeffs)[0]
    (z,) = integer_positive_roots(a)
    if isinstance(z, float):
        # z < 1: its float neighbours, within 1 / q = ulp(z), bracket the
        # zero, where each component is irrational (were z**d rational for
        # a least d > 1, the irreducible x**d - r would divide a, which
        # reduced modulo it keeps a's positive x term), so _round ends
        q = Fraction(ulp(z)).denominator
        n = int(Fraction(z) * q)
        point = _round(a, n - 1, n + 1, q, 1, lambda k, den: tuple(
            c.numerator * k**d / (c.denominator * den**d)
            for c, d in components))
    else:
        point = tuple(c * z**d for c, d in components)
    if any(point[i] >= point[j] for i, j in _ordered(inequalities)):
        return None
    if 0.0 in point:  # a positive weight below the float range
        raise InvalidProblem("a root lies outside the float range")
    return ErrorMinResult(point, Fraction(0), 0)


def _ordered(inequalities: list[InequalityPreference]) -> list:
    """Each inequality as the pair (i, j) that states x_i < x_j."""
    return [(p.lhs, p.rhs) if p.relation is Relation.STRICT_LESS
            else (p.rhs, p.lhs) for p in inequalities]


def _grid_minimize(
    problem: Problem,
    inequalities: list[InequalityPreference],
    grid_points: int,
) -> ErrorMinResult:
    """First grid point k (x = k / grid_points, lexicographic order) that
    meets every inequality with the least functional.

    Every residual at x = k / G, times G^D with D the largest term degree,
    is an integer polynomial in k, since _statements' coefficients are
    integers: rows holds the statements so scaled, and the scan compares
    _functional(rows, k), an exact int. The inequalities compare the k's.
    """
    statements = _statements(problem)
    degree = max(
        sum(power for _, power in exponents)
        for _, _, terms in statements
        for _, exponents in terms
    )

    def integral(c: int, term_degree: int) -> int:
        return c * grid_points ** (degree - term_degree)

    rows = [
        (subject, integral(scale, 1), tuple(
            (integral(weight, sum(p for _, p in exponents)), exponents)
            for weight, exponents in terms))
        for subject, scale, terms in statements
    ]
    less = _ordered(inequalities)
    best: tuple[int, ...] = ()
    best_total = -1
    count = 0
    for k in _compositions(problem.criteria.n, grid_points):
        if any(k[a] >= k[b] for a, b in less):
            continue
        count += 1
        total = _functional(rows, k)
        if best_total < 0 or total < best_total:
            best, best_total = k, total
    if not count:
        names = problem.criteria.names
        stated = ", ".join(
            f"{names[p.lhs]} {p.relation.value} {names[p.rhs]}"
            for p in inequalities)
        raise InvalidGrid(f"no point of the grid of {grid_points} points "
                          f"per axis meets {stated}")
    point = tuple(Fraction(k, grid_points) for k in best)
    return ErrorMinResult(point, _functional(statements, point), count)
