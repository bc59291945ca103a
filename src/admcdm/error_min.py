"""Accuracy functional over the open simplex: how far a candidate weight
vector is from satisfying every stated preference at once.

Each equation statement contributes the absolute value of its residual in
cleared-denominator form (the statement is multiplied through by the least
common denominator of its exact coefficients first), and the functional is
the sum of those absolute residuals. A consistent problem's priority vector
drives the functional to exactly zero; an inconsistent one has a strictly
positive floor.

When every equation statement is linear the functional is an L1 fit, and
its minimum is the optimum of a linear program (Charnes, Cooper & Ferguson
1955): minimise sum(u_i + v_i) subject to residual_i(x) = u_i - v_i,
sum(x) = 1 and x, u, v >= 0. A dense fraction-free simplex method with
Bland's rule (Bland 1977) solves it exactly. An optimal vertex on the
simplex boundary is pulled toward the barycentre just far enough to be
strictly positive while staying within 1e-12 * max(1, minimum) of the
minimum. Product statements make the functional nonlinear; for them an
exact coarse grid, bounded by a point budget, is followed by
derivative-free simplex refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lcm
from typing import Callable, Iterator, Sequence

from .errors import InvalidGrid, OffSimplex
from .model import (
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    Problem,
    canonicalize,
)
from .scalars import Scalar, exact

SIMPLEX_TOL = 1e-9
BOUNDARY_MARGIN = 1e-9
DIAMETER_TOL = 1e-10
DEFAULT_GRID = 100
DEFAULT_REFINE = 500
GRID_BUDGET = 200_000
BOUNDARY_SLACK = Fraction(1, 10**12)


@dataclass(frozen=True)
class ErrorMinResult:
    """Outcome of minimizing the accuracy functional.

    ``argmin`` is the best weight vector found (exact fractions from the
    linear program or when the grid optimum stands, floats once refinement
    improves on it), ``value`` the functional there, ``evaluations`` the
    number of simplex pivots (linear statements) or functional evaluations
    (product statements) spent, and ``refined`` whether local refinement
    beat the best grid point (always false for linear statements).
    """

    argmin: tuple[Scalar, ...]
    value: Scalar
    evaluations: int
    refined: bool


_Term = tuple[Scalar, tuple[tuple[int, int], ...]]
_Statement = tuple[int, Scalar, tuple[_Term, ...]]


def _statements(problem: Problem) -> list[_Statement]:
    """Each equation statement in cleared-denominator form (subject, scale,
    terms): its residual is scale * x[subject] minus, for every term
    (w, exponents), w times the product of x[j] ** p."""
    out = []
    for pref in problem.preferences:
        if isinstance(pref, InequalityPreference):
            continue
        if isinstance(pref, MonomialPreference):
            coef = pref.coefficient
            if isinstance(coef, Fraction):
                scale, weight = coef.denominator, coef.numerator
            else:
                scale, weight = 1, coef
            out.append((pref.subject, scale, ((weight, pref.exponents),)))
            continue
        flat: LinearPreference = canonicalize(pref)
        denominators = [
            a.denominator for _, a in flat.terms if isinstance(a, Fraction)
        ]
        scale = lcm(*denominators) if denominators else 1
        terms = tuple((scale * a, ((j, 1),)) for j, a in flat.terms)
        out.append((flat.subject, scale, terms))
    return out


def _residual(
    subject: int, scale: Scalar, terms: tuple[_Term, ...]
) -> Callable[[Sequence[Scalar]], Scalar]:
    def residual(x: Sequence[Scalar]) -> Scalar:
        acc = scale * x[subject]
        for weight, exponents in terms:
            product = weight
            for j, power in exponents:
                product = product * (x[j] if power == 1 else x[j] ** power)
            acc = acc - product
        return acc

    return residual


def _functional(
    residuals: list[Callable[[Sequence[Scalar]], Scalar]],
    x: Sequence[Scalar],
) -> Scalar:
    value: Scalar = Fraction(0)
    for residual in residuals:
        value = value + abs(residual(x))
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
    return _functional(
        [_residual(*st) for st in _statements(problem)], point
    )


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

    def parts(total: int, count: int) -> Iterator[tuple[int, ...]]:
        if count == 1:
            yield (total,)
            return
        for first in range(1, total - count + 2):
            for rest in parts(total - first, count - 1):
                yield (first, *rest)

    return parts(grid_points, n)


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
    problem: Problem,
    grid_points: int = DEFAULT_GRID,
    refine_iters: int = DEFAULT_REFINE,
) -> ErrorMinResult:
    """Minimize the accuracy functional over the open simplex.

    Linear statements only: the exact minimum of the L1 linear program
    (``grid_points`` and ``refine_iters`` are not used), at a strictly
    positive point within 1e-12 * max(1, minimum) of it when the optimal
    vertex has a zero weight. ``value`` is ``eval_error(problem, argmin)``
    and ``evaluations`` the number of pivots. With a product
    statement: an exact scan of the interior barycentric grid picks the
    starting point (first of any ties in lexicographic order), then
    Nelder-Mead simplex descent on the first n-1 coordinates refines it,
    rejecting any step that leaves the open simplex by more than the
    boundary margin. The whole procedure is deterministic.

    Raises:
        InvalidGrid: with a product statement, the grid is too coarse or
            over the point budget (see ``simplex_grid``).
    """
    if any(isinstance(p, MonomialPreference) for p in problem.preferences):
        return _grid_minimize(problem, grid_points, refine_iters)
    return _lp_minimize(problem)


def _lp_minimize(problem: Problem) -> ErrorMinResult:
    """Exact L1 minimum by a fraction-free tableau simplex.

    Columns are x_0..x_{n-1}, u_0..u_{m-1}, v_0..v_{m-1} and the right-hand
    side. Row i states k_i * residual_i(x) - k_i u_i + k_i v_i = 0, with k_i
    the smallest integer that makes the residual's coefficients integral
    (1 unless a coefficient is a float); row m states sum(x) = 1. The
    tableau holds d * B^-1 [A | b] for the current basis B and d = |det B|,
    so every entry is an integer and each pivot divides exactly by the
    previous d (Edmonds). The last row holds d times the reduced costs,
    with -d times the objective in its right-hand side.
    """
    n = problem.criteria.n
    rows: list[list[Fraction]] = []
    for subject, scale, terms in _statements(problem):
        row = [Fraction(0)] * n
        row[subject] += scale
        for weight, ((j, _),) in terms:
            row[j] -= Fraction(weight)
        rows.append(row)
    m = len(rows)
    width = n + 2 * m
    ks = [lcm(*(c.denominator for c in row)) for row in rows]
    d = 1
    for k in ks:
        d *= k

    # Start basis: x_0 on the sum row, and on row i whichever of u_i, v_i
    # takes the residual at the vertex e_0, which is k_i * rows[i][0].
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (row, k) in enumerate(zip(rows, ks)):
        ints = [int(c * k) for c in row]
        sign = 1 if ints[0] >= 0 else -1
        factor = sign * (d // k)
        line = [factor * (ints[0] - c) for c in ints]
        line += [0] * (2 * m) + [factor * ints[0]]
        line[n + i] = sign * d
        line[n + m + i] = -sign * d
        tableau.append(line)
        basis.append(n + i if sign > 0 else n + m + i)
    tableau.append([d] * n + [0] * (2 * m) + [d])
    basis.append(0)
    costs = [0] * n + [d] * (2 * m) + [0]
    for line in tableau[:m]:
        costs = [c - e for c, e in zip(costs, line)]
    tableau.append(costs)

    pivots = 0
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
        vertex = _pull_inward(rows, vertex, Fraction(-costs[width], d))
    point = tuple(vertex)
    return ErrorMinResult(point, eval_error(problem, point), pivots, False)


def _pull_inward(
    rows: list[list[Fraction]], vertex: list[Fraction], minimum: Fraction
) -> list[Fraction]:
    """Move a boundary optimum toward the barycentre c by the largest
    eps = 10^-k (k >= 0) with eps * (f(c) - minimum) <= 1e-12 * max(1,
    minimum). The functional is convex, so its value at the returned
    strictly positive point exceeds the minimum by at most that bound."""
    n = len(vertex)
    centre = Fraction(1, n)
    at_centre = sum(abs(sum(row) * centre) for row in rows)
    gap = at_centre - minimum
    bound = BOUNDARY_SLACK * max(1, minimum)
    eps = Fraction(1)
    while eps * gap > bound:
        eps /= 10
    return [(1 - eps) * v + eps * centre for v in vertex]


def _grid_scan(
    statements: list[_Statement],
    n: int,
    grid_points: int,
) -> tuple[tuple[int, ...], int]:
    """First grid point k (x = k / grid_points, lexicographic order) with
    the least functional, and the number of points scanned.

    Every residual at x = k / G, times L * G^D with D the largest term
    degree and L the lcm of all coefficient denominators (floats read
    exactly), is an integer polynomial in k; the scan compares those
    exact integers.
    """
    degree = max(
        sum(power for _, power in exponents)
        for _, _, terms in statements
        for _, exponents in terms
    )
    coefficients = [
        Fraction(c) for _, scale, terms in statements
        for c in (scale, *(weight for weight, _ in terms))
    ]
    common = lcm(*(c.denominator for c in coefficients))

    def integral(c: Scalar, term_degree: int) -> int:
        scaled = common * Fraction(c) * grid_points ** (degree - term_degree)
        return int(scaled)

    rows = [
        (subject, integral(scale, 1), tuple(
            (integral(weight, sum(p for _, p in exponents)), exponents)
            for weight, exponents in terms))
        for subject, scale, terms in statements
    ]
    best: tuple[int, ...] = ()
    best_total = -1
    count = 0
    for k in _compositions(n, grid_points):
        count += 1
        total = 0
        for subject, head, terms in rows:
            acc = head * k[subject]
            for product, exponents in terms:
                for j, power in exponents:
                    product *= k[j] ** power
                acc -= product
            total += abs(acc)
        if best_total < 0 or total < best_total:
            best, best_total = k, total
    return best, count


def _grid_minimize(
    problem: Problem, grid_points: int, refine_iters: int
) -> ErrorMinResult:
    """Exact grid scan plus Nelder-Mead refinement (see minimize_error)."""
    n = problem.criteria.n
    statements = _statements(problem)
    residuals = [_residual(*st) for st in statements]
    combo, evaluations = _grid_scan(statements, n, grid_points)
    grid_best = tuple(Fraction(k, grid_points) for k in combo)
    grid_value = _functional(residuals, grid_best)

    def total_at(point: Sequence[Scalar]) -> Scalar:
        nonlocal evaluations
        evaluations += 1
        return _functional(residuals, point)

    if refine_iters <= 0 or float(grid_value) == 0.0:
        return ErrorMinResult(grid_best, grid_value, evaluations, False)

    def penalized(u: Sequence[float]) -> float:
        last = 1.0 - sum(u)
        full = (*u, last)
        if any(v <= BOUNDARY_MARGIN for v in full):
            return inf
        return float(total_at(full))

    start = [float(v) for v in grid_best[:-1]]
    step = 1.0 / (2.0 * grid_points)
    simplex = [list(start)]
    for k in range(n - 1):
        vertex = list(start)
        vertex[k] += step
        if penalized(vertex) == inf:
            vertex[k] -= 2.0 * step
        simplex.append(vertex)
    values = [penalized(v) for v in simplex]

    for _ in range(refine_iters):
        order = sorted(range(len(simplex)), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = max(
            abs(simplex[i][k] - simplex[0][k])
            for i in range(1, len(simplex))
            for k in range(n - 1)
        )
        if spread < DIAMETER_TOL:
            break
        worst = simplex[-1]
        centroid = [
            sum(vertex[k] for vertex in simplex[:-1]) / (len(simplex) - 1)
            for k in range(n - 1)
        ]
        reflected = [2.0 * centroid[k] - worst[k] for k in range(n - 1)]
        f_reflected = penalized(reflected)
        if f_reflected < values[0]:
            expanded = [3.0 * centroid[k] - 2.0 * worst[k] for k in range(n - 1)]
            f_expanded = penalized(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = [
                    1.5 * centroid[k] - 0.5 * worst[k] for k in range(n - 1)
                ]
            else:
                contracted = [
                    0.5 * centroid[k] + 0.5 * worst[k] for k in range(n - 1)
                ]
            f_contracted = penalized(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                for i in range(1, len(simplex)):
                    simplex[i] = [
                        0.5 * (simplex[i][k] + best[k]) for k in range(n - 1)
                    ]
                    values[i] = penalized(simplex[i])

    winner = min(range(len(simplex)), key=lambda i: values[i])
    if values[winner] < float(grid_value):
        u = simplex[winner]
        full = [*u, 1.0 - sum(u)]
        total = sum(full)
        argmin = tuple(v / total for v in full)
        return ErrorMinResult(argmin, values[winner], evaluations, True)
    return ErrorMinResult(grid_best, grid_value, evaluations, False)
