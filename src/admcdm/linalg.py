"""Linear algebra for the solver: polynomial-entry determinants, numeric
rank, and general solutions of dependent homogeneous systems.

Numeric matrices are plain lists of rows whose entries are Fractions or
floats; when every entry is exact the elimination stays exact, so solution
components like 12z and 3z come out as Fractions rather than approximations.
Polynomial-entry matrices hold degree-<=1 entries in practice and their
determinant is expanded exactly: by cofactors for small sizes a human could
check, and by fraction-free Bareiss elimination (with exact polynomial
division) beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import FullRank, NonPositiveComponent, NotSquare
from .polynomial import (
    ONE,
    ZERO,
    Poly,
    padd,
    pdivmod,
    peval,
    pmul,
    pneg,
    poly,
    psub,
)

RANK_TOL = 1e-9
CONSISTENT_DET_TOL = 1e-9

PriorityVector = tuple


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of Poly entries."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or len(rows[0]) < 2:
            raise ValueError("matrix must have at least one row and two columns")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for e in row:
                if not isinstance(e, Poly):
                    raise TypeError("entries must be Poly values")

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])


def const_matrix(rows) -> PolyMatrix:
    """Lift a numeric matrix into constant polynomials."""
    return PolyMatrix(tuple(tuple(poly((e,)) for e in row) for row in rows))


def eval_matrix(mat: PolyMatrix, x):
    """Pointwise evaluation back to a numeric matrix."""
    return [[peval(e, x) for e in row] for row in mat.entries]


def _cofactor(rows) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return psub(pmul(rows[0][0], rows[1][1]), pmul(rows[0][1], rows[1][0]))
    acc = ZERO
    for j, e in enumerate(rows[0]):
        if e.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = pmul(e, _cofactor(minor))
        acc = padd(acc, term) if j % 2 == 0 else psub(acc, term)
    return acc


def _bareiss(rows) -> Poly:
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if mat[k][k].is_zero():
            swap = next(
                (i for i in range(k + 1, n) if not mat[i][k].is_zero()), None)
            if swap is None:
                # the whole remaining column is zero, so every surviving
                # minor vanishes and the determinant is identically zero
                return ZERO
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(mat[k][k], mat[i][j]),
                           pmul(mat[i][k], mat[k][j]))
                mat[i][j] = num if k == 0 else pdivmod(num, prev)[0]
            mat[i][k] = ZERO
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return det if sign == 1 else pneg(det)


def det_poly(mat: PolyMatrix) -> Poly:
    """Exact determinant over the polynomial ring."""
    if mat.m != mat.n:
        raise NotSquare(f"determinant needs a square matrix, got {mat.m}x{mat.n}")
    if mat.n <= 4:
        return _cofactor([list(r) for r in mat.entries])
    return _bareiss(mat.entries)


def det_numeric(rows):
    """Determinant of a numeric square matrix, exact for exact entries."""
    d = det_poly(const_matrix(rows))
    return peval(d, 0)


def _magnitude(rows) -> float:
    return max((abs(float(e)) for row in rows for e in row), default=0.0)


def _rref(rows, tol):
    """Reduced row echelon form; returns (worked rows, pivot columns).

    Columns are processed left to right; the pivot is the largest-magnitude
    entry in the column at or below the current row, earliest row on ties.
    A column whose best entry falls below tol times the largest matrix entry
    contributes no pivot.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    cutoff = tol * _magnitude(work)
    pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        best_row = None
        best = cutoff
        for i in range(r, m):
            a = abs(float(work[i][col]))
            if a > best:
                best_row, best = i, a
        if best_row is None:
            continue
        work[r], work[best_row] = work[best_row], work[r]
        piv = work[r][col]
        work[r] = [e / piv for e in work[r]]
        for i in range(m):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots


def rank(rows, tol: float = RANK_TOL) -> int:
    return len(_rref(rows, tol)[1])


def system_consistent(rows, n: int) -> bool:
    """Whether the homogeneous system rows * x = 0 in n unknowns has a
    nontrivial solution: rank below n when the system is not square,
    otherwise |det| within CONSISTENT_DET_TOL * n! * max|a|^n."""
    if len(rows) != n:
        return rank(rows) < n
    top = _magnitude(rows)
    bound = CONSISTENT_DET_TOL * factorial(n) * top ** n
    return abs(float(det_numeric(rows))) <= bound


@dataclass(frozen=True)
class GeneralSolution:
    """Solution family of a dependent homogeneous system A x = 0.

    Non-pivot columns are the secondary (free) variables; each main variable
    is a linear combination of them. expressions holds, per main variable,
    the pair (column, coefficients aligned with secondary_vars).
    """

    n: int
    secondary_vars: tuple
    expressions: tuple

    def vector(self, values):
        """Full solution with the secondary variables set to values."""
        if len(values) != len(self.secondary_vars):
            raise ValueError("one value per secondary variable required")
        out = [None] * self.n
        for s, val in zip(self.secondary_vars, values):
            out[s] = val
        for p, coefs in self.expressions:
            out[p] = sum(c * v for c, v in zip(coefs, values))
        return out

    def basis(self):
        """One solution per secondary variable (that variable 1, others 0)."""
        k = len(self.secondary_vars)
        return [
            self.vector([Fraction(1) if i == j else Fraction(0)
                         for i in range(k)])
            for j in range(k)
        ]


def general_solution(rows, tol: float = RANK_TOL) -> GeneralSolution:
    work, pivots = _rref(rows, tol)
    n = len(rows[0])
    if len(pivots) == n:
        raise FullRank(
            "system has only the trivial solution; parameterize first")
    secondary = tuple(c for c in range(n) if c not in pivots)
    expressions = tuple(
        (p, tuple(-work[idx][s] for s in secondary))
        for idx, p in enumerate(pivots)
    )
    return GeneralSolution(n=n, secondary_vars=secondary,
                           expressions=expressions)


def particular_positive(gs: GeneralSolution):
    """The solution with every secondary variable set to 1."""
    v = gs.vector([Fraction(1)] * len(gs.secondary_vars))
    for comp in v:
        if not comp > 0:
            raise NonPositiveComponent(
                "general solution admits no positive particular vector "
                "with all secondary variables at 1")
    return v


def normalize(v) -> PriorityVector:
    vals = list(v)
    for x in vals:
        if not x > 0:
            raise NonPositiveComponent("can only normalize a positive vector")
    total = sum(vals)
    return tuple(x / total for x in vals)
