"""Linear algebra for the solver: polynomial-entry determinants, numeric
determinants and rank, and general solutions of dependent homogeneous
systems.

All exact work is one fraction-free Bareiss elimination over the integers,
each row scaled to integers first (a float entry read as the Fraction of its
binary value): the determinant is the signed last pivot, the rank the pivot
count, and carried above the pivots it gives the exact reduced echelon form.
A polynomial matrix is evaluated at deg + 1 integer points and its
determinant recovered by Newton interpolation (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 5); deg is the sum of the row degrees, so no
intermediate outgrows the result. Floats appear only when an irrational
discount is substituted; such rows are solved with partial pivoting and a
relative rank tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import FullRank, NonPositiveComponent, NotSquare
from .polynomial import Poly, peval, poly

RANK_TOL = 1e-9
# Consistency is exact (rank < n). Callers that scale a
# tolerance by this constant, |det| <= TOL * n! * max|a|^n, get the same
# exact test with 0.
CONSISTENT_DET_TOL = 0


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


def _integer_row(values):
    """values read exactly and scaled by the lcm of their denominators:
    (integers, scale)."""
    exact = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def _bareiss(mat, reduced=False):
    """Fraction-free elimination of the integer matrix mat, in place
    (Bareiss 1968); returns (pivot columns, sign of the row permutation).
    The first nonzero entry pivots; a column with none is skipped. Entries
    stay minors of the rows (Sylvester), so every division is exact. With
    reduced, rows above a pivot are cleared too, and the pivot rows over
    the last pivot are the reduced row echelon form (Cramer)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    pivots, sign, prev = [], 1, 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        swap = next((i for i in range(r, m) if mat[i][col]), None)
        if swap is None:
            continue
        if swap != r:
            mat[r], mat[swap] = mat[swap], mat[r]
            sign = -sign
        lo = 0 if reduced else col  # rows below are 0 left of col
        pivot, top = mat[r][col], mat[r][lo:]
        for i in range(0 if reduced else r + 1, m):
            if i != r:
                f = mat[i][col]
                mat[i][lo:] = [(pivot * a - f * b) // prev
                               for a, b in zip(mat[i][lo:], top)]
        prev = pivot
        pivots.append(col)
    return pivots, sign


def _det(mat) -> int:
    """Determinant of a square integer matrix; mat is overwritten."""
    pivots, sign = _bareiss(mat)
    return sign * mat[-1][-1] if len(pivots) == len(mat) else 0


def det_poly(mat: PolyMatrix) -> Poly:
    """Exact determinant over the polynomial ring: integer determinants at
    the points 0..deg, then Newton interpolation. At points one apart the
    divided differences of an integer polynomial are integers, so every
    division is exact."""
    if mat.m != mat.n:
        raise NotSquare(f"determinant needs a square matrix, got {mat.m}x{mat.n}")
    rows, scale, deg = [], 1, 0
    for row in mat.entries:
        ints, s = _integer_row(c for e in row for c in e.coeffs)
        it = iter(ints)
        rows.append([poly(next(it) for _ in e.coeffs) for e in row])
        scale *= s
        deg += max(e.degree for e in row)
    # a zero row leaves deg too small, but then every value is 0 anyway
    diffs = [_det([[peval(e, x) for e in row] for row in rows])
             for x in range(max(deg, 0) + 1)]
    for k in range(1, len(diffs)):
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // k
    acc = []
    for k in range(len(diffs) - 1, -1, -1):  # acc = acc * (x - k) + diffs[k]
        acc = [lo - k * a for lo, a in zip([diffs[k]] + acc, acc + [0])]
    return poly(Fraction(c, scale) for c in acc)


def det_numeric(rows) -> Fraction:
    """Exact determinant of a numeric square matrix, a float entry read as
    the Fraction of its binary value."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare("determinant needs a square matrix")
    scaled = [_integer_row(r) for r in rows]
    return Fraction(_det([ints for ints, _ in scaled]),
                    prod(s for _, s in scaled))


def _rref(rows):
    """Reduced row echelon form of rows holding a float; returns (worked
    rows, pivot columns).

    The pivot is the largest-magnitude entry in the column at or below the
    current row, earliest row on ties, and a column whose best entry falls
    below RANK_TOL times the largest matrix entry contributes no pivot.
    """
    work = [[Fraction(e) if isinstance(e, int) else e for e in r] for r in rows]
    m, n = len(work), len(work[0])
    cutoff = RANK_TOL * max(abs(e) for r in work for e in r)
    pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        best_row = None
        best = cutoff
        for i in range(r, m):
            a = abs(work[i][col])
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


def rank(rows) -> int:
    """Exact rank, a float entry read as the Fraction of its binary value."""
    return len(_bareiss([_integer_row(r)[0] for r in rows])[0])


def system_consistent(rows, n: int) -> bool:
    """Whether rows * x = 0 in n unknowns has a nontrivial solution."""
    return rank(rows) < n


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


def general_solution(rows) -> GeneralSolution:
    """Solution family of rows * x = 0; FullRank when only x = 0 solves it."""
    n = len(rows[0])
    if any(isinstance(e, float) for r in rows for e in r):
        work, pivots = _rref(rows)
    else:
        ints = [_integer_row(r)[0] for r in rows]
        pivots, _ = _bareiss(ints, reduced=True)
        # a pivot row over its pivot entry is its reduced echelon row
        work = [[Fraction(a, row[p]) for a in row]
                for row, p in zip(ints, pivots)]
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
    """The solution with every secondary variable set to 1. Float
    components at or below RANK_TOL times the largest one are rounding
    noise around 0, not positive."""
    v = gs.vector([Fraction(1)] * len(gs.secondary_vars))
    floor = 0
    if any(isinstance(c, float) for c in v):
        floor = RANK_TOL * max(abs(c) for c in v)
    for comp in v:
        if not comp > floor:
            raise NonPositiveComponent(
                "general solution admits no positive particular vector "
                "with all secondary variables at 1")
    return v

