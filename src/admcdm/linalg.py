"""Linear algebra for the solver: polynomial-entry determinants, numeric
determinants and rank, null vectors and general solutions of dependent
homogeneous systems.

All exact work is one fraction-free Bareiss elimination over the integers,
each row scaled to integers first (a float entry read as its binary value):
the determinant is the signed last pivot, the rank the pivot count, and
carried above the pivots it gives the reduced echelon form times the last
pivot. A step rewrites only the rows with a nonzero in its pivot column;
every other row is scaled lazily, once, so a statement's sparse row costs
work only at the steps that eliminate it. null_vector keeps integer rows in
integers; Fractions are built only for det_poly's and det_numeric's results
and general_solution's coefficients. A polynomial determinant is one
integer determinant at x = 2**k, its coefficients read off as the signed
base-2**k digits of that value (Kronecker substitution: von zur Gathen &
Gerhard, Modern Computer Algebra, 8.4).
Floats appear only when an irrational discount is substituted; such rows
are solved with partial pivoting and a relative rank tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

from .errors import FullRank, NonPositiveComponent, NotSquare
from .scalars import Record, integer_row

# the pivot cutoff of float elimination at an irrational root, until that
# vector is rounded once from exact cofactor polynomials
RANK_TOL = 1e-9
# Consistency is exact (rank < n). Callers that scale a
# tolerance by this constant, |det| <= TOL * n! * max|a|^n, get the same
# exact test with 0.
CONSISTENT_DET_TOL = 0


class PolyMatrix(Record):
    """Rectangular matrix of Poly entries."""

    entries: tuple

    def __post_init__(self):
        from .polynomial import Poly

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


def _bareiss(mat, reduced=False):
    """Fraction-free elimination of the integer matrix mat, in place
    (Bareiss 1968); returns (pivot columns, sign of the row permutation).
    The first nonzero entry pivots; a column with none is skipped. Entries
    stay minors of the rows (Sylvester), so every division is exact. With
    reduced, rows above a pivot are cleared too, and the pivot rows over
    the last pivot are the reduced row echelon form (Cramer).

    A step rewrites only the rows with a nonzero in its pivot column: the
    eager step would just multiply any other row by pivot / previous pivot.
    Each row records the step it is current at, and is brought up to date
    once, by a * dets[k] // dets[level], when it becomes the pivot row or
    when elimination ends; a step that eliminates it divides by
    dets[level] instead of the previous pivot, which folds that scaling
    in. Every quotient is the eager entry, so the result is the eager
    one, and a core of n one-term statements costs O(n^2), not O(n^3)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    pivots, sign, lo = [], 1, 0
    dets, level = [1], [0] * m  # dets[k]: the pivot of step k - 1

    def lift(i, k):  # bring row i up to step k, from lo on
        d, e = dets[k], dets[level[i]]
        mat[i][lo:] = [a * d // e for a in mat[i][lo:]]
        level[i] = k

    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        swap = next((i for i in range(r, m) if mat[i][col]), None)
        if swap is None:
            continue
        if swap != r:
            mat[r], mat[swap] = mat[swap], mat[r]
            level[r], level[swap] = level[swap], level[r]
            sign = -sign
        lo = 0 if reduced else col  # rows below are 0 left of col
        if level[r] != r:
            lift(r, r)
        pivot, top = mat[r][col], mat[r][lo:]
        for i in range(0 if reduced else r + 1, m):
            f = mat[i][col]
            if f and i != r:
                e = dets[level[i]]
                mat[i][lo:] = [(pivot * a - f * b) // e
                               for a, b in zip(mat[i][lo:], top)]
                level[i] = r + 1
        dets.append(pivot)
        pivots.append(col)
        if reduced:  # its own step leaves the pivot row as it is
            level[r] = r + 1
    # non-reduced, the rows above the rank never change after their step
    k = len(pivots)
    for i in range(0 if reduced else k, m):
        if level[i] != k:
            lift(i, k)
    return pivots, sign


def _det(mat) -> int:
    """Determinant of a square integer matrix; mat is overwritten."""
    pivots, sign = _bareiss(mat)
    return sign * mat[-1][-1] if len(pivots) == len(mat) else 0


def det_coefficients(rows_at, bound: int) -> list:
    """Integer coefficients, constant first, of det(rows_at(x)), an integer
    polynomial in x with no coefficient above bound in absolute value. They
    are the signed base-2**k digits of the one determinant at x = 2**k,
    k = bound.bit_length() + 1, since each lies strictly between
    -2**(k - 1) and 2**(k - 1) (Kronecker substitution).

    Callers pass Hadamard's bound isqrt(prod(r_i)), r_i the sum over row i
    of the squared sums of |coefficients| of its entries: a coefficient is
    at most the determinant's largest modulus on the unit circle, where an
    entry's modulus is at most its sum of |coefficients|, and Hadamard's
    inequality bounds that determinant by the product of the rows' norms."""
    k = bound.bit_length() + 1
    v, half = _det(rows_at(1 << k)), 1 << (k - 1)
    acc = []
    while v:
        c = (v + half) % (1 << k) - half
        acc.append(c)
        v = (v - c) >> k
    return acc


def det_poly(mat: PolyMatrix) -> Poly:
    """Exact determinant over the polynomial ring: each row scaled to
    integers, by det_coefficients under Hadamard's bound."""
    from .polynomial import peval, poly

    if mat.m != mat.n:
        raise NotSquare(f"determinant needs a square matrix, got {mat.m}x{mat.n}")
    rows, scale = [], 1
    for row in mat.entries:
        ints, s = integer_row(c for e in row for c in e.coeffs)
        it = iter(ints)
        rows.append([poly(next(it) for _ in e.coeffs) for e in row])
        scale *= s
    acc = det_coefficients(
        lambda x: [[peval(e, x) for e in row] for row in rows],
        isqrt(prod(sum(sum(map(abs, e.coeffs)) ** 2 for e in row)
                   for row in rows)))
    return poly(Fraction(c, scale) for c in acc)


def det_numeric(rows) -> Fraction:
    """Exact determinant of a numeric square matrix, a float entry read as
    the Fraction of its binary value."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare("determinant needs a square matrix")
    scaled = [integer_row(r) for r in rows]
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
    return len(_bareiss([integer_row(r)[0] for r in rows])[0])


class GeneralSolution(Record):
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
        ints = [integer_row(r)[0] for r in rows]
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
    return GeneralSolution(n, secondary, expressions)


def null_vector(rows):
    """(v, k): the solution of rows * x = 0 with its k secondary variables
    at 1.0 for rows holding a float, or for exact rows, scaled to
    integers, at |d|, d the last Bareiss pivot, so that v is integer;
    FullRank when only x = 0 solves it."""
    n = len(rows[0])
    kinds = {type(e) for r in rows for e in r}
    if any(issubclass(t, float) for t in kinds):
        gs = general_solution(rows)
        k = len(gs.secondary_vars)
        # 1.0: one Fraction among floats would send every later
        # operation on the vector through Fraction's fallbacks
        return gs.vector([1.0] * k), k
    # rows of ints, as row_at gives, need no clearing
    mat = ([list(r) for r in rows] if kinds == {int}
           else [integer_row(r)[0] for r in rows])
    pivots, _ = _bareiss(mat, reduced=True)
    if len(pivots) == n:
        raise FullRank(
            "system has only the trivial solution; parameterize first")
    d = mat[len(pivots) - 1][pivots[-1]] if pivots else 1
    secondary = [c for c in range(n) if c not in pivots]
    v = [abs(d)] * n
    for row, p in zip(mat, pivots):
        v[p] = -sum(row[c] for c in secondary) * (1 if d > 0 else -1)
    return v, len(secondary)


def positive(v):
    """v, checked to be positive: float components at or below RANK_TOL
    times the largest one are rounding noise around 0."""
    floats = any(isinstance(c, float) for c in v)
    floor = RANK_TOL * max(abs(c) for c in v) if floats else 0
    for comp in v:
        if not comp > floor:
            raise NonPositiveComponent(
                "general solution admits no positive particular vector "
                "with all secondary variables at 1")
    return v


def particular_positive(gs: GeneralSolution):
    """The solution with every secondary variable at 1, by positive()."""
    return positive(gs.vector([Fraction(1)] * len(gs.secondary_vars)))
