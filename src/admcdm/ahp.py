"""Saaty-style pairwise baseline: reciprocal comparison matrix, principal
eigenpair, and the classical Consistency Index.

This exists for side-by-side comparison with the discounting pipeline. It
only accepts problems whose statements are all pairwise ratios: a single
multi-term or product statement makes the comparison-matrix construction
impossible, which is precisely the limitation the discounting method lifts.
The eigenpair comes from the same exact determinant, root and null-space
code as the discount parameter: the characteristic polynomial is one
integer determinant at a single large point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

from .errors import ConflictingPair, MissingPair, NotPairwise
from .model import InequalityPreference, MonomialPreference, Problem
from .scalars import (PriorityVector, Record, Scalar, exact, integer_row,
                      is_exact, normalize)


class AhpMatrix(Record):
    """Square positive comparison matrix with unit diagonal.

    ``entries[i][j]`` holds the stated importance ratio of criterion ``i``
    over criterion ``j``; the transpose entry must be its exact reciprocal,
    a float read as its binary value (0.5 and 2.0 pass, 1/3 and 3.0 fail).
    """

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 2:
            raise ValueError("a comparison matrix needs at least two criteria")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("comparison matrix must be square")
        for i in range(n):
            if self.entries[i][i] != 1:
                raise ValueError("comparison matrix diagonal must be all ones")
            for j in range(n):
                if not self.entries[i][j] > 0:
                    raise ValueError("comparison matrix entries must be positive")
                if exact(self.entries[j][i]) * exact(self.entries[i][j]) != 1:
                    raise ValueError(
                        "comparison matrix must be reciprocal: "
                        f"entry ({j}, {i}) is not 1 over entry ({i}, {j})"
                    )

    @property
    def n(self) -> int:
        return len(self.entries)


class AhpResult(Record):
    """Principal eigenpair of a comparison matrix.

    ``lambda_max`` is the dominant eigenvalue (a Fraction when rational,
    else the correctly rounded float), ``vector`` the normalized priority
    vector, ``ci`` the Consistency Index ``(lambda_max - n) / (n - 1)``,
    and ``iterations`` the number of integer determinants behind the
    characteristic polynomial (1, at a single large point).
    """

    lambda_max: Scalar
    vector: PriorityVector
    ci: Scalar
    iterations: int


def build_ahp_matrix(problem: Problem) -> AhpMatrix:
    """Assemble the pairwise comparison matrix from ratio statements.

    Every equation statement must relate exactly two criteria (a stated
    ratio); reciprocal entries are filled automatically and the diagonal is
    fixed at 1.

    Raises:
        NotPairwise: some statement is not a two-criteria ratio, so no
            comparison matrix exists for the problem.
        ConflictingPair: the same pair is stated twice with incompatible
            values (directly or through the reciprocal orientation).
        MissingPair: some pair of criteria is never compared.
    """
    names = problem.criteria.names
    n = problem.criteria.n
    cells: list[list[Scalar | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = Fraction(1)

    def put(i: int, j: int, value: Scalar) -> None:
        current = cells[i][j]
        if current is None:
            cells[i][j] = value
        elif current != value:
            raise ConflictingPair(
                f"pair ({names[i]}, {names[j]}) is stated twice with "
                "incompatible values"
            )

    for pref in problem.preferences:
        if isinstance(pref, InequalityPreference):
            raise NotPairwise(
                "inequality statements have no comparison-matrix form"
            )
        if isinstance(pref, MonomialPreference):
            raise NotPairwise(
                "a product statement has no comparison-matrix cell"
            )
        if len(pref.terms) != 1:
            raise NotPairwise(
                "only pairwise ratio statements can enter a comparison "
                "matrix; a multi-term statement has no cell"
            )
        j, value = pref.terms[0]
        put(pref.subject, j, value)
        put(j, pref.subject, 1 / value)

    for i in range(n):
        for j in range(n):
            if cells[i][j] is None:
                raise MissingPair(
                    f"pair ({names[i]}, {names[j]}) is never compared"
                )
    return AhpMatrix(tuple(tuple(row) for row in cells))  # type: ignore[arg-type]


def ahp_priority(m: AhpMatrix) -> AhpResult:
    """Principal eigenpair from the exact characteristic polynomial.

    det(A - lambda I), each row of A scaled to integers, is read off one
    integer determinant at lambda = 2**k by ``linalg.det_coefficients``,
    under Hadamard's bound, as the discount parameter's equation is.
    Its largest positive root is lambda_max: for a positive matrix that is
    the Perron root, which is simple (Saaty, The Analytic Hierarchy
    Process, 1980). So lambda_max I - A has rank n - 1, and the vector is
    the integer null vector of its last n - 1 rows (the first column of its
    adjugate, up to a positive scale), taken exactly at the Fraction of
    lambda_max, so no entry is too small next to another to count. Both
    are exact when lambda_max is rational and every entry is (a consistent
    matrix gives lambda_max = n, ci = 0 and w / sum(w)); otherwise
    lambda_max is the correctly rounded float and each vector component
    the float nearest to its value at it.
    """
    from .linalg import det_coefficients, null_vector
    from .polynomial import integer_positive_roots

    a, n = m.entries, m.n
    # the product of the row scales times det(A - x I): the same roots
    scaled = [integer_row(row) for row in a]
    char = det_coefficients(lambda x: [
        [c - scale * x if i == j else c for j, c in enumerate(ints)]
        for i, (ints, scale) in enumerate(scaled)],
        isqrt(prod(sum(c * c for c in ints) + scale * (scale + 2 * ints[i])
                   for i, (ints, scale) in enumerate(scaled))))
    lam = integer_positive_roots(char)[-1]
    # the rows of lambda_max I - A but the first; a float is read exactly
    rows = [[Fraction(lam) - 1 if i == j else -Fraction(a[i][j])
             for j in range(n)] for i in range(1, n)]
    vector = normalize(null_vector(rows)[0])
    if not is_exact(lam) or not all(is_exact(e) for row in a for e in row):
        vector = tuple(map(float, vector))
    return AhpResult(lam, vector, (lam - n) / (n - 1), 1)
