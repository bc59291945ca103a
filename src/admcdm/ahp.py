"""Saaty-style pairwise baseline: reciprocal comparison matrix, principal
eigenpair, and the classical Consistency Index.

This exists for side-by-side comparison with the discounting pipeline. It
only accepts problems whose statements are all pairwise ratios: a single
multi-term or product statement makes the comparison-matrix construction
impossible, which is precisely the limitation the discounting method lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConflictingPair,
    InvalidTolerance,
    MissingPair,
    NoConvergence,
    NotPairwise,
)
from .model import (
    InequalityPreference,
    MonomialPreference,
    Problem,
    canonicalize,
)
from .scalars import PriorityVector, Scalar

RECIPROCAL_TOL = 1e-12
EIGEN_AT_N_TOL = 1e-8
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
_MAX_SQUARINGS = 64


@dataclass(frozen=True)
class AhpMatrix:
    """Square positive comparison matrix with unit diagonal.

    ``entries[i][j]`` holds the stated importance ratio of criterion ``i``
    over criterion ``j``; the transpose entry must be its reciprocal.
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
                recip = 1 / float(self.entries[i][j])
                if abs(float(self.entries[j][i]) - recip) > RECIPROCAL_TOL * max(
                    1.0, abs(recip)
                ):
                    raise ValueError(
                        "comparison matrix must be reciprocal: "
                        f"entry ({j}, {i}) is not 1 over entry ({i}, {j})"
                    )

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class AhpResult:
    """Principal eigenpair of a comparison matrix.

    ``lambda_max`` is the dominant eigenvalue, ``vector`` the normalized
    priority vector, ``ci`` the Consistency Index
    ``(lambda_max - n) / (n - 1)``, and ``iterations`` the number of
    matrix-vector or squaring steps spent reaching the stop rule.
    """

    lambda_max: float
    vector: PriorityVector
    ci: float
    iterations: int


def _matches(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= RECIPROCAL_TOL * max(1.0, abs(x), abs(y))


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
        elif not _matches(current, value):
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
        flat = canonicalize(pref)
        if len(flat.terms) != 1:
            raise NotPairwise(
                "only pairwise ratio statements can enter a comparison "
                "matrix; a multi-term statement has no cell"
            )
        j, value = flat.terms[0]
        put(flat.subject, j, value)
        put(j, flat.subject, 1 / value)

    for i in range(n):
        for j in range(n):
            if cells[i][j] is None:
                raise MissingPair(
                    f"pair ({names[i]}, {names[j]}) is never compared"
                )
    return AhpMatrix(tuple(tuple(row) for row in cells))  # type: ignore[arg-type]


def _as_floats(m: AhpMatrix) -> list[list[float]]:
    return [[float(e) for e in row] for row in m.entries]


def _mat_vec(a: list[list[float]], v: list[float]) -> list[float]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def principal_eigen(
    m: AhpMatrix, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> AhpResult:
    """Dominant eigenpair by power iteration from the uniform vector.

    Each step multiplies by the matrix and renormalizes to unit sum; the
    eigenvalue estimate is the ratio of successive iterate sums, which for
    a unit-sum iterate is just the pre-normalization sum. Stops when two
    successive normalized vectors differ by less than ``tol`` in the
    infinity norm.

    Raises:
        InvalidTolerance: ``tol`` is not a positive finite number.
        NoConvergence: the stop rule is not met within ``max_iter`` steps.
    """
    if not 0 < tol < math.inf:
        raise InvalidTolerance(
            f"tol must be a positive finite number, got {tol!r}")
    a = _as_floats(m)
    n = m.n
    v = [1.0 / n] * n
    lam = float(n)
    for step in range(1, max_iter + 1):
        w = _mat_vec(a, v)
        total = sum(w)
        lam = total
        w = [x / total for x in w]
        if max(abs(w[i] - v[i]) for i in range(n)) < tol:
            v = w
            return AhpResult(lam, tuple(v), (lam - n) / (n - 1), step)
        v = w
    raise NoConvergence(
        f"power iteration did not settle within {max_iter} steps"
    )


def ahp_priority(m: AhpMatrix, tol: float = DEFAULT_TOL) -> AhpResult:
    """Priority vector via the classical matrix-squaring recipe.

    A matrix whose dominant eigenvalue already sits at ``n`` (the perfectly
    consistent case) keeps its power-iteration eigenpair. Otherwise the
    matrix is repeatedly squared, with each square rescaled by its largest
    entry to keep the powers bounded, and the normalized row sums form the
    candidate vector; the loop stops once two successive candidates differ
    by less than ``tol`` in the infinity norm. The reported eigenvalue is
    the Rayleigh ratio on the final squared matrix with the rescaling
    factors folded back in, so it estimates the dominant eigenvalue of the
    original matrix.

    Raises:
        InvalidTolerance: ``tol`` is not a positive finite number.
        NoConvergence: the squaring loop fails to settle.
    """
    eigen = principal_eigen(m, tol)
    n = m.n
    if abs(eigen.lambda_max - n) <= EIGEN_AT_N_TOL * n:
        return eigen

    b = _as_floats(m)
    v = None
    log_scale = 0.0  # log of the dominant eigenvalue of the rescaled power
    squarings = 0
    for squarings in range(1, _MAX_SQUARINGS + 1):
        b = [
            [sum(b[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        biggest = max(max(row) for row in b)
        b = [[x / biggest for x in row] for row in b]
        # After k squarings the rescaled matrix is the 2^k-th matrix power
        # over the product of the rescaling factors, so the original
        # eigenvalue accumulates as sum(log(factor) / 2^step).
        log_scale += math.log(biggest) / (2.0**squarings)
        sums = [sum(row) for row in b]
        total = sum(sums)
        candidate = [s / total for s in sums]
        if v is not None and max(
            abs(candidate[i] - v[i]) for i in range(n)
        ) < tol:
            v = candidate
            break
        v = candidate
    else:
        raise NoConvergence("matrix squaring did not settle")

    numerator = sum(v[i] * sum(b[i][j] * v[j] for j in range(n)) for i in range(n))
    denominator = sum(x * x for x in v)
    rayleigh = numerator / denominator
    lam = math.exp(log_scale + math.log(rayleigh) / (2.0**squarings))
    return AhpResult(lam, tuple(v), (lam - n) / (n - 1), squarings)
