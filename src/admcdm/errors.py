"""Exception types shared across the engine.

Every domain failure derives from EngineError so callers (and the CLI) can
distinguish engine conditions from programming errors. ParseError carries a
1-based position into the input text.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class InvalidProblem(EngineError):
    """A Problem value violates a structural invariant at construction."""


class NonEquationPreference(EngineError):
    """An inequality was passed where an equation is required."""


class NonlinearPreferencePresent(EngineError):
    """A monomial preference reached the linear pipeline."""


class NonPositiveParameter(EngineError):
    """A parameter that must be strictly positive was not."""


class ZeroPolynomial(EngineError):
    """Root extraction on the identically-zero polynomial."""


class NotSquare(EngineError):
    """Determinant of a non-square matrix."""


class FullRank(EngineError):
    """Homogeneous system has only the trivial solution."""


class NonPositiveComponent(EngineError):
    """A vector that must be strictly positive has a component <= 0."""


class DegenerateCore(EngineError):
    """The designated core has an identically-zero parametric determinant."""


class NoPositiveRoot(EngineError):
    """The parametric equation has no root alpha > 0."""


class InconsistentExtraParams(EngineError):
    """A statement outside the core gets no parameter: the core lacks
    exactly one null vector at alpha, or the statement's beta is not > 0."""


class NotPairwise(EngineError):
    """Problem contains a preference AHP cannot represent."""


class MissingPair(EngineError):
    """Pairwise matrix has an uncovered criterion pair."""


class ConflictingPair(EngineError):
    """Duplicate pairwise statements that are not reciprocal-consistent."""


class NoConvergence(EngineError):
    """Iteration budget exhausted before the tolerance was met."""


class OffSimplex(EngineError):
    """A point that must lie on the open probability simplex does not."""


class InvalidTolerance(EngineError, ValueError):
    """An iteration stop tolerance that is not a positive finite number."""


class InvalidGrid(EngineError, ValueError):
    """A simplex grid has no interior point or exceeds the point budget."""


class NotTriangular(EngineError):
    """No substitution order solves the monomial system."""


class MultipleFreeVars(EngineError):
    """The monomial system leaves more than one variable free."""


class OverDetermined(EngineError):
    """Substitution closes the free variable to a constant."""


class EmptyDomain(EngineError):
    """Inequalities leave no admissible z > 0."""
