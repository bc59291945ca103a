"""Priority vectors from n-wise preference statements by parameter
discounting.

The package turns a set of stated relations among criteria importances —
ratios, linear combinations, products, strict inequalities — into a
normalized priority vector. Inconsistent statements are reconciled by
scaling every right-hand side with a shared parameter whose value is fixed
by the vanishing determinant of the system, and the distance of that
parameter from 1 measures how inconsistent the statements were. A pairwise
eigenvector baseline, an accuracy functional with a simplex minimizer, a
consistency classifier, and a nonlinear triangular extension round out the
toolbox.
"""

from .ahp import AhpMatrix, AhpResult, ahp_priority, build_ahp_matrix, principal_eigen
from .classify import ClassificationReport, DerivedRelation, Label, classify, derive_relations
from .errors import (
    ConflictingPair,
    DegenerateCore,
    EmptyDomain,
    EngineError,
    FullRank,
    InconsistentExtraParams,
    InvalidGrid,
    InvalidProblem,
    MissingPair,
    MultipleFreeVars,
    NoConvergence,
    NoPositiveRoot,
    NonEquationPreference,
    NonPositiveComponent,
    NonPositiveParameter,
    NonlinearPreferencePresent,
    NotPairwise,
    NotSquare,
    NotTriangular,
    OffSimplex,
    OverDetermined,
    ParseError,
    ZeroPolynomial,
)
from .error_min import ErrorMinResult, eval_error, minimize_error, simplex_grid
from .linalg import (
    GeneralSolution,
    PolyMatrix,
    PriorityVector,
    det_numeric,
    det_poly,
    general_solution,
    normalize,
    particular_positive,
    rank,
)
from .model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    RatioPreference,
    Relation,
    assemble,
    canonicalize,
    default_binding,
    make_cyclic_example,
)
from .nonlinear import (
    MonomialSolution,
    Regime,
    RegimeReport,
    ordering_text,
    regime_analysis,
    solve_triangular,
)
from .parser import format_preference, format_problem, parse_problem
from .polynomial import Poly, peval, poly, positive_roots
from .scalars import Scalar, exact, fmt, is_exact, sig
from .solver import (
    AlphaSolution,
    ConsistencyPolicy,
    ParamSystem,
    discount_report,
    parameterize,
    parametric_equation,
    priority,
    solve_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AhpMatrix",
    "AhpResult",
    "AlphaSolution",
    "ClassificationReport",
    "ConflictingPair",
    "ConsistencyPolicy",
    "CriteriaSet",
    "DegenerateCore",
    "DerivedRelation",
    "EmptyDomain",
    "EngineError",
    "ErrorMinResult",
    "FullRank",
    "GeneralSolution",
    "InconsistentExtraParams",
    "InequalityPreference",
    "InvalidGrid",
    "InvalidProblem",
    "Label",
    "LinearPreference",
    "MissingPair",
    "MonomialPreference",
    "MonomialSolution",
    "MultipleFreeVars",
    "NoConvergence",
    "NoPositiveRoot",
    "NonEquationPreference",
    "NonPositiveComponent",
    "NonPositiveParameter",
    "NonlinearPreferencePresent",
    "NotPairwise",
    "NotSquare",
    "NotTriangular",
    "OffSimplex",
    "OverDetermined",
    "ParamBinding",
    "ParamSystem",
    "ParseError",
    "Poly",
    "PolyMatrix",
    "PriorityVector",
    "Problem",
    "RatioPreference",
    "Regime",
    "RegimeReport",
    "Relation",
    "Scalar",
    "ZeroPolynomial",
    "ahp_priority",
    "assemble",
    "build_ahp_matrix",
    "canonicalize",
    "classify",
    "default_binding",
    "derive_relations",
    "det_numeric",
    "det_poly",
    "discount_report",
    "eval_error",
    "exact",
    "fmt",
    "format_preference",
    "format_problem",
    "general_solution",
    "is_exact",
    "make_cyclic_example",
    "minimize_error",
    "normalize",
    "ordering_text",
    "parameterize",
    "parametric_equation",
    "parse_problem",
    "particular_positive",
    "peval",
    "poly",
    "positive_roots",
    "principal_eigen",
    "priority",
    "rank",
    "regime_analysis",
    "sig",
    "simplex_grid",
    "solve_alpha",
    "solve_triangular",
    "__version__",
]
