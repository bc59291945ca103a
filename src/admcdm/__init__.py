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

Each public name is imported from its module on first use (PEP 562), so a
caller loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ahp": ("AhpMatrix", "AhpResult", "ahp_priority", "build_ahp_matrix",
            "principal_eigen"),
    "classification": ("ClassificationReport", "DerivedRelation", "Label",
                       "classify", "derive_relations"),
    "errors": (
        "ConflictingPair", "DegenerateCore", "EmptyDomain", "EngineError",
        "FullRank", "InconsistentExtraParams", "InvalidGrid",
        "InvalidProblem", "InvalidTolerance", "MissingPair",
        "MultipleFreeVars", "NoConvergence", "NoPositiveRoot",
        "NonEquationPreference", "NonPositiveComponent",
        "NonPositiveParameter", "NonlinearPreferencePresent", "NotPairwise",
        "NotSquare", "NotTriangular", "OffSimplex", "OverDetermined",
        "ParseError", "ZeroPolynomial",
    ),
    "error_min": ("ErrorMinResult", "eval_error", "minimize_error",
                  "simplex_grid"),
    "linalg": ("GeneralSolution", "PolyMatrix", "det_numeric", "det_poly",
               "general_solution", "particular_positive", "rank"),
    "model": (
        "CriteriaSet", "InequalityPreference", "LinearPreference",
        "MonomialPreference", "ParamBinding", "Problem", "RatioPreference",
        "Relation", "assemble", "canonicalize", "default_binding",
        "make_cyclic_example",
    ),
    "nonlinear": ("MonomialSolution", "Regime", "RegimeReport",
                  "ordering_text", "regime_analysis", "solve_triangular"),
    "parser": ("format_preference", "format_problem", "parse_problem"),
    "polynomial": ("Poly", "peval", "poly", "positive_roots"),
    "scalars": ("PriorityVector", "Scalar", "exact", "fmt", "is_exact",
                "normalize", "sig"),
    "solver": ("AlphaSolution", "ConsistencyPolicy", "ParamSystem",
               "discount_report", "parameterize", "parametric_equation",
               "priority", "solve_alpha"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
