"""Command-line front end: read problem files, run the requested analysis,
and emit deterministic text or JSON reports.

Every subcommand fills the same nine-block report document (problem echo,
classification, alpha, priority, discounts, ahp, error_min, regimes,
warnings); blocks a subcommand does not compute are null. Output depends
only on the input bytes and flags — no timestamps, no locale formatting —
and the JSON form survives a parse/serialize round trip byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .ahp import DEFAULT_TOL, AhpResult, ahp_priority, build_ahp_matrix
from .classify import ClassificationReport, Label, classify
from .errors import EngineError, InvalidProblem, ParseError
from .error_min import ErrorMinResult, eval_error, minimize_error, simplex_grid
from .linalg import normalize
from .model import (
    InequalityPreference,
    ParamBinding,
    Problem,
    make_cyclic_example,
)
from .nonlinear import (
    MonomialSolution,
    RegimeReport,
    ordering_text,
    regime_analysis,
    solve_triangular,
)
from .parser import format_preference, format_problem, parse_problem
from .scalars import Scalar, exact, fmt, sig
from .solver import (
    AlphaSolution,
    ConsistencyPolicy,
    discount_report,
    priority,
)

_EMPTY_DOC = {
    "problem": None,
    "classification": None,
    "alpha": None,
    "priority": None,
    "discounts": None,
    "ahp": None,
    "error_min": None,
    "regimes": None,
    "warnings": [],
}


def _num(value: Scalar) -> float:
    return sig(value)


def _exact_or_none(value: Scalar) -> str | None:
    return fmt(value) if isinstance(value, Fraction) else None


def _show(value: Scalar) -> str:
    """Both faces of a number: exact fraction plus decimal when rational."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{fmt(value)} = {sig(value)}"
    return str(sig(value))


def _load(path: Path, principle: str | None) -> tuple[Problem, list[str]]:
    problem = parse_problem(path.read_text(encoding="utf-8"))
    warnings: list[str] = []
    bound = any(m != 1 for m in problem.binding.multipliers)
    if principle == "fairness" and bound:
        plain = ParamBinding(
            multipliers=tuple(
                Fraction(1) for _ in problem.binding.multipliers
            ),
            core_mask=problem.binding.core_mask,
        )
        problem = Problem(problem.criteria, problem.preferences, plain)
        warnings.append(
            "expert multipliers ignored under the fairness principle"
        )
    elif principle == "expert" and not bound:
        raise InvalidProblem(
            "the expert principle needs bind: lines stating the "
            "parameter ratios"
        )
    return problem, warnings


def _problem_block(problem: Problem) -> dict:
    names = problem.criteria.names
    return {
        "criteria": list(names),
        "statements": [
            format_preference(p, names) for p in problem.preferences
        ],
        "multipliers": [fmt(m) for m in problem.binding.multipliers],
        "core": [i + 1 for i in problem.binding.core_mask],
    }


def _classification_block(report: ClassificationReport, names) -> dict:
    texts = []
    for rule, rel, other in report.witnesses:
        line = f"{rule}: {rel.describe(names)}"
        if other is not None:
            line += f" vs {other.describe(names)}"
        texts.append(line)
    return {
        "label": report.label.value,
        "rule": report.rule_fired,
        "witnesses": texts,
        "det_agrees": report.det_agrees,
        "depth_exceeded": report.depth_exceeded,
    }


def _alpha_block(sol: AlphaSolution) -> dict:
    return {
        "value": _num(sol.alpha),
        "exact": _exact_or_none(sol.alpha),
        "roots": [_num(r) for r in sol.roots],
        "consistency": _num(sol.consistency),
        "inconsistency": _num(sol.inconsistency),
        "extras": [
            {
                "statement": pos + 1,
                "value": _num(value),
                "exact": _exact_or_none(value),
            }
            for pos, value in sol.extra_params
        ],
        "discharged": sol.discharged,
    }


def _priority_block(vector) -> dict:
    all_exact = all(isinstance(v, Fraction) for v in vector)
    return {
        "decimal": [_num(v) for v in vector],
        "exact": [fmt(v) for v in vector] if all_exact else None,
    }


def _discounts_block(pairs) -> list:
    return [
        {
            "statement": pos + 1,
            "factor": _num(value),
            "exact": _exact_or_none(value),
        }
        for pos, value in pairs
    ]


def _ahp_block(matrix, result: AhpResult | None, failure: str | None) -> dict:
    if failure is not None:
        return {
            "error": failure,
            "matrix": None,
            "lambda_max": None,
            "vector": None,
            "ci": None,
            "iterations": None,
        }
    assert result is not None
    return {
        "error": None,
        "matrix": [[_num(e) for e in row] for row in matrix.entries],
        "lambda_max": _num(result.lambda_max),
        "vector": [_num(v) for v in result.vector],
        "ci": _num(result.ci),
        "iterations": result.iterations,
    }


def _error_min_block(result: ErrorMinResult) -> dict:
    all_exact = all(isinstance(v, Fraction) for v in result.argmin)
    return {
        "argmin": [_num(v) for v in result.argmin],
        "argmin_exact": (
            [fmt(v) for v in result.argmin] if all_exact else None
        ),
        "value": _num(result.value),
        "value_exact": _exact_or_none(result.value),
        "evaluations": result.evaluations,
        "refined": result.refined,
    }


def _regimes_block(
    sol: MonomialSolution,
    report: RegimeReport,
    names,
    at: tuple[Scalar, tuple[Scalar, ...]] | None,
) -> dict:
    lower, upper = report.domain
    pieces = []
    for regime in report.regimes:
        pieces.append(
            {
                "kind": "point" if regime.is_point else "interval",
                "lower": _num(regime.lower),
                "upper": None if regime.upper is None else _num(regime.upper),
                "ordering": ordering_text(regime.ordering, names),
            }
        )
    return {
        "free_var": names[sol.free_var],
        "components": [
            {
                "criterion": names[k],
                "coefficient": _num(coef),
                "exact": _exact_or_none(coef),
                "exponent": power,
            }
            for k, (coef, power) in enumerate(sol.components)
        ],
        "domain": [
            _num(lower),
            None if upper is None else _num(upper),
        ],
        "breakpoints": [_num(b) for b in report.breakpoints],
        "regimes": pieces,
        "at": (
            None
            if at is None
            else {"z": _num(at[0]), "vector": [_num(v) for v in at[1]]}
        ),
    }


def _emit(doc: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _interval_text(regime) -> str:
    if regime.is_point:
        return f"z = {_show(regime.lower)}"
    upper = "inf" if regime.upper is None else _show(regime.upper)
    return f"z in ({_show(regime.lower)}, {upper})"


def _solve_one(path: Path, args) -> tuple[dict, list[str]]:
    problem, warnings = _load(path, args.principle)
    names = problem.criteria.names
    policy = None
    if args.threshold_c is not None:
        policy = ConsistencyPolicy(threshold_c=exact(args.threshold_c))
    vector, alpha_sol, report = priority(problem, policy)
    if args.fallback == "uniform" and (
        alpha_sol.discharged or report.label is Label.STRONG_INCONSISTENT
    ):
        n = problem.criteria.n
        vector = tuple(Fraction(1, n) for _ in range(n))
        warnings.append(
            "priorities replaced by the uniform fallback: inconsistency "
            f"{sig(alpha_sol.inconsistency)} "
            + (
                "exceeds the requested threshold"
                if alpha_sol.discharged
                else "comes from strongly contradictory statements"
            )
        )
    discounts = discount_report(problem, vector)

    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["classification"] = _classification_block(report, names)
    doc["alpha"] = _alpha_block(alpha_sol)
    doc["priority"] = _priority_block(vector)
    doc["discounts"] = _discounts_block(discounts)
    doc["warnings"] = list(warnings)

    lines = [f"label: {report.label.value}"
             + (f" ({report.rule_fired})" if report.rule_fired else "")]
    lines.append(f"alpha = {_show(alpha_sol.alpha)}")
    for pos, value in alpha_sol.extra_params:
        lines.append(f"alpha[{pos + 1}] = {_show(value)}")
    lines.append(
        f"consistency c = {_show(alpha_sol.consistency)}, "
        f"inconsistency 1 - c = {_show(alpha_sol.inconsistency)}"
    )
    lines.append("priority:")
    for name, v in zip(names, vector):
        lines.append(f"  {name} = {_show(v)}")
    lines.append("discounts:")
    for pos, value in discounts:
        lines.append(f"  statement {pos + 1}: {_show(value)}")
    for w in warnings:
        lines.append(f"warning: {w}")
    return doc, lines


def _cmd_solve(args) -> int:
    paths: list[Path] = []
    for raw in args.files:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.admp")))
        else:
            paths.append(p)
    if not paths:
        raise InvalidProblem("no problem files given")
    if args.json and len(paths) > 1:
        raise InvalidProblem("--json reports exactly one file at a time")
    first = True
    for path in paths:
        doc, lines = _solve_one(path, args)
        if len(paths) > 1:
            if not first:
                print()
            print(f"== {path} ==")
        _emit(doc, lines, args.json)
        first = False
    return 0


def _cmd_classify(args) -> int:
    problem, warnings = _load(Path(args.file), args.principle)
    names = problem.criteria.names
    report = classify(problem)
    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["classification"] = _classification_block(report, names)
    doc["warnings"] = list(warnings)
    lines = [f"label: {report.label.value}"
             + (f" ({report.rule_fired})" if report.rule_fired else "")]
    for rule, rel, other in report.witnesses:
        line = f"  {rule}: {rel.describe(names)}"
        if other is not None:
            line += f" vs {other.describe(names)}"
        lines.append(line)
    if report.depth_exceeded:
        lines.append("note: derivation depth was capped; label is "
                     "conservative")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_ahp(args) -> int:
    problem, warnings = _load(Path(args.file), None)
    names = problem.criteria.names
    matrix = build_ahp_matrix(problem)
    result = ahp_priority(matrix, tol=args.tol)
    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["ahp"] = _ahp_block(matrix, result, None)
    doc["warnings"] = list(warnings)
    lines = [f"lambda_max = {sig(result.lambda_max)}",
             f"consistency index = {sig(result.ci)}"]
    lines.append("priority:")
    for name, v in zip(names, result.vector):
        lines.append(f"  {name} = {sig(v)}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_compare(args) -> int:
    problem, warnings = _load(Path(args.file), args.principle)
    names = problem.criteria.names
    vector, alpha_sol, report = priority(problem)
    matrix = None
    ahp_result: AhpResult | None = None
    failure: str | None = None
    try:
        matrix = build_ahp_matrix(problem)
        ahp_result = ahp_priority(matrix, tol=args.tol)
    except EngineError as exc:
        failure = f"{type(exc).__name__}: {exc}"

    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["classification"] = _classification_block(report, names)
    doc["alpha"] = _alpha_block(alpha_sol)
    doc["priority"] = _priority_block(vector)
    doc["discounts"] = _discounts_block(discount_report(problem, vector))
    doc["ahp"] = _ahp_block(matrix, ahp_result, failure)
    doc["warnings"] = list(warnings)

    lines = [f"label: {report.label.value}",
             f"alpha = {_show(alpha_sol.alpha)}"]
    lines.append("discounted priority vs pairwise eigenvector:")
    if ahp_result is None:
        for name, v in zip(names, vector):
            lines.append(f"  {name} = {_show(v)}")
        lines.append(f"pairwise baseline unavailable: {failure}")
    else:
        for name, v, w in zip(names, vector, ahp_result.vector):
            lines.append(f"  {name} = {_show(v)}  |  {sig(w)}")
        lines.append(f"lambda_max = {sig(ahp_result.lambda_max)}, "
                     f"consistency index = {sig(ahp_result.ci)}")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_error_min(args) -> int:
    problem, warnings = _load(Path(args.file), None)
    result = minimize_error(
        problem, grid_points=args.grid, refine_iters=args.refine
    )
    if args.csv is not None:
        n = problem.criteria.n
        rows = [",".join([*problem.criteria.names, "e"])]
        for point in simplex_grid(n, args.grid):
            value = eval_error(problem, point)
            rows.append(
                ",".join([str(sig(v)) for v in point] + [str(sig(value))])
            )
        body = "\n".join(rows) + "\n"
        if args.csv == "-":
            print(body, end="")
        else:
            Path(args.csv).write_text(body, encoding="utf-8")
    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["error_min"] = _error_min_block(result)
    doc["warnings"] = list(warnings)
    lines = [f"minimum value = {_show(result.value)}"]
    lines.append("argmin:")
    for name, v in zip(problem.criteria.names, result.argmin):
        lines.append(f"  {name} = {_show(v)}")
    lines.append(
        f"evaluations = {result.evaluations}, refined = "
        + ("yes" if result.refined else "no")
    )
    if args.csv is not None and args.csv != "-":
        lines.append(f"grid written to {args.csv}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_regimes(args) -> int:
    problem, warnings = _load(Path(args.file), None)
    names = problem.criteria.names
    sol = solve_triangular(problem)
    inequalities = [
        p for p in problem.preferences if isinstance(p, InequalityPreference)
    ]
    report = regime_analysis(sol, inequalities)
    at = None
    if args.at is not None:
        name, _, text = args.at.partition("=")
        if not text:
            raise InvalidProblem("--at expects NAME=VALUE")
        if name != names[sol.free_var]:
            raise InvalidProblem(
                f"the free variable is {names[sol.free_var]}, not {name}"
            )
        z = exact(text)
        if not z > 0:
            raise InvalidProblem("--at needs a positive value")
        lower, upper = report.domain
        if not (z > lower and (upper is None or z < upper)):
            warnings.append(
                "the requested point lies outside the admissible domain"
            )
        values = tuple(sol.value_at(k, z) for k in range(sol.n))
        at = (z, normalize(values))

    doc = dict(_EMPTY_DOC)
    doc["problem"] = _problem_block(problem)
    doc["regimes"] = _regimes_block(sol, report, names, at)
    doc["warnings"] = list(warnings)

    free = names[sol.free_var]
    parts = []
    for k, (coef, power) in enumerate(sol.components):
        piece = "" if coef == 1 else fmt(coef) if isinstance(coef, Fraction) else str(sig(coef))
        if power == 0:
            parts.append(piece or "1")
        else:
            var = free if power == 1 else f"{free}^{power}"
            parts.append(f"{piece}{var}" if piece else var)
    lines = [f"solution family: [{', '.join(parts)}] for {free} > 0"]
    lower, upper = report.domain
    upper_text = "inf" if upper is None else _show(upper)
    lines.append(f"admissible domain: ({_show(lower)}, {upper_text})")
    if report.breakpoints:
        lines.append(
            "crossings: "
            + ", ".join(_show(b) for b in report.breakpoints)
        )
    lines.append("regimes:")
    for regime in report.regimes:
        lines.append(
            f"  {_interval_text(regime)}: "
            f"{ordering_text(regime.ordering, names)}"
        )
    if at is not None:
        z, vector = at
        lines.append(f"normalized priorities at {free} = {_show(z)}:")
        for name, v in zip(names, vector):
            lines.append(f"  {name} = {_show(v)}")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_gen_cyclic(args) -> int:
    t = exact(args.t)
    print(format_problem(make_cyclic_example(t)), end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admcdm",
        description=(
            "Discounting-based priority solver for n-wise criteria "
            "preference statements"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, principle: bool = True) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit the canonical JSON report")
        if principle:
            p.add_argument(
                "--principle", choices=("fairness", "expert"), default=None,
                help="force equal parameters (fairness) or require the "
                     "stated bind ratios (expert); default uses the file "
                     "as written",
            )

    p_solve = sub.add_parser(
        "solve", help="solve problems and print priority vectors"
    )
    p_solve.add_argument("files", nargs="+", metavar="FILE_OR_DIR")
    add_common(p_solve)
    p_solve.add_argument(
        "--threshold-c", default=None, metavar="VALUE",
        help="minimum acceptable consistency degree before the solution "
             "is marked discharged",
    )
    p_solve.add_argument(
        "--fallback", choices=("none", "uniform"), default="none",
        help="replace strongly inconsistent or discharged solutions with "
             "the uniform vector",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_classify = sub.add_parser(
        "classify", help="label the statement set by derived-ratio "
                         "agreement"
    )
    p_classify.add_argument("file", metavar="FILE")
    add_common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_ahp = sub.add_parser(
        "ahp", help="pairwise eigenvector baseline for ratio-only problems"
    )
    p_ahp.add_argument("file", metavar="FILE")
    add_common(p_ahp, principle=False)
    p_ahp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="iteration stop tolerance")
    p_ahp.set_defaults(func=_cmd_ahp)

    p_compare = sub.add_parser(
        "compare", help="discounted priorities next to the pairwise "
                        "baseline"
    )
    p_compare.add_argument("file", metavar="FILE")
    add_common(p_compare)
    p_compare.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="iteration stop tolerance")
    p_compare.set_defaults(func=_cmd_compare)

    p_err = sub.add_parser(
        "error-min", help="minimize the accuracy functional on the simplex"
    )
    p_err.add_argument("file", metavar="FILE")
    add_common(p_err, principle=False)
    p_err.add_argument("--grid", type=int, default=100, metavar="N",
                       help="barycentric grid resolution (product "
                       "statements and --csv only)")
    p_err.add_argument("--refine", type=int, default=500, metavar="N",
                       help="refinement iteration budget (product "
                       "statements only)")
    p_err.add_argument("--csv", default=None, metavar="PATH",
                       help="write the evaluated grid as CSV for plotting")
    p_err.set_defaults(func=_cmd_error_min)

    p_reg = sub.add_parser(
        "regimes", help="resolve a triangular nonlinear system and report "
                        "ordering regimes"
    )
    p_reg.add_argument("file", metavar="FILE")
    add_common(p_reg, principle=False)
    p_reg.add_argument("--at", default=None, metavar="NAME=VALUE",
                       help="also report normalized priorities at a "
                            "specific free-variable value")
    p_reg.set_defaults(func=_cmd_regimes)

    p_gen = sub.add_parser(
        "gen-cyclic", help="print the three-criteria cyclic family member "
                           "for a given strength"
    )
    p_gen.add_argument("--t", required=True, metavar="VALUE",
                       help="cycle strength (rational or decimal)")
    p_gen.set_defaults(func=_cmd_gen_cyclic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
