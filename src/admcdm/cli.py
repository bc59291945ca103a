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
from typing import TYPE_CHECKING, Sequence

from .errors import EngineError, InvalidProblem, ParseError
from .model import (
    InequalityPreference,
    ParamBinding,
    Problem,
    make_cyclic_example,
)
from .parser import format_preference, format_problem, parse_problem
from .scalars import Scalar, exact, fmt, normalize, sig

if TYPE_CHECKING:
    from .ahp import AhpResult
    from .classification import ClassificationReport
    from .error_min import ErrorMinResult
    from .solver import AlphaSolution

_BLOCKS = ("problem", "classification", "alpha", "priority", "discounts",
           "ahp", "error_min", "regimes")


def __getattr__(name: str):
    """The package exports the reports call, loaded on first use (PEP 562):
    ``admcdm.cli.priority`` is ``admcdm.priority``."""
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _library(*names: str) -> list:
    """The named package exports, read as attributes of this module.

    Each report fetches its library calls here, so a command imports only
    the modules it runs, and a name rebound on this module (the benchmark
    does so to time the calls) is the one called.
    """
    cli = sys.modules[__name__]
    return [getattr(cli, name) for name in names]


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
            tuple(Fraction(1) for _ in problem.binding.multipliers),
            problem.binding.core_mask,
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


def _doc(problem: Problem, warnings, **blocks) -> dict:
    """The report document: the problem echo, the warnings and the given
    blocks; every other block is null."""
    names = problem.criteria.names
    doc = dict.fromkeys(_BLOCKS)
    doc["warnings"] = list(warnings)
    doc["problem"] = {
        "criteria": list(names),
        "statements": [
            format_preference(p, names) for p in problem.preferences
        ],
        "multipliers": [fmt(m) for m in problem.binding.multipliers],
        "core": [i + 1 for i in problem.binding.core_mask],
    }
    doc.update(blocks)
    return doc


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


def _label_line(report: ClassificationReport) -> str:
    rule = f" ({report.rule_fired})" if report.rule_fired else ""
    return f"label: {report.label.value}{rule}"


def _named(names, values, show=_show) -> list[str]:
    return [f"  {name} = {show(v)}" for name, v in zip(names, values)]


def _solved_blocks(report, names, sol: AlphaSolution, vector,
                   discounts) -> dict:
    """The blocks of a discounting result, shared by solve and compare."""
    return {
        "classification": _classification_block(report, names),
        "alpha": _alpha_block(sol),
        "priority": _priority_block(vector),
        "discounts": _statement_values(discounts, "factor"),
    }


def _alpha_block(sol: AlphaSolution) -> dict:
    return {
        "value": sig(sol.alpha),
        "exact": _exact_or_none(sol.alpha),
        "roots": [sig(r) for r in sol.roots],
        "consistency": sig(sol.consistency),
        "inconsistency": sig(sol.inconsistency),
        "extras": _statement_values(sol.extra_params, "value"),
        "discharged": sol.discharged,
    }


def _priority_block(vector) -> dict:
    all_exact = all(isinstance(v, Fraction) for v in vector)
    return {
        "decimal": [sig(v) for v in vector],
        "exact": [fmt(v) for v in vector] if all_exact else None,
    }


def _statement_values(pairs, key: str) -> list:
    """One entry per (statement position, value) pair."""
    return [
        {
            "statement": pos + 1,
            key: sig(value),
            "exact": _exact_or_none(value),
        }
        for pos, value in pairs
    ]


def _ahp_block(matrix, result: AhpResult | None, failure: str | None) -> dict:
    if failure is not None:
        return dict.fromkeys(("matrix", "lambda_max", "vector", "ci",
                              "iterations"), None) | {"error": failure}
    assert result is not None
    return {
        "error": None,
        "matrix": [[sig(e) for e in row] for row in matrix.entries],
        "lambda_max": sig(result.lambda_max),
        "vector": [sig(v) for v in result.vector],
        "ci": sig(result.ci),
        "iterations": result.iterations,
    }


def _error_min_block(result: ErrorMinResult) -> dict:
    all_exact = all(isinstance(v, Fraction) for v in result.argmin)
    return {
        "argmin": [sig(v) for v in result.argmin],
        "argmin_exact": (
            [fmt(v) for v in result.argmin] if all_exact else None
        ),
        "value": sig(result.value),
        "value_exact": _exact_or_none(result.value),
        "evaluations": result.evaluations,
    }


def _emit(doc: dict, lines: list[str], as_json: bool) -> None:
    """Print the document as JSON, or the text lines and then the
    document's warnings."""
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines + [f"warning: {w}" for w in doc["warnings"]]:
            print(line)


def _solve_report(problem: Problem, warnings, args):
    Label, discount_report, priority = _library(
        "Label", "discount_report", "priority")
    names = problem.criteria.names
    vector, alpha_sol, report = priority(problem, args.threshold_c)
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
    doc = _doc(problem, warnings, **_solved_blocks(
        report, names, alpha_sol, vector, discounts))

    lines = [_label_line(report), f"alpha = {_show(alpha_sol.alpha)}"]
    for pos, value in alpha_sol.extra_params:
        lines.append(f"alpha[{pos + 1}] = {_show(value)}")
    lines.append(
        f"consistency c = {_show(alpha_sol.consistency)}, "
        f"inconsistency 1 - c = {_show(alpha_sol.inconsistency)}"
    )
    lines += ["priority:", *_named(names, vector), "discounts:"]
    for pos, value in discounts:
        lines.append(f"  statement {pos + 1}: {_show(value)}")
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
        doc, lines = _solve_report(*_load(path, args.principle), args)
        if len(paths) > 1:
            if not first:
                print()
            print(f"== {path} ==")
        _emit(doc, lines, args.json)
        first = False
    return 0


def _classify_report(problem: Problem, warnings, args):
    Label, classify = _library("Label", "classify")
    names = problem.criteria.names
    report = classify(problem)
    block = _classification_block(report, names)
    doc = _doc(problem, warnings, classification=block)
    lines = [_label_line(report)]
    lines += [f"  {text}" for text in block["witnesses"]]
    if report.depth_exceeded:
        # no relation past the cap can undo a fired SD4
        lines.append("note: derivation stopped at the relation cap" + (
            "" if report.label is Label.STRONG_INCONSISTENT
            else "; label is conservative"))
    return doc, lines


def _pairwise_baseline(problem: Problem):
    """The comparison matrix and its principal eigenpair."""
    build_ahp_matrix, ahp_priority = _library("build_ahp_matrix",
                                              "ahp_priority")
    matrix = build_ahp_matrix(problem)
    return matrix, ahp_priority(matrix)


def _ahp_report(problem: Problem, warnings, args):
    names = problem.criteria.names
    matrix, result = _pairwise_baseline(problem)
    doc = _doc(problem, warnings, ahp=_ahp_block(matrix, result, None))
    lines = [f"lambda_max = {sig(result.lambda_max)}",
             f"consistency index = {sig(result.ci)}",
             "priority:", *_named(names, result.vector, sig)]
    return doc, lines


def _compare_report(problem: Problem, warnings, args):
    discount_report, priority = _library("discount_report", "priority")
    names = problem.criteria.names
    vector, alpha_sol, report = priority(problem)
    matrix = None
    ahp_result: AhpResult | None = None
    failure: str | None = None
    try:
        matrix, ahp_result = _pairwise_baseline(problem)
    except EngineError as exc:
        failure = f"{type(exc).__name__}: {exc}"

    doc = _doc(problem, warnings, ahp=_ahp_block(matrix, ahp_result, failure),
               **_solved_blocks(report, names, alpha_sol, vector,
                                discount_report(problem, vector)))

    lines = [f"label: {report.label.value}",
             f"alpha = {_show(alpha_sol.alpha)}"]
    lines.append("discounted priority vs pairwise eigenvector:")
    if ahp_result is None:
        lines += _named(names, vector)
        lines.append(f"pairwise baseline unavailable: {failure}")
    else:
        for name, v, w in zip(names, vector, ahp_result.vector):
            lines.append(f"  {name} = {_show(v)}  |  {sig(w)}")
        lines.append(f"lambda_max = {sig(ahp_result.lambda_max)}, "
                     f"consistency index = {sig(ahp_result.ci)}")
    return doc, lines


def _error_min_report(problem: Problem, warnings, args):
    from .error_min import DEFAULT_GRID

    eval_error, minimize_error, simplex_grid = _library(
        "eval_error", "minimize_error", "simplex_grid")
    grid = DEFAULT_GRID if args.grid is None else args.grid
    result = minimize_error(problem, grid_points=grid)
    if args.csv is not None:
        n = problem.criteria.n
        rows = [",".join([*problem.criteria.names, "e"])]
        for point in simplex_grid(n, grid):
            value = eval_error(problem, point)
            rows.append(
                ",".join([str(sig(v)) for v in point] + [str(sig(value))])
            )
        body = "\n".join(rows) + "\n"
        if args.csv == "-":
            print(body, end="")
        else:
            Path(args.csv).write_text(body, encoding="utf-8")
    doc = _doc(problem, warnings, error_min=_error_min_block(result))
    lines = [f"minimum value = {_show(result.value)}", "argmin:",
             *_named(problem.criteria.names, result.argmin),
             f"evaluations = {result.evaluations}"]
    if args.csv is not None and args.csv != "-":
        lines.append(f"grid written to {args.csv}")
    return doc, lines


def _regimes_report(problem: Problem, warnings, args):
    ordering_text, regime_analysis, solve_triangular = _library(
        "ordering_text", "regime_analysis", "solve_triangular")
    names = problem.criteria.names
    sol = solve_triangular(problem)
    inequalities = [
        p for p in problem.preferences if isinstance(p, InequalityPreference)
    ]
    report = regime_analysis(sol, inequalities)
    free = names[sol.free_var]
    lower, upper = report.domain
    at, at_lines = None, []
    if args.at is not None:
        name, z = args.at
        if name != free:
            raise InvalidProblem(f"the free variable is {free}, not {name}")
        if not z > 0:
            raise InvalidProblem("--at needs a positive value")
        if not (z > lower and (upper is None or z < upper)):
            warnings.append(
                "the requested point lies outside the admissible domain"
            )
        vector = normalize(tuple(sol.value_at(k, z) for k in range(sol.n)))
        at = {"z": sig(z), "vector": [sig(v) for v in vector]}
        at_lines = [f"normalized priorities at {free} = {_show(z)}:",
                    *_named(names, vector)]

    components, terms = [], []
    for name, (coef, power) in zip(names, sol.components):
        try:
            rounded = sig(coef)
        except InvalidProblem:  # no float: "exact" carries the value
            rounded = None
        components.append(
            {
                "criterion": name,
                "coefficient": rounded,
                "exact": _exact_or_none(coef),
                "exponent": power,
            }
        )
        var = free if power == 1 else f"{free}^{power}"
        terms.append(var if coef == 1 else f"{fmt(coef)}{var}")
    pieces, regime_lines = [], []
    for regime in report.regimes:
        ordering = ordering_text(regime.ordering, names)
        pieces.append(
            {
                "kind": "point" if regime.is_point else "interval",
                "lower": sig(regime.lower),
                "upper": None if regime.upper is None else sig(regime.upper),
                "ordering": ordering,
            }
        )
        if regime.is_point:
            where = f"z = {_show(regime.lower)}"
        else:
            end = "inf" if regime.upper is None else _show(regime.upper)
            where = f"z in ({_show(regime.lower)}, {end})"
        regime_lines.append(f"  {where}: {ordering}")
    doc = _doc(problem, warnings, regimes={
        "free_var": free,
        "components": components,
        "domain": [
            sig(lower),
            None if upper is None else sig(upper),
        ],
        "breakpoints": [sig(b) for b in report.breakpoints],
        "regimes": pieces,
        "at": at,
    })

    upper_text = "inf" if upper is None else _show(upper)
    lines = [f"solution family: [{', '.join(terms)}] for {free} > 0",
             f"admissible domain: ({_show(lower)}, {upper_text})"]
    if report.breakpoints:
        lines.append(
            "crossings: "
            + ", ".join(_show(b) for b in report.breakpoints)
        )
    return doc, [*lines, "regimes:", *regime_lines, *at_lines]


def _run(args) -> int:
    """A one-file command: load the file, build its report (document and
    text lines) with args.report, print it."""
    problem, warnings = _load(Path(args.file),
                              getattr(args, "principle", None))
    _emit(*args.report(problem, warnings, args), args.json)
    return 0


def _cmd_gen_cyclic(args) -> int:
    print(format_problem(make_cyclic_example(args.t)), end="")
    return 0


def _rational(text: str) -> Fraction:
    """Option type: a rational or decimal literal, read exactly."""
    try:
        return exact(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _assignment(text: str) -> tuple[str, Fraction]:
    """Option type: NAME=VALUE with a rational VALUE."""
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError("expects NAME=VALUE")
    return name, _rational(value)


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
        "--threshold-c", type=_rational, default=0, metavar="VALUE",
        help="minimum acceptable consistency degree before the solution "
             "is marked discharged",
    )
    p_solve.add_argument(
        "--fallback", choices=("none", "uniform"), default="none",
        help="replace strongly inconsistent or discharged solutions with "
             "the uniform vector",
    )
    p_solve.set_defaults(func=_cmd_solve)

    def one_file(name: str, report, text: str, principle: bool = True):
        """The subcommand name, with the help text, reporting on one FILE."""
        p = sub.add_parser(name, help=text)
        p.add_argument("file", metavar="FILE")
        add_common(p, principle)
        p.set_defaults(func=_run, report=report)
        return p

    one_file("classify", _classify_report,
             "label the statement set by derived-ratio agreement")
    one_file("ahp", _ahp_report,
             "pairwise eigenvector baseline for ratio-only problems",
             principle=False)
    one_file("compare", _compare_report,
             "discounted priorities next to the pairwise baseline")
    p_err = one_file("error-min", _error_min_report,
                     "minimize the accuracy functional on the simplex",
                     principle=False)
    p_err.add_argument("--grid", type=int, default=None, metavar="N",
                       help="barycentric grid resolution (product "
                       "statements off the exact path, and --csv)")
    p_err.add_argument("--csv", default=None, metavar="PATH",
                       help="write the evaluated grid as CSV for plotting")
    p_reg = one_file("regimes", _regimes_report,
                     "resolve a triangular nonlinear system and report "
                     "ordering regimes", principle=False)
    p_reg.add_argument("--at", type=_assignment, default=None,
                       metavar="NAME=VALUE",
                       help="also report normalized priorities at a "
                            "specific free-variable value")

    p_gen = sub.add_parser(
        "gen-cyclic", help="print the three-criteria cyclic family member "
                           "for a given strength"
    )
    p_gen.add_argument("--t", type=_rational, required=True, metavar="VALUE",
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
