"""Command-line front end: read problem files, run the requested analysis,
and emit deterministic text or JSON reports.

Every subcommand fills the same nine-block report document (problem echo,
classification, alpha, priority, discounts, ahp, error_min, regimes,
warnings); blocks a subcommand does not compute are null. Each number
passes through one formatter, _num, into a float field and an exact p/q
sibling (null when the value has no float, or no exact form), and the
text report is rendered from the document alone. Output depends only on
the input bytes and flags — no timestamps, no locale formatting — and
the JSON form survives a parse/serialize round trip byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import EngineError, InvalidProblem, ParseError
from .model import (
    InequalityPreference,
    ParamBinding,
    Problem,
    make_cyclic_example,
)
from .parser import format_preference, format_problem, parse_problem
from .scalars import exact, fmt, normalize, sig

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


def _num(value, each=False) -> tuple:
    """A number's two faces in a report: its float rounded to 12
    significant digits (sig) and its exact p/q.

    The float is None when the value has none (past the float range, or
    nonzero and rounding to 0.0), the exact form when the value is not a
    Fraction; an unbounded end (None) is None in both. A list gives the
    list of its values' floats and the list of their exact forms when
    every one has one, else None; with each, one exact entry per value.
    """
    if isinstance(value, (list, tuple)):
        pairs = [_num(v) for v in value]
        exacts = [e for _, e in pairs]
        return [f for f, _ in pairs], (
            exacts if each or None not in exacts else None)
    if value is None:
        return None, None
    try:
        rounded = sig(value)
    except InvalidProblem:  # past the float range
        rounded = None
    if rounded == 0 and value != 0:
        rounded = None
    return rounded, fmt(value) if isinstance(value, Fraction) else None


def _field(key: str, value, exact_key: str | None = None,
           each=False) -> dict:
    """The value's float(s) under key and its exact form(s) under
    exact_key, by default key + "_exact" (see _num)."""
    return dict(zip((key, exact_key or f"{key}_exact"), _num(value, each)))


def _text(rounded: float | None, form: str | None, alone=False) -> str:
    """A number as a text line prints it from its float and exact form:
    an integer bare, a fraction as "p/q = float", any other value as its
    float; alone, the float in every case. Without a float it is its
    exact form, or inf for an unbounded end."""
    if rounded is None:
        return form or "inf"
    if form is None or alone:
        return str(rounded)
    return f"{form} = {rounded}" if "/" in form else form


def _show(block: dict, key: str, exact_key: str | None = None, alone=False):
    """The text of the number block[key], or the texts of the list there,
    whose exact form is under exact_key, by default key + "_exact" (for
    a list, None when a value has none)."""
    rounded, exacts = block[key], block[exact_key or f"{key}_exact"]
    if not isinstance(rounded, list):
        return _text(rounded, exacts, alone)
    exacts = exacts or [None] * len(rounded)
    return [_text(f, e, alone) for f, e in zip(rounded, exacts)]


def _named(names, texts) -> list[str]:
    return [f"  {name} = {text}" for name, text in zip(names, texts)]


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


def _classification_block(report, names) -> dict:
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


def _label_line(block: dict) -> str:
    rule = f" ({block['rule']})" if block["rule"] else ""
    return f"label: {block['label']}{rule}"


def _statement_values(pairs, key: str) -> list:
    """One entry per (statement position, value) pair."""
    return [{"statement": pos + 1, **_field(key, value, "exact")}
            for pos, value in pairs]


def _solved_blocks(report, names, sol, vector, discounts) -> dict:
    """The blocks of a discounting result, shared by solve and compare."""
    return {
        "classification": _classification_block(report, names),
        "alpha": {
            **_field("value", sol.alpha, "exact"),
            **_field("roots", sol.roots),
            **_field("consistency", sol.consistency),
            **_field("inconsistency", sol.inconsistency),
            "extras": _statement_values(sol.extra_params, "value"),
            "discharged": sol.discharged,
        },
        "priority": _field("decimal", vector, "exact"),
        "discounts": _statement_values(discounts, "factor"),
    }


def _ahp_block(matrix, result, failure: str | None) -> dict:
    keys = ("matrix", "lambda_max", "vector", "ci")
    if failure is not None:
        return dict.fromkeys(
            [*keys, *(f"{k}_exact" for k in keys), "iterations"]
        ) | {"error": failure}
    return {
        "error": None,
        **_field("matrix", matrix.entries),
        **_field("lambda_max", result.lambda_max),
        **_field("vector", result.vector),
        **_field("ci", result.ci),
        "iterations": result.iterations,
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
        why = ("exceeds the requested threshold" if alpha_sol.discharged
               else "comes from strongly contradictory statements")
        warnings.append(
            "priorities replaced by the uniform fallback: inconsistency "
            f"{_text(*_num(alpha_sol.inconsistency), alone=True)} {why}")
    doc = _doc(problem, warnings, **_solved_blocks(
        report, names, alpha_sol, vector, discount_report(problem, vector)))

    alpha = doc["alpha"]
    lines = [_label_line(doc["classification"]),
             f"alpha = {_show(alpha, 'value', 'exact')}"]
    lines += [f"alpha[{e['statement']}] = {_show(e, 'value', 'exact')}"
              for e in alpha["extras"]]
    lines.append(
        f"consistency c = {_show(alpha, 'consistency')}, "
        f"inconsistency 1 - c = {_show(alpha, 'inconsistency')}"
    )
    lines += ["priority:",
              *_named(names, _show(doc["priority"], "decimal", "exact")),
              "discounts:"]
    lines += [f"  statement {e['statement']}: {_show(e, 'factor', 'exact')}"
              for e in doc["discounts"]]
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
    block = _classification_block(classify(problem), problem.criteria.names)
    doc = _doc(problem, warnings, classification=block)
    lines = [_label_line(block)]
    lines += [f"  {text}" for text in block["witnesses"]]
    if block["depth_exceeded"]:
        # no relation past the cap can undo a fired SD4
        lines.append("note: derivation stopped at the relation cap" + (
            "" if block["label"] == Label.STRONG_INCONSISTENT.value
            else "; label is conservative"))
    return doc, lines


def _pairwise_baseline(problem: Problem):
    """The comparison matrix and its principal eigenpair."""
    build_ahp_matrix, ahp_priority = _library("build_ahp_matrix",
                                              "ahp_priority")
    matrix = build_ahp_matrix(problem)
    return matrix, ahp_priority(matrix)


def _ahp_report(problem: Problem, warnings, args):
    doc = _doc(problem, warnings,
               ahp=_ahp_block(*_pairwise_baseline(problem), None))
    ahp = doc["ahp"]
    lines = [f"lambda_max = {_show(ahp, 'lambda_max', alone=True)}",
             f"consistency index = {_show(ahp, 'ci', alone=True)}",
             "priority:", *_named(problem.criteria.names,
                                  _show(ahp, "vector", alone=True))]
    return doc, lines


def _compare_report(problem: Problem, warnings, args):
    discount_report, priority = _library("discount_report", "priority")
    names = problem.criteria.names
    vector, alpha_sol, report = priority(problem)
    matrix = result = failure = None
    try:
        matrix, result = _pairwise_baseline(problem)
    except EngineError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    doc = _doc(problem, warnings, ahp=_ahp_block(matrix, result, failure),
               **_solved_blocks(report, names, alpha_sol, vector,
                                discount_report(problem, vector)))

    ahp = doc["ahp"]
    discounted = _show(doc["priority"], "decimal", "exact")
    lines = [f"label: {doc['classification']['label']}",
             f"alpha = {_show(doc['alpha'], 'value', 'exact')}",
             "discounted priority vs pairwise eigenvector:"]
    if ahp["error"] is not None:
        lines += _named(names, discounted)
        lines.append(f"pairwise baseline unavailable: {ahp['error']}")
    else:
        baseline = _show(ahp, "vector", alone=True)
        lines += [f"  {name} = {v}  |  {w}"
                  for name, v, w in zip(names, discounted, baseline)]
        lines.append(f"lambda_max = {_show(ahp, 'lambda_max', alone=True)}, "
                     f"consistency index = {_show(ahp, 'ci', alone=True)}")
    return doc, lines


def _error_min_report(problem: Problem, warnings, args):
    from .error_min import DEFAULT_GRID

    eval_error, minimize_error, simplex_grid = _library(
        "eval_error", "minimize_error", "simplex_grid")
    grid = DEFAULT_GRID if args.grid is None else args.grid
    result = minimize_error(problem, grid_points=grid)
    if args.csv is not None:
        rows = [",".join([*problem.criteria.names, "e"])]
        for point in simplex_grid(problem.criteria.n, grid):
            cells = [*point, eval_error(problem, point)]
            rows.append(",".join(_text(*_num(v), alone=True) for v in cells))
        body = "\n".join(rows) + "\n"
        if args.csv == "-":
            print(body, end="")
        else:
            Path(args.csv).write_text(body, encoding="utf-8")
    doc = _doc(problem, warnings, error_min={
        **_field("argmin", result.argmin),
        **_field("value", result.value),
        "evaluations": result.evaluations,
    })

    block = doc["error_min"]
    lines = [f"minimum value = {_show(block, 'value')}", "argmin:",
             *_named(problem.criteria.names, _show(block, "argmin")),
             f"evaluations = {block['evaluations']}"]
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
    at = None
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
        at = {**_field("z", z), **_field("vector", vector)}
    doc = _doc(problem, warnings, regimes={
        "free_var": free,
        "components": [
            {"criterion": name, "exponent": power,
             **_field("coefficient", coef, "exact")}
            for name, (coef, power) in zip(names, sol.components)
        ],
        # the domain's ends and the crossings each keep their exact form
        **_field("domain", report.domain, each=True),
        **_field("breakpoints", report.breakpoints, each=True),
        "regimes": [
            {"kind": "point" if regime.is_point else "interval",
             "ordering": ordering_text(regime.ordering, names),
             **_field("lower", regime.lower), **_field("upper", regime.upper)}
            for regime in report.regimes
        ],
        "at": at,
    })

    block = doc["regimes"]
    terms = []
    for entry in block["components"]:
        power = entry["exponent"]
        var = free if power == 1 else f"{free}^{power}"
        terms.append(var if entry["exact"] == "1" else entry["exact"] + var)
    lower, upper = _show(block, "domain")
    lines = [f"solution family: [{', '.join(terms)}] for {free} > 0",
             f"admissible domain: ({lower}, {upper})"]
    if block["breakpoints"]:
        lines.append("crossings: " + ", ".join(_show(block, "breakpoints")))
    lines.append("regimes:")
    for piece in block["regimes"]:
        where = (f"z = {_show(piece, 'lower')}" if piece["kind"] == "point"
                 else f"z in ({_show(piece, 'lower')}, "
                      f"{_show(piece, 'upper')})")
        lines.append(f"  {where}: {piece['ordering']}")
    if at is not None:
        lines += [f"normalized priorities at {free} = {_show(at, 'z')}:",
                  *_named(names, _show(at, "vector"))]
    return doc, lines


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
             "label the statement set by derived-ratio agreement",
             principle=False)
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
