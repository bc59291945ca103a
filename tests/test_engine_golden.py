"""Engine golden gate: the library's results on a fixed set of problems
must stay bit-identical.

tests/golden/engine.json holds, per case, two short digests: "results",
of the repr of priority(p), discount_report(p, pv) and classify(p) with
each classification report's witnesses left out, and "witnesses", of
those witnesses alone; an error's type and message stand in for a result
where one is raised. A change to the witness listing so moves only the
witnesses digests, and the results digests still show that every result
held. The cases are the
benchmark's pairwise and linear inputs at seed 1, generated by
bench/workloads.py, and every corpus file. The other users of the root
finder have their own entries, keyed ``<call>|<case id>``: AHP on the
corpus and the pairwise inputs, error minimization and the regime analysis
on the corpus, an error's type standing in for a result. Regenerate the
file only when a result change is intended, with
``PYTHONPATH=src python3 tests/test_engine_golden.py`` from the repository
root, and say why in the change description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

from admcdm.ahp import ahp_priority, build_ahp_matrix
from admcdm.classification import classify
from admcdm.error_min import minimize_error
from admcdm.errors import EngineError
from admcdm.model import InequalityPreference
from admcdm.nonlinear import regime_analysis, solve_triangular
from admcdm.parser import parse_problem
from admcdm.solver import discount_report, priority

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "engine.json"
SEED = 1


def _workloads():
    """bench/workloads.py, loaded under its own name."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        module = module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def cases():
    """(case id, problem text) for every case, in a fixed order."""
    workloads = _workloads()
    out = [(f"{name}:{case.id}", case.text)
           for name in ("pairwise", "linear")
           for case in getattr(workloads, name)(SEED)]
    out += [(f"corpus:{path.name}", path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "corpus").glob("*.admp"))]
    return out


def _error(exc: EngineError):
    return type(exc).__name__, str(exc)


def _short(outcome) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


def _split(report):
    """A classification report's fields but its witnesses, and those."""
    return ((report.label, report.rule_fired, report.det_agrees,
             report.depth_exceeded), report.witnesses)


def digest(text: str) -> dict:
    problem = parse_problem(text)
    try:
        pv, solution, report = priority(problem)
        fields, listed = _split(report)
        solved = (pv, solution, fields, discount_report(problem, pv))
    except EngineError as exc:
        solved = listed = _error(exc)
    try:
        classified, witnesses = _split(classify(problem))
    except EngineError as exc:
        classified = witnesses = _error(exc)
    return {"results": _short((solved, classified)),
            "witnesses": _short((listed, witnesses))}


def _regimes(problem):
    inequalities = [p for p in problem.preferences
                    if isinstance(p, InequalityPreference)]
    return regime_analysis(solve_triangular(problem), inequalities)


CALLS = {
    "ahp": lambda problem: ahp_priority(build_ahp_matrix(problem)),
    "error-min": minimize_error,
    "regimes": _regimes,
}


def call_digest(call: str, text: str) -> str:
    """The digest of one of CALLS on the problem, or of its error type."""
    try:
        outcome = CALLS[call](parse_problem(text))
    except EngineError as exc:
        outcome = type(exc).__name__
    return _short(outcome)


def digests() -> dict:
    out = {}
    for case_id, text in cases():
        out[case_id] = digest(text)
        group = case_id.split(":")[0]
        for call in CALLS:
            if group == "corpus" or (group, call) == ("pairwise", "ahp"):
                out[f"{call}|{case_id}"] = call_digest(call, text)
    return out


def test_engine_results_are_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    changed = sorted(k for k in expected.keys() | got.keys()
                     if expected.get(k) != got.get(k))
    # a case's entry names the half that moved
    changed = [k + "".join(f" ({half})" for half in ("results", "witnesses")
                           if isinstance(got.get(k), dict)
                           and expected.get(k, {}).get(half) != got[k][half])
               for k in changed]
    assert not changed, f"changed cases: {', '.join(changed)}"


if __name__ == "__main__":
    doc = digests()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
