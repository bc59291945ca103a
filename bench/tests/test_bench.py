"""Tests of the benchmark itself: seeded generators, the oracle, and the
traced pipeline. Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, Statement  # noqa: E402
from worker import Worker  # noqa: E402

GENERATED = ("pairwise", "linear")


def _case(n, statements, cycle=None):
    statements = tuple(Statement(s, tuple(t)) for s, t in statements)
    return Case(id="hand", n=n, text="", statements=statements, cycle=cycle)


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("workload", GENERATED + ("corpus_cli",))
def test_same_seed_gives_same_inputs(workload):
    a = workloads.generate(workload, 7, CORPUS)
    b = workloads.generate(workload, 7, CORPUS)
    assert [c.id for c in a] == [c.id for c in b]
    assert workloads.digest(a) == workloads.digest(b)


@pytest.mark.parametrize("workload", GENERATED)
def test_seed_changes_inputs_but_not_the_mix(workload):
    a = workloads.generate(workload, 7, CORPUS)
    b = workloads.generate(workload, 8, CORPUS)
    assert workloads.digest(a) != workloads.digest(b)
    assert sorted(c.id for c in a) == sorted(c.id for c in b)


@pytest.mark.parametrize("workload", GENERATED)
def test_text_states_what_the_oracle_scores(workload):
    from admcdm import canonicalize, parse_problem

    for case in workloads.generate(workload, 5, CORPUS):
        problem = parse_problem(case.text)
        assert problem.criteria.n == case.n
        got = [(c.subject, c.terms) for c in map(canonicalize,
                                                   problem.preferences)]
        want = [(s.subject, tuple(sorted(s.terms))) for s in case.statements]
        assert got == want, case.id
        assert problem.binding.multipliers == tuple(
            s.multiplier for s in case.statements), case.id


def test_generated_kinds_hold():
    for case in workloads.linear(3):
        consistent = workloads.is_consistent(case.n, case.statements)
        if case.id.startswith("planted") and "-c" in case.id:
            assert consistent, case.id
        if case.cycle is not None:
            product, r = case.cycle
            assert not consistent
            assert (r is not None) == (
                workloads._nth_root(product, case.n) is not None)
    for case in workloads.pairwise(3):
        kind = case.id.split("-")[2][0]
        assert workloads.is_consistent(case.n, case.statements) == (
            kind == "c"), case.id


# ---------------------------------------------------------------- oracle

def test_oracle_ex9_three_ratios():
    # C2/C1 = 3, C1/C3 = 4, C2/C3 = 5
    case = _case(3, [(1, [(0, F(3))]), (0, [(2, F(4))]), (1, [(2, F(5))])])
    want = oracle.expect(case)
    assert want.alpha == F(5, 12) and not want.consistent


def test_oracle_ex11_strong_cycle():
    # x = 9 y, x = 1/9 z, y = 9 z
    case = _case(3, [(0, [(1, F(9))]), (0, [(2, F(1, 9))]),
                     (1, [(2, F(9))])])
    assert oracle.expect(case).alpha == F(1, 729)


def test_oracle_four_cycle_closed_form_matches_the_determinant():
    ks = (F(2), F(3), F(1, 2), F(4))
    statements = [(i, [((i + 1) % 4, k)]) for i, k in enumerate(ks)]
    closed = oracle.expect(_case(4, statements, cycle=(F(12), None)))
    assert closed.alpha == pytest.approx(12 ** -0.25, rel=1e-15)
    by_det = oracle.expect(_case(4, statements))
    assert by_det.alpha == pytest.approx(closed.alpha, rel=1e-12)

    ks = (F(2), F(3), F(1, 2), F(4, 3))       # product 4 = sqrt(2) ** 4
    statements = [(i, [((i + 1) % 4, k)]) for i, k in enumerate(ks)]
    assert oracle.expect(_case(4, statements)).alpha == pytest.approx(
        2 ** -0.5, rel=1e-12)
    ks = (F(2), F(3), F(1, 2), F(16, 3))      # product 16 = 2 ** 4
    statements = [(i, [((i + 1) % 4, k)]) for i, k in enumerate(ks)]
    assert oracle.expect(_case(4, statements)).alpha == F(1, 2)


def test_oracle_confirms_no_positive_root_on_the_regression_input():
    want = oracle.expect(workloads.regression_case())
    assert want.alpha is None and want.errors == {"NoPositiveRoot"}


def test_scoring_rules():
    case = _case(3, [(1, [(0, F(3))]), (0, [(2, F(4))]), (1, [(2, F(5))])])
    want = oracle.expect(case)
    vector = (F(20, 57), F(25, 57), F(4, 19))
    good = {"error": None, "alpha": F(5, 12), "extras": (),
            "vector": vector, "label": "WeakInconsistent"}
    assert oracle.score(case, want, good) == oracle.Outcome(
        ok=True, exact=True, label_ok=True)
    floated = dict(good, alpha=5 / 12)
    assert oracle.score(case, want, floated).exact is False
    assert oracle.score(case, want, floated).ok
    off = dict(good, alpha=F(5, 12) * (1 + F(1, 10**6)))
    assert oracle.score(case, want, off).fail == "wrong"
    skewed = dict(good, vector=(F(1, 3), F(1, 3), F(1, 3)))
    assert oracle.score(case, want, skewed).fail == "wrong"
    labelled = dict(good, label="Consistent")
    assert oracle.score(case, want, labelled).label_ok is False
    for name, engine, kind in (("FullRank", True, "FullRank"),
                               ("NoPositiveRoot", True, "error"),
                               ("ZeroDivisionError", False, "crash"),
                               ("timeout", False, "timeout")):
        outcome = oracle.score(case, want, {"error": (name, engine)})
        assert outcome.fail == kind

    regression = workloads.regression_case()
    confirmed = oracle.score(regression, oracle.expect(regression),
                             {"error": ("NoPositiveRoot", True)})
    assert confirmed.ok


def test_corpus_expectations_are_the_pinned_values():
    assert oracle.CORPUS["ex9.admp"][0] == F(5, 12)
    assert oracle.CORPUS["ex11.admp"][0] == F(1, 729)
    assert oracle.CORPUS["ex3.admp"][0] == F(1, 3)
    names = {p.name for p in CORPUS.glob("*.admp")}
    assert names == set(oracle.CORPUS) | oracle.NONLINEAR


# --------------------------------------------------------- traced runs

def _run_all(cases, traced, cap_s=1.0):
    w = Worker(str(ROOT / "src"), cap_s, run.MEMORY_LIMIT, traced)
    try:
        return [w.run(case.text)[0] for case in cases]
    finally:
        w.close()


@pytest.mark.parametrize("workload", GENERATED)
def test_traced_pipeline_matches_priority(workload):
    cases = workloads.generate(workload, 11, CORPUS)
    plain = _run_all(cases, traced=False)
    traced = _run_all(cases, traced=True)
    compared = 0
    for case, a, b in zip(cases, plain, traced):
        pa, pb = run._answer(a), run._answer(b)
        if ("error", "timeout") in (pa, pb):
            continue
        assert pa == pb, case.id
        compared += 1
    assert compared >= 0.9 * len(cases)


def test_cli_call_prints_what_the_cli_prints():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("ex9.admp", "ex15.admp"):
        for command in workloads.CLI_COMMANDS:
            args = [command, "--json", str(CORPUS / name)]
            cli = subprocess.run([sys.executable, "-m", "admcdm", *args],
                                 capture_output=True, text=True, env=env)
            for mode in ("plain", "trace"):
                call = subprocess.run(
                    [sys.executable, str(BENCH / "cli_call.py"), mode,
                     *args], capture_output=True, text=True, env=env)
                assert (cli.returncode, cli.stdout) == (
                    call.returncode, call.stdout)
                timings = run._timings(call.stderr)
                assert timings["reference_s"] > 0
                assert ("spans" in timings) == (mode == "trace")


def test_a_case_past_the_cap_is_killed_and_the_worker_replaced():
    regression = workloads.regression_case()
    quick = workloads.cycle_case(random.Random(1), 3, True, 0)
    w = Worker(str(ROOT / "src"), 0.3, run.MEMORY_LIMIT, traced=True)
    try:
        result, events = w.run(regression.text)
        assert result["error"] == ("timeout", False)
        assert any(e[0] == "B" for e in events)
        spans = run.case_spans("r", dict(result, events=events))
        assert any(failed for *_, failed in spans)
        result, _ = w.run(quick.text)
        assert result["error"] is None
    finally:
        w.close()


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "linear", "--seed", "1", "--seconds",
                     "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_latency_and_rate_are_medians_over_passes():
    a, b = _case(3, []), Case(id="other", n=3, text="", statements=())
    ok, wrong = oracle.Outcome(ok=True), oracle.Outcome(ok=False, fail="wrong")
    results = [(a, {"ms": 5.0}), (b, {"ms": 7.0}),
               (a, {"ms": 4.0}), (b, {"ms": 1.0}),
               (a, {"ms": 9.0}), (b, {"error": ("timeout", False)})]
    outcomes = [ok, ok, ok, wrong, ok, wrong]
    # b is charged the cap for its failed attempts
    assert run.latencies(results, outcomes, 2000.0) == [5.0, 2000.0]
    # passes solve 2 in 12 ms, 1 in 5 ms, 1 in 2009 ms (killed at the cap)
    assert run.pass_rate(results, outcomes, 3, 2000.0) == pytest.approx(
        2 / 0.012)
