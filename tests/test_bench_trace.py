"""The benchmark's traced paths against the plain ones, in tier-1.

bench/worker.py drives priority() stage by stage through admcdm's public
names in traced mode (``traced_case``) and calls priority() itself in plain
mode (``plain_case``). bench/tests compares the two, but lies outside the
default test paths, so an engine change could break the traced benchmark
unnoticed. This test loads bench/worker.py the way test_engine_golden
loads bench/workloads.py and checks that both paths give the same
(alpha, vector), or the same error type, on the corpus and on samples of
the benchmark's linear and small pairwise inputs (seed 1).

bench/cli_call.py times the corpus CLI by rebinding library names on
admcdm.cli and reading per-call counts off the results; the last test
runs one corpus call per command through those wrappers.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from importlib.util import module_from_spec, spec_from_file_location

import pytest

from admcdm.errors import EngineError

from test_engine_golden import ROOT, SEED, _workloads
from test_golden import _expected, capture

# every STEP-th input of a workload, which keeps both paths together
# near half a second on a 2-vCPU machine
LINEAR_STEP = 8
PAIRWISE_STEP = 3
PAIRWISE_MAX_N = 6

# one corpus file per command, together reaching every name cli_call wraps
CLI_CALLS = (("solve", "ex1"), ("classify", "ex2"), ("ahp", "ex1"),
             ("compare", "ex9"), ("error-min", "ex15"), ("regimes", "ex15"))


def _load(name, path):
    if name not in sys.modules:
        spec = spec_from_file_location(name, path)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _worker():
    """bench/worker.py, with its sibling speed.py importable by name."""
    _load("speed", ROOT / "bench" / "speed.py")
    return _load("bench_worker", ROOT / "bench" / "worker.py")


class _Tracer:
    """A tracer that records nothing."""

    @contextmanager
    def span(self, name):
        yield


def inputs():
    """(case id, problem text) for the corpus and the sampled inputs."""
    workloads = _workloads()
    linear = workloads.linear(SEED)[::LINEAR_STEP]
    pairwise = [case for case in workloads.pairwise(SEED)
                if case.n <= PAIRWISE_MAX_N][::PAIRWISE_STEP]
    out = [(case.id, case.text) for case in linear + pairwise]
    out += [(path.name, path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "corpus").glob("*.admp"))]
    return out


def _answer(run, text):
    try:
        pv, solution, _ = run(text)
    except EngineError as exc:
        return type(exc).__name__
    return solution.alpha, tuple(pv)


def test_traced_case_matches_plain_case():
    worker = _worker()
    if not all(hasattr(worker, f) for f in ("traced_case", "plain_case")):
        pytest.skip("bench/worker.py no longer has both pipeline paths")
    tracer = _Tracer()
    cases = inputs()
    assert len(cases) > 100
    for case_id, text in cases:
        plain = _answer(worker.plain_case, text)
        traced = _answer(
            lambda t: worker.traced_case(t, tracer, Counter()), text)
        assert traced == plain, case_id


def test_cli_call_wrappers_keep_the_output(monkeypatch):
    import admcdm.cli as cli

    _load("speed", ROOT / "bench" / "speed.py")
    cli_call = _load("bench_cli_call", ROOT / "bench" / "cli_call.py")
    spans, counts = [], {}
    for attr, (span, count) in cli_call.WRAPPED.items():
        # registers the original for monkeypatch to restore afterwards
        monkeypatch.setattr(cli, attr, getattr(cli, attr))
        cli_call._wrap(cli, attr, span, count, spans, counts)
    expected = _expected()
    for command, name in CLI_CALLS:
        argv = (command, "--json", f"corpus/{name}.admp")
        assert capture(argv) == expected[" ".join(argv)], argv
    assert ({span for span, *_ in spans}
            == {span for span, _ in cli_call.WRAPPED.values()})
    assert set(counts) == {"ahp.iterations", "error_min.evaluations"}
