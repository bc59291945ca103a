"""admcdm benchmark: three seeded workloads, oracle-checked outcomes, and a
per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload pairwise --seed 1 --seconds 20 --trace 0

Workloads (a closed loop with one client; the seed picks the inputs,
admcdm only ever sees the generated ``.admp`` text):

- ``corpus_cli``: every corpus file under solve, classify, ahp, compare,
  error-min and regimes, each call a fresh ``python -m admcdm ... --json``
  process. Interpreter start and import dominate; core layers are idle.
- ``pairwise``: full pairwise sets on the Saaty 1-9 scale, n = 3..9.
  Classification dominates from n = 6; the extra parameters add
  (m - n) * n small determinants.
- ``linear``: ratio cycles n = 3..24 and planted multi-term systems
  n = 4..16, plus a fixed regression input. Determinants, root isolation
  and the consistency test do the work; classification is cheap.

Each run executes whole passes over the case list, as many as fit in
``--seconds`` at today's speed, so every run has the same mix of cases. In-process cases run in
one worker process with a per-case wall-clock cap and an address-space
cap. A failed attempt is charged the cap, so fixing a failure never reads
as a slowdown. The speed of a shared machine drifts by up to 2x within
seconds, so every timed case and set-up is scaled by a reference computed
in the same process (see ``speed.py``), and a case's latency and the
throughput (correct outcomes per second of case time) are medians over
the passes. Outcomes are scored after the timed passes by an oracle
that never calls admcdm (see ``oracle.py``).

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the run makes an untraced half and a traced half, and
the last line holds the per-layer metrics from the traced half (busy time,
calls and failures per span, counts, failures by kind, and the tracing
overhead). Spans are written to ``.bench_out/``.

Every outcome is scored; wrong answers, unconfirmed errors, time-outs and
memory kills are counted in ``failed`` and by kind in the trace.
``correct`` is false when the traced pipeline disagrees with the plain
one; the run stops with an error when the oracle's own cross-check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracle
import workloads
from speed import scaled_ms
from worker import Worker, limit_memory

# Per-case wall-clock caps. Case times on a workload fall in clusters (a
# pairwise set takes at most ~0.2 s up to n = 6 and at least ~0.7 s from
# n = 7; linear cases that finish take under 0.1 s), and machine speed
# varies by up to 2x, so each cap sits in a gap with a margin on both
# sides. A CLI call takes at most ~0.4 s.
CAPS_S = {"corpus_cli": 5.0, "pairwise": 0.5, "linear": 0.5}
MEMORY_LIMIT = 1 << 30
# set-up is timed about every two seconds through the untraced passes, so
# its median covers the same machine states as the cases
SAMPLE_EVERY_S = 2.0
CLI_CALL = "bench/cli_call.py"
# Passes in 20 seconds of --seconds, sized to today's pass times (corpus_cli
# ~16 s, pairwise ~6 s, linear ~4 s). The count is set, not measured, so
# every run takes its medians over the same number of repetitions.
PASSES_PER_20_S = {"corpus_cli": 2, "pairwise": 3, "linear": 5}
OUT_DIR = ".bench_out"

SPANS = (
    "setup.interpreter", "setup.import", "parser.parse_problem",
    "cli.main", "cli.render", "solver.priority", "classify.classify",
    "solver.discount_report", "ahp.build_ahp_matrix", "ahp.ahp_priority",
    "error_min.minimize_error", "nonlinear.solve_triangular",
    "nonlinear.regime_analysis", "model.assemble", "linalg.consistency",
    "solver.parameterize", "solver.parametric_equation",
    "polynomial.positive_roots", "solver.solve_alpha", "solver.extras",
    "linalg.null_vector", "classify.derive_relations", "classify.compare",
)
COUNTS = (
    "error_min.evaluations", "ahp.iterations", "solver.consistent_shortcut",
    "polynomial.degree", "polynomial.float_equations", "polynomial.roots",
    "polynomial.rational_alpha", "solver.aux_dets", "classify.relations",
    "classify.truncated", "classify.witnesses", "classify.det_disagree",
)
# derived span = parent minus the listed child spans of the same case; the
# last field says whether the children must all be present (the stage
# pipeline times them on separate calls before the parent)
DERIVED = {
    "cli.render": ("cli.main", ("parser.parse_problem", "solver.priority",
                                "classify.classify", "solver.discount_report",
                                "ahp.build_ahp_matrix", "ahp.ahp_priority",
                                "error_min.minimize_error",
                                "nonlinear.solve_triangular",
                                "nonlinear.regime_analysis"), False),
    "solver.extras": ("solver.solve_alpha", ("solver.parametric_equation",
                                             "polynomial.positive_roots"),
                      True),
    "classify.compare": ("classify.classify",
                         ("classify.derive_relations",), True),
}


def _environment(root, src):
    sha = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "src": str(src)}


def _limit_child():
    limit_memory(MEMORY_LIMIT)


def _timings(stderr):
    """The JSON that bench/cli_call.py leaves on the last BENCH line."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("BENCH "):
            return json.loads(line[len("BENCH "):])
    return None


def setup_seconds(env, root):
    """Seconds for a fresh interpreter to import admcdm.cli, at the
    nominal speed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, CLI_CALL, "setup"], env=env,
                          cwd=root, check=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=_limit_child)
    took = time.perf_counter() - start
    reference_s = _timings(proc.stderr)["reference_s"]
    return scaled_ms(took - reference_s, reference_s) / 1000


def pass_count(workload, seconds):
    return max(1, round(PASSES_PER_20_S[workload] * seconds / 20))


def run_passes(cases, passes, run_one, sample=None):
    """Whole passes over cases; between cases, about once every
    SAMPLE_EVERY_S, ``sample()`` is called. Returns [(case, result)] in
    run order and the samples."""
    results, samples = [], []
    next_sample = time.perf_counter()
    for _ in range(passes):
        for case in cases:
            results.append((case, run_one(case)))
            if sample is not None and time.perf_counter() >= next_sample:
                samples.append(sample())
                next_sample = time.perf_counter() + SAMPLE_EVERY_S
    return results, samples


# ------------------------------------------------------------- runners

class CliRunner:
    """One fresh interpreter per case running the CLI as ``python -m
    admcdm`` does (see bench/cli_call.py); ``ms`` is the call's wall time
    less the speed reference, at the nominal speed."""

    def __init__(self, root, env, cap_s, traced):
        self.root, self.env, self.cap_s = root, env, cap_s
        self.prefix = [sys.executable, CLI_CALL,
                       "trace" if traced else "plain"]

    def __call__(self, case):
        args = [*self.prefix, case.command, "--json", case.path]
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                preexec_fn=_limit_child)
        try:
            out, err = proc.communicate(timeout=self.cap_s)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = "timeout"
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        took = time.perf_counter() - start
        if code not in ("timeout", 0, 2, 3) and "MemoryError" in err:
            code = "memory"
        doc = None
        if code == 0:
            try:
                doc = json.loads(out)
            except ValueError:
                doc = None
        timings = _timings(err)
        result = {"code": code, "doc": doc, "spawned": start,
                  "timings": timings}
        if timings is not None:
            reference_s = timings["reference_s"]
            result["ms"] = scaled_ms(took - reference_s, reference_s)
        return result

    def close(self):
        pass


class WorkerRunner:
    """In-process cases through the killable worker; ``ms`` is scaled to
    the nominal machine speed."""

    def __init__(self, src, cap_s, traced):
        self.worker = Worker(str(src), cap_s, MEMORY_LIMIT, traced)

    def __call__(self, case):
        result, events = self.worker.run(case.text)
        result["events"] = events
        if "reference_s" in result:
            result["ms"] = scaled_ms(result["ms"] / 1000,
                                     result["reference_s"])
        return result

    def close(self):
        self.worker.close()


# ------------------------------------------------------------- scoring

def score_all(workload, results):
    """Oracle outcomes, computed once per distinct case."""
    outcomes = []
    expected = {}
    for case, result in results:
        if workload == "corpus_cli":
            outcomes.append(oracle.score_cli(case, result["code"],
                                             result["doc"]))
            continue
        if case.id not in expected:
            expected[case.id] = oracle.expect(case)
        outcomes.append(oracle.score(case, expected[case.id], result))
    return outcomes


def _share(flags):
    flags = [f for f in flags if f is not None]
    return sum(flags) / len(flags) if flags else 0.0


def latencies(results, outcomes, cap_ms):
    """Per case, the median over its passes; a failed attempt counts as
    cap_ms."""
    by_case = defaultdict(list)
    for (case, result), outcome in zip(results, outcomes):
        by_case[case.id].append(result["ms"] if outcome.ok else cap_ms)
    return [statistics.median(times) for times in by_case.values()]


def pass_rate(results, outcomes, passes, cap_ms):
    """Correct outcomes per second of case time, median over passes; a case
    killed at the cap took the cap."""
    took = [result.get("ms", cap_ms) for _, result in results]
    size = len(results) // passes
    return statistics.median(sum(o.ok for o in outcomes[i:i + size])
                             / (sum(took[i:i + size]) / 1000)
                             for i in range(0, len(results), size))


def end_to_end(results, outcomes, passes, cap_ms, setup_s):
    lat = latencies(results, outcomes, cap_ms)
    return {
        "case_ms.p50": (statistics.median(lat), "ms"),
        "case_ms.p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "solved_per_s": (pass_rate(results, outcomes, passes, cap_ms),
                         "1/s"),
        "ok_share": (sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
        "exact_share": (_share(o.exact for o in outcomes), "ratio"),
        "label_ok_share": (_share(o.label_ok for o in outcomes), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN)
                        .ru_maxrss / 1024, "MB"),
    }


# --------------------------------------------------------------- trace

def case_spans(case_id, result):
    """(name, start, end, parent, case id, failed) for one traced case."""
    spans = []
    timings = result.get("timings")
    if timings is not None:
        spans.append(("setup.interpreter", result["spawned"],
                       timings["start"], None, case_id, False))
        for name, start, end, parent, failed in timings.get("spans", ()):
            spans.append((name, start, end, parent, case_id, failed))
        return spans
    open_spans = {}
    for event in result.get("events", ()):
        if event[0] == "B":
            open_spans[event[1]] = event[2]
        else:
            _, name, start, end, failed = event
            open_spans.pop(name, None)
            spans.append((name, start, end, None, case_id, failed))
    # stages still open when the worker was killed end at the kill
    for name, start in open_spans.items():
        spans.append((name, start, result.get("killed_at", start), None,
                      case_id, True))
    return spans


def per_layer(results, outcomes, spans_by_case, untraced_p50, cap_ms):
    busy = defaultdict(float)
    calls = Counter()
    fails = Counter()
    for spans in spans_by_case:
        took = Counter()
        failed_names = set()
        for name, start, end, _parent, _case, failed in spans:
            took[name] += (end - start) * 1000
            calls[name] += 1
            if failed:
                fails[name] += 1
                failed_names.add(name)
        for name, (parent, children, required) in DERIVED.items():
            if parent not in took or (
                    required and not all(c in took for c in children)):
                continue
            # children timed on separate calls can make this slightly
            # negative
            busy[name] += max(0.0, took[parent]
                              - sum(took.get(c, 0.0) for c in children))
            calls[name] += 1
            fails[name] += parent in failed_names
        for name, ms in took.items():
            busy[name] += ms
    counts = Counter()
    for _, result in results:
        counts.update(result.get("counts") or {})
        counts.update((result.get("timings") or {}).get("counts", {}))
    kinds = Counter(o.fail for o in outcomes if not o.ok)
    traced_p50 = statistics.median(latencies(results, outcomes, cap_ms))
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.ms"] = (busy[name], "ms")
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.fail"] = (fails[name], "count")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    for kind in oracle.FAIL_KINDS:
        metrics[f"fail.{kind}"] = (kinds[kind], "count")
    metrics["trace.case_ms.p50"] = (traced_p50, "ms")
    metrics["trace.overhead_ms.p50"] = (traced_p50 - untraced_p50, "ms")
    return metrics


def classify_share(results, spans_by_case, min_n):
    """Share of case time spent in classify for in-process cases n >= min_n."""
    total = classify_ms = 0.0
    for (case, _), spans in zip(results, spans_by_case):
        if getattr(case, "n", 0) < min_n:
            continue
        for name, start, end, *_ in spans:
            total += end - start
            if name.startswith("classify."):
                classify_ms += end - start
    return classify_ms / total if total else 0.0


def write_spans(root, workload, seed, spans_by_case):
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for spans in spans_by_case:
            for name, start, end, parent, case_id, failed in spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "case": case_id, "failed": failed})
                         + "\n")
    return path


# ---------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CAPS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_runner(workload, root, src, env, traced):
    cap = CAPS_S[workload]
    if workload == "corpus_cli":
        return CliRunner(root, env, cap, traced)
    return WorkerRunner(src, cap, traced)


def timed_phase(workload, cases, passes, root, src, env, traced,
                sample=None):
    runner = make_runner(workload, root, src, env, traced)
    try:
        return run_passes(cases, passes, runner, sample)
    finally:
        runner.close()


def _info(label, value):
    print(f"{label}: {value}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still stops its worker and CLI processes
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    src = root / "src"
    corpus = root / "corpus"
    if not (src / "admcdm" / "__init__.py").is_file() or not corpus.is_dir():
        print("bench/run.py: run from a checkout of the repository (needs "
              "src/admcdm and corpus/)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    workload, cap_ms = args.workload, CAPS_S[args.workload] * 1000

    cases = workloads.generate(workload, args.seed, corpus)
    for key, value in _environment(root, src).items():
        _info(key, value)
    _info("workload", workload)
    _info("seed", args.seed)
    _info("cases per pass", len(cases))
    _info("inputs sha256", workloads.digest(cases))
    _info("per-case cap", f"{CAPS_S[workload]} s wall clock, "
          f"{MEMORY_LIMIT >> 20} MiB address space")

    passes = pass_count(workload,
                        args.seconds / 2 if args.trace else args.seconds)
    results, setups = timed_phase(
        workload, cases, passes, root, src, env, traced=False,
        sample=lambda: setup_seconds(env, root))
    setup_s = statistics.median(setups)
    # an OracleError propagates: without a trusted oracle there is no result
    outcomes = score_all(workload, results)
    correct = True
    attempted = len(results)
    failed = sum(not o.ok for o in outcomes)
    _info("passes", f"{passes}, set-up timed {len(setups)} times")
    _info("cases run", f"{attempted}, failed {failed} "
          f"({dict(Counter(o.fail for o in outcomes if not o.ok))})")
    lat = latencies(results, outcomes, cap_ms)
    p90 = statistics.quantiles(lat, n=10)[8]
    _info("case_ms samples", f"{len(lat)}, {sum(v > p90 for v in lat)} "
          "beyond p90")

    if args.trace:
        untraced_p50 = statistics.median(lat)
        traced, _ = timed_phase(workload, cases, passes, root, src, env,
                                traced=True)
        toutcomes = score_all(workload, traced)
        spans_by_case = [case_spans(case.id, r) for case, r in traced]
        correct = _traced_agrees(results, traced)
        metrics = per_layer(traced, toutcomes, spans_by_case, untraced_p50,
                            cap_ms)
        path = write_spans(root, workload, args.seed, spans_by_case)
        _info("spans written to", path.relative_to(root))
        if workload != "corpus_cli":
            _info("classify share of case time, n >= 6",
                  f"{classify_share(traced, spans_by_case, 6):.3f}")
        attempted += len(traced)
        failed += sum(not o.ok for o in toutcomes)
    else:
        metrics = end_to_end(results, outcomes, passes, cap_ms, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _answer(result):
    if result.get("error") is not None:
        return ("error", result["error"][0])
    if "alpha" in result:
        return (result["alpha"], tuple(result["vector"]))
    return (result.get("code"), result.get("doc"))


def _traced_agrees(untraced, traced):
    """The traced pipeline must give the same answers as the plain one;
    timeouts on either side are not compared."""
    plain = {}
    for case, result in untraced:
        plain.setdefault(case.id, _answer(result))
    for case, result in traced:
        a, b = plain.get(case.id), _answer(result)
        if ("error", "timeout") in (a, b) or a is None:
            continue
        if a != b:
            print(f"traced run disagrees on {case.id}: {a} vs {b}",
                  file=sys.stderr)
            return False
    return True


if __name__ == "__main__":
    raise SystemExit(main())
