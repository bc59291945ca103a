"""The one worker process that runs in-process cases, and its parent side.

The worker imports admcdm from the checkout's ``src`` under an address
space limit and answers one case at a time over a socket, so the parent can
kill it when a case passes its wall-clock cap and start a fresh one. In
traced mode it drives the ``priority()`` pipeline stage by stage through
admcdm's public functions and streams a begin and an end event per stage,
so the stages of a case that is killed still show up to the moment of the
kill. The parent starts it as ``python3 bench/worker.py FD SRC LIMIT
TRACED``.
"""

from __future__ import annotations

import resource
import socket
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from multiprocessing.connection import Connection

from speed import reference_seconds

READY_TIMEOUT_S = 60
# a worker whose parent died stops at this much CPU time at the latest
CPU_LIMIT_S = 600


def limit_memory(limit_bytes):
    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))


# ----------------------------------------------------------- worker side

class _Tracer:
    """Sends ("B", name, start) and ("E", name, start, end, failed)."""

    def __init__(self, conn):
        self.conn = conn

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        self.conn.send(("B", name, start))
        failed = True
        try:
            yield
            failed = False
        finally:
            self.conn.send(("E", name, start, time.perf_counter(), failed))


@contextmanager
def _counting(module, name):
    """Count calls to module.name while the block runs."""
    original = getattr(module, name)
    counter = Counter()

    def wrapper(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield counter
    finally:
        setattr(module, name, original)


def plain_case(text):
    """What a library user calls: parse, priority(), discount report."""
    from admcdm import discount_report, parse_problem, priority

    problem = parse_problem(text)
    pv, sol, report = priority(problem)
    discount_report(problem, pv)
    return pv, sol, report


def _shortcut_consistent(rows, n):
    """The test priority() makes before parameterizing: rank for m != n,
    otherwise |det| within CONSISTENT_DET_TOL * n! * max|a|^n."""
    from math import factorial

    from admcdm import det_numeric, rank
    from admcdm.solver import CONSISTENT_DET_TOL

    if len(rows) != n:
        return rank(rows) < n
    top = max(abs(float(e)) for row in rows for e in row)
    bound = CONSISTENT_DET_TOL * factorial(n) * top ** n
    return abs(float(det_numeric(rows))) <= bound


def traced_case(text, tracer, counts):
    """priority() stage by stage, adding per-case counts to ``counts``;
    returns what plain_case returns."""
    from admcdm import (
        AlphaSolution,
        assemble,
        classify,
        derive_relations,
        discount_report,
        general_solution,
        normalize,
        parameterize,
        parametric_equation,
        parse_problem,
        particular_positive,
        peval,
        positive_roots,
        solve_alpha,
    )
    from admcdm import solver as solver_module
    from admcdm.scalars import is_exact

    span = tracer.span
    with span("parser.parse_problem"):
        problem = parse_problem(text)
    n = problem.criteria.n
    with span("model.assemble"):
        rows = assemble(problem)
    with span("linalg.consistency"):
        consistent = _shortcut_consistent(rows, n)
    if consistent:
        counts["solver.consistent_shortcut"] += 1
        one = Fraction(1)
        sol = AlphaSolution(roots=(one,), alpha=one, consistency=one,
                            inconsistency=Fraction(0))
        with span("linalg.null_vector"):
            pv = normalize(particular_positive(general_solution(rows)))
    else:
        with span("solver.parameterize"):
            ps = parameterize(problem)
        with span("solver.parametric_equation"):
            equation = parametric_equation(ps)
        counts["polynomial.degree"] += equation.degree
        if not all(is_exact(c) for c in equation.coeffs):
            counts["polynomial.float_equations"] += 1
        with span("polynomial.positive_roots"):
            roots = positive_roots(equation)
        counts["polynomial.roots"] += len(roots)
        # solve_alpha repeats the equation and its roots; the rest of its
        # time is the extra parameters (solver.extras, derived)
        with span("solver.solve_alpha"), \
                _counting(solver_module, "det_poly") as dets:
            sol = solve_alpha(ps)
        counts["solver.aux_dets"] += dets["calls"] - 1
        if isinstance(sol.alpha, Fraction):
            counts["polynomial.rational_alpha"] += 1
        with span("linalg.null_vector"):
            value = dict(sol.extra_params)
            numeric = [[peval(e, value.get(i, sol.alpha)) for e in row]
                       for i, row in enumerate(ps.matrix.entries)]
            pv = normalize(particular_positive(general_solution(numeric)))
    # classify repeats the derivation; classify.compare is the difference
    with span("classify.derive_relations"):
        relations = derive_relations(problem)
    counts["classify.relations"] += len(relations)
    with span("classify.classify"):
        report = classify(problem)
    counts["classify.truncated"] += int(report.depth_exceeded)
    counts["classify.witnesses"] += len(report.witnesses)
    counts["classify.det_disagree"] += int(not report.det_agrees)
    with span("solver.discount_report"):
        discount_report(problem, pv)
    return pv, sol, report


def serve(conn, src, limit_bytes, traced):
    """Worker main loop: one problem text in, one result out."""
    limit_memory(limit_bytes)
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    sys.path.insert(0, src)
    from admcdm import EngineError

    tracer = _Tracer(conn)
    conn.send(("ready",))
    while True:
        text = conn.recv()
        if text is None:
            return
        result = {"error": None}
        counts = Counter()
        before = reference_seconds()
        start = time.perf_counter()
        try:
            if traced:
                pv, sol, report = traced_case(text, tracer, counts)
            else:
                pv, sol, report = plain_case(text)
            result.update(alpha=sol.alpha, extras=sol.extra_params,
                          vector=pv, label=report.label.value)
        except EngineError as exc:
            result["error"] = (type(exc).__name__, True)
        except MemoryError:
            result["error"] = ("memory", False)
        except Exception as exc:  # the benchmark counts it as a crash
            result["error"] = (type(exc).__name__, False)
        result["ms"] = (time.perf_counter() - start) * 1000
        result["reference_s"] = (before + reference_seconds()) / 2
        result["counts"] = dict(counts)
        conn.send(("done", result))


# ----------------------------------------------------------- parent side

class Worker:
    """Runs cases in one child process with a per-case wall-clock cap.

    A case that passes the cap is charged the cap; the child is killed and
    replaced before the next case.
    """

    def __init__(self, src, cap_s, limit_bytes, traced):
        self.args = [src, str(limit_bytes), str(int(traced))]
        self.cap_s = cap_s
        self.proc = None
        self.conn = None

    def _start(self):
        parent, child = socket.socketpair()
        with child:
            self.proc = subprocess.Popen(
                [sys.executable, __file__, str(child.fileno()), *self.args],
                pass_fds=(child.fileno(),))
        self.conn = Connection(parent.detach())
        try:
            ready = self.conn.poll(READY_TIMEOUT_S) and self.conn.recv()
        except EOFError:
            ready = None
        if ready != ("ready",):
            self._stop(kill=True)
            raise RuntimeError("benchmark worker did not start")

    def _stop(self, kill):
        if self.proc is None:
            return
        if not kill:
            try:
                self.conn.send(None)
                self.proc.wait(10)
            except (OSError, subprocess.TimeoutExpired):
                kill = True
        if kill:
            self.proc.kill()
            self.proc.wait()
        self.conn.close()
        self.proc = self.conn = None

    def run(self, text):
        """(result, events); events are the trace messages of this case."""
        if self.proc is None:
            self._start()
        self.conn.send(text)
        deadline = time.perf_counter() + self.cap_s
        events = []
        while True:
            left = deadline - time.perf_counter()
            try:
                ready = left > 0 and self.conn.poll(left)
                msg = self.conn.recv() if ready else None
            except EOFError:
                proc = self.proc
                self._stop(kill=True)
                return {"error": (f"exit {proc.returncode}", False)}, events
            if msg is None:
                now = time.perf_counter()
                self._stop(kill=True)
                return {"error": ("timeout", False), "killed_at": now}, events
            if msg[0] == "done":
                return msg[1], events
            events.append(msg)

    def close(self):
        self._stop(kill=False)


if __name__ == "__main__":
    fd, src, limit, traced = sys.argv[1:]
    serve(Connection(int(fd)), src, int(limit), traced == "1")
