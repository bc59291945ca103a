"""One admcdm CLI call in a fresh interpreter, as ``python -m admcdm`` makes
it, after timing the speed reference (see ``speed.py``).

    PYTHONPATH=src python3 bench/cli_call.py MODE [admcdm arguments]

MODE ``plain`` runs ``admcdm.cli.main`` on the arguments; ``trace`` also
times the import of ``admcdm.cli`` and every call the CLI makes into the
library; ``setup`` only imports ``admcdm.cli``. Output and exit code are the
CLI's. The last line on stderr starts with ``BENCH`` and holds the timings
as JSON.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from speed import reference_seconds  # noqa: E402

# name in admcdm.cli -> span name, and the per-call count read off the result
WRAPPED = {
    "parse_problem": ("parser.parse_problem", None),
    "priority": ("solver.priority", None),
    "classify": ("classify.classify", None),
    "discount_report": ("solver.discount_report", None),
    "build_ahp_matrix": ("ahp.build_ahp_matrix", None),
    "ahp_priority": ("ahp.ahp_priority", "iterations"),
    "minimize_error": ("error_min.minimize_error", "evaluations"),
    "solve_triangular": ("nonlinear.solve_triangular", None),
    "regime_analysis": ("nonlinear.regime_analysis", None),
}


def _wrap(module, attr, span, count, spans, counts):
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        failed = True
        try:
            result = original(*args, **kwargs)
            failed = False
        finally:
            spans.append((span, start, time.perf_counter(), "cli.main",
                          failed))
        if count is not None:
            key = f"{span.split('.')[0]}.{count}"
            counts[key] = counts.get(key, 0) + getattr(result, count)
        return result

    setattr(module, attr, timed)


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    reference_s = reference_seconds()
    spans, counts = [], {}
    start = time.perf_counter()
    import admcdm.cli as cli

    spans.append(("setup.import", start, time.perf_counter(), None, False))
    code = 0
    if mode == "trace":
        for attr, (span, count) in WRAPPED.items():
            _wrap(cli, attr, span, count, spans, counts)
    if mode in ("plain", "trace"):
        start = time.perf_counter()
        code = cli.main(argv)
        spans.append(("cli.main", start, time.perf_counter(), None, False))
    sys.stdout.flush()
    timings = {"start": START, "reference_s": reference_s}
    if mode == "trace":
        timings.update(spans=spans, counts=counts)
    print("BENCH " + json.dumps(timings), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
