"""Corpus golden gate: the CLI output for every corpus file under the six
analysis commands, text and --json, must stay byte-identical.

The expected output lives in tests/golden/corpus_cli.json, keyed by the
command line (run from the repository root); each entry holds the exit code,
stdout and stderr of ``admcdm.cli.main``. Regenerate it only when an output
change is intended, with ``PYTHONPATH=src python3 tests/test_golden.py``
from the repository root, and say why in the change description.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from admcdm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "corpus_cli.json"
COMMANDS = ("solve", "classify", "ahp", "compare", "error-min", "regimes")


def command_lines():
    files = sorted(p.name for p in (ROOT / "corpus").glob("*.admp"))
    return [(command, *flags, f"corpus/{name}")
            for command in COMMANDS
            for flags in ((), ("--json",))
            for name in files]


def capture(argv):
    """Exit code, stdout and stderr of one CLI call, run from the root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command_line():
    assert sorted(_expected()) == sorted(" ".join(a) for a in command_lines())


def _test_id(argv):
    return "-".join(a.lstrip("-").removeprefix("corpus/") for a in argv)


@pytest.mark.parametrize("argv", command_lines(), ids=_test_id)
def test_cli_output_is_byte_identical(argv):
    assert capture(argv) == _expected()[" ".join(argv)]


# an exact fraction p/q, not part of a longer number
FRACTION = re.compile(r"(?<![\d/])\d+/\d+(?![\d/])")


@pytest.mark.parametrize("command", COMMANDS)
def test_json_carries_every_exact_value_the_text_prints(command):
    # the text report is rendered from the document, so each p/q it
    # prints is a value of the document
    missing = []
    for argv in command_lines():
        if argv[0] != command or "--json" in argv:
            continue
        text = capture(argv)
        if text["exit"] != 0:
            continue
        doc = capture((command, "--json", *argv[1:]))["stdout"]
        missing += [(argv[-1], p_q) for p_q in sorted(
            set(FRACTION.findall(text["stdout"]))
            - set(FRACTION.findall(doc)))]
    assert missing == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {" ".join(argv): capture(argv) for argv in command_lines()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
