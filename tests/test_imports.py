"""The package runs on the standard library alone: numpy, sympy, scipy,
mpmath and hypothesis are test oracles only (pyproject lists no runtime
dependency)."""

import os
import subprocess
import sys
from pathlib import Path

import admcdm

TEST_ONLY = ("numpy", "sympy", "scipy", "mpmath", "hypothesis")


def test_import_pulls_in_no_test_only_package():
    src = str(Path(admcdm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, admcdm, admcdm.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
