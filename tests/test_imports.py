"""What importing the package loads. It runs on the standard library alone:
numpy, sympy, scipy, mpmath and hypothesis are test oracles only (pyproject
lists no runtime dependency). Each public name loads its module on first
use, and each CLI command loads only the modules it runs.

Every check runs in a fresh interpreter, since this test process has long
since imported every module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import admcdm

from conftest import CORPUS

TEST_ONLY = ("numpy", "sympy", "scipy", "mpmath", "hypothesis")

# what importing the package and the CLI and building its argument parser
# loads; every command needs these
SHARED = {"admcdm", "admcdm.cli", "admcdm.errors", "admcdm.model",
          "admcdm.parser", "admcdm.scalars"}

SOLVE = {"admcdm.solver", "admcdm.classification", "admcdm.linalg",
         "admcdm.polynomial"}


def run_probe(probe: str) -> str:
    src = str(Path(admcdm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def loaded(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "admcdm"}


def test_import_pulls_in_no_test_only_package():
    probe = (
        "import sys, admcdm, admcdm.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))\n"
    )
    assert run_probe(probe) == "[]"


def test_import_and_argument_parser_load_only_the_shared_modules():
    probe = (
        "import sys, admcdm, admcdm.cli\n"
        "admcdm.cli._parser()\n"
        "print(*sys.modules)\n"
    )
    assert loaded(set(run_probe(probe).split())) == SHARED


@pytest.mark.parametrize("argv, extra", [
    (["solve", "ex1"], SOLVE),
    (["classify", "ex1"], SOLVE - {"admcdm.solver"}),
    (["ahp", "ex9"], {"admcdm.ahp"}),
    (["compare", "ex9"], SOLVE | {"admcdm.ahp"}),
    (["error-min", "ex2"], {"admcdm.error_min"}),
    (["regimes", "ex16"], {"admcdm.nonlinear"}),
    (["gen-cyclic", "--t", "2"], set()),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    if argv[0] != "gen-cyclic":
        argv = [argv[0], str(CORPUS / f"{argv[1]}.admp")]
    probe = (
        "import contextlib, io, sys\n"
        "from admcdm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, *sys.modules)\n"
    )
    code, *modules = run_probe(probe).split()
    assert code == "0"
    assert loaded(set(modules)) == SHARED | extra


def test_every_export_is_the_object_its_module_defines():
    probe = (
        "import importlib, admcdm\n"
        "for name in admcdm.__all__:\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    module = importlib.import_module('admcdm.' + admcdm._MODULE_OF[name])\n"
        "    value = getattr(admcdm, name)\n"
        "    assert value is getattr(module, name), name\n"
        "    home = getattr(value, '__module__', '')\n"
        "    assert not home.startswith('admcdm') or home == module.__name__, name\n"
        "print(sorted(admcdm.__all__) == sorted(set(admcdm.__all__)),\n"
        "      set(admcdm.__all__) <= set(dir(admcdm)))\n"
    )
    assert run_probe(probe) == "True True"


def test_star_import_binds_every_export():
    probe = (
        "from admcdm import *\n"
        "import admcdm\n"
        "print(all(globals()[name] is getattr(admcdm, name)\n"
        "          for name in admcdm.__all__))\n"
    )
    assert run_probe(probe) == "True"


@pytest.mark.parametrize("first", ["admcdm.solver", "admcdm.classification",
                                   "admcdm.cli"])
def test_classify_stays_the_function_whatever_is_imported_first(first):
    probe = (
        f"import {first}\n"
        "import pkgutil, importlib, admcdm\n"
        "from admcdm import classify\n"
        "for info in pkgutil.iter_modules(admcdm.__path__):\n"
        "    importlib.import_module('admcdm.' + info.name)\n"
        "print(callable(classify), admcdm.classify is classify,\n"
        "      classify.__module__)\n"
    )
    assert run_probe(probe) == "True True admcdm.classification"


def test_from_import_of_a_module_name_gives_the_submodule():
    assert run_probe("from admcdm import solver\n"
                     "print(solver.__name__)\n") == "admcdm.solver"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        admcdm.no_such_name
    with pytest.raises(ImportError):
        from admcdm import no_such_name  # noqa: F401
