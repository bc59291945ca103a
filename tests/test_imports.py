"""What importing the package loads. It runs on the standard library alone:
numpy, sympy, scipy, mpmath and hypothesis are test oracles only (pyproject
lists no runtime dependency). Each public name loads its module on first
use, and each CLI command loads only the modules it runs.

Every check of what is loaded runs in a fresh interpreter, since this test
process has long since imported every module. The last tests read every
module's globals for float tolerances and every module's source for
imported names it never uses."""

import ast
import importlib
import os
import pkgutil
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
    # classify builds no polynomial
    (["classify", "ex1"], {"admcdm.classification", "admcdm.linalg"}),
    # the eigenpair comes from the exact determinant and root code
    (["ahp", "ex9"], {"admcdm.ahp", "admcdm.linalg", "admcdm.polynomial"}),
    (["compare", "ex9"], SOLVE | {"admcdm.ahp"}),
    (["error-min", "ex2"], {"admcdm.error_min"}),
    (["regimes", "ex16"], {"admcdm.nonlinear"}),
    (["gen-cyclic", "--t", "2"], set()),
    # a product set tries the exact family zero first
    (["error-min", "ex15"], {"admcdm.error_min", "admcdm.nonlinear",
                             "admcdm.polynomial"}),
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


def test_ahp_on_a_file_that_is_not_pairwise_loads_only_ahp():
    probe = (
        "import contextlib, io, sys\n"
        "from admcdm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main(['ahp', {str(CORPUS / 'ex2.admp')!r}])\n"
        "print(code, *sys.modules)\n"
    )
    code, *modules = run_probe(probe).split()
    assert code == "3"
    assert loaded(set(modules)) == SHARED | {"admcdm.ahp"}


def test_no_command_loads_dataclasses_or_inspect():
    # both cost a CLI call milliseconds of import; the value types are
    # scalars.Record subclasses
    commands = ["solve", "classify", "ahp", "compare", "error-min", "regimes"]
    probe = (
        "import contextlib, io, sys\n"
        "from admcdm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main([command, {str(CORPUS / 'ex1.admp')!r}])\n"
        f"             for command in {commands!r}]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert run_probe(probe) == "[0, 0, 0, 0, 0, 0] []"


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


def test_dir_lists_every_export():
    assert set(admcdm.__all__) <= set(dir(admcdm))
    assert dir(admcdm) == sorted(dir(admcdm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        admcdm.no_such_name
    with pytest.raises(ImportError):
        from admcdm import no_such_name  # noqa: F401


# The only module-level floats the engine may define. Every decision on a
# problem's own statements is exact; a new tolerance must be argued here.
ALLOWED_FLOATS = {
    # float elimination at an irrational root, until that vector is rounded
    # once from exact cofactor polynomials
    ("admcdm.linalg", "RANK_TOL"),
    # an input check: eval_error accepts a caller's float point whose
    # weights sum to 1 within it
    ("admcdm.error_min", "SIMPLEX_TOL"),
}


def test_no_module_defines_a_tolerance():
    found = set()
    for info in pkgutil.iter_modules(admcdm.__path__):
        module = importlib.import_module(f"admcdm.{info.name}")
        found |= {(module.__name__, name)
                  for name, value in vars(module).items()
                  if isinstance(value, float)}
    assert found <= ALLOWED_FLOATS


# names a module imports only for other code to import from it
RE_EXPORTS = {
    # bench/worker.py reads the consistency tolerance from the solver
    ("admcdm.solver", "CONSISTENT_DET_TOL"),
}


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(Path(admcdm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0]
                             for alias in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused |= {(f"admcdm.{path.stem}", name) for name in imported - used}
    assert unused == RE_EXPORTS
