"""The runtime and the benchmark harness import nothing outside the standard
library, and the oracle stays independent of the code it checks."""

import ast
import os
import pathlib
import subprocess
import sys

import pnsym


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _absolute_imports(path):
    """The top-level names of a file's absolute imports; relative imports
    stay inside its package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_pnsym():
    for path in sorted(pathlib.Path(pnsym.__file__).parent.glob("*.py")):
        for top in _absolute_imports(path):
            assert top in sys.stdlib_module_names or top == "pnsym", (path.name, top)


def test_every_bench_import_is_stdlib_pnsym_or_a_local_script():
    # bench/run.py builds its hopf inputs from perfbench's workloads module
    scripts = sorted((ROOT / "bench").glob("*.py"))
    assert scripts and (ROOT / "perfbench" / "workloads.py").is_file()
    local = {path.stem for path in scripts} | {"pnsym", "workloads"}
    for path in scripts:
        for top in _absolute_imports(path):
            assert top in sys.stdlib_module_names or top in local, (path.name, top)


def _pnsym_modules(tree):
    """The pnsym submodules a parsed file imports (``pnsym`` for the package)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "pnsym." + base if base else "pnsym"
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "pnsym":
                found.add(parts[1] if len(parts) > 1 else "pnsym")
    return found


def test_oracle_imports_only_combinatorics_from_pnsym():
    # the oracle is the ground truth core is checked against
    path = pathlib.Path(pnsym.__file__).parent / "oracle.py"
    assert _pnsym_modules(ast.parse(path.read_text())) <= {"combinatorics"}


def test_the_model_reference_reads_no_core():
    # tests/model_reference.py checks core.internal_mul from the free model
    path = ROOT / "tests" / "model_reference.py"
    assert _pnsym_modules(ast.parse(path.read_text())) == {"combinatorics", "oracle"}


def test_import_scan_sees_every_spelling_of_core():
    for source in [
        "from . import core",
        "from .core import basis",
        "from pnsym import core",
        "from pnsym.core import basis",
        "import pnsym.core",
    ]:
        assert _pnsym_modules(ast.parse(source)) == {"core"}, source
    assert _pnsym_modules(ast.parse("import pnsym")) == {"pnsym"}
    assert _pnsym_modules(ast.parse("from . import combinatorics as comb")) == {
        "combinatorics"
    }


def test_importing_the_package_loads_no_submodule():
    # the modules are used by name (``from pnsym import core``); a package
    # that re-exports their functions would load them all on ``import pnsym``
    code = "import sys, pnsym; print(sorted(m for m in sys.modules if m.startswith('pnsym.')))"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pnsym.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


def test_importing_the_cli_loads_no_source_tooling():
    # dataclasses pulls in inspect, which loads ast, dis and tokenize; no
    # command uses them, and they would about double the CLI's import
    # time.  -S keeps site's .pth imports out.
    code = (
        "import sys, pnsym.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pnsym.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"
