"""The runtime imports nothing outside the standard library, and the oracle
stays independent of the code it checks."""

import ast
import os
import pathlib
import subprocess
import sys

import pnsym


def test_every_import_is_stdlib_or_pnsym():
    for path in sorted(pathlib.Path(pnsym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside pnsym
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "pnsym", (path.name, name)


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
