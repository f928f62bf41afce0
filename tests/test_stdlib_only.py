"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
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
