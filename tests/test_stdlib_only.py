"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module or the package itself."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("filename", MODULES)
def test_imports_are_stdlib_or_the_package(filename):
    outside = [name for name in _absolute_imports(os.path.join(SRC, filename))
               if name.split(".")[0] not in sys.stdlib_module_names | {"hopf_partial"}]
    assert outside == []


def test_every_module_is_scanned():
    assert "__init__.py" in MODULES and "linalg.py" in MODULES
