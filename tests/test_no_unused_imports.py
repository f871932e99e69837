"""Every name imported into a package module is read somewhere in it.

`__init__.py` is exempt: its imports are the package's public surface.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """Names bound by an import in source and never loaded, sorted."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded)


@pytest.mark.parametrize("filename", MODULES)
def test_every_imported_name_is_used(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_plain_names_attribute_bases_and_aliases():
    source = ("import os.path\nfrom fractions import Fraction as F\n"
              "from .linalg import inverse, rank\n"
              "rank = rank(F(1))\nos.path.join('a')\n")
    assert unused_imports(source) == ["inverse"]
    assert "dilation.py" in MODULES and "__init__.py" not in MODULES
