"""The regular representation of an algebra object is built in one place.

`hopf.ConstantsAlgebra` builds the L_s of an algebra given by structure
constants from its constants, once per object, and reads its R_s off the
L_s.  Anywhere else in the package, a call of `left_mults` on an
object's ``.mult`` or ``.alg_mult`` rebuilds what the object already
keeps; this scan parses every module with `ast` and fails on such a
call.  Calls on constants that no object holds yet (a local table) are
allowed.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))

HOMES = {"left_mults": "hopf.ConstantsAlgebra"}
TABLES = {"mult", "alg_mult"}


def _called(node):
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _calls(body, prefix):
    """(enclosing class, call) of every call in body."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _calls(node.body, f"{prefix}.{node.name}")
            continue
        yield from ((prefix, sub) for sub in ast.walk(node) if isinstance(sub, ast.Call))


def rebuilds(source, module):
    """(module, line, builder) of each builder call on an object's table
    outside that builder's home class."""
    return [(module, call.lineno, _called(call))
            for owner, call in _calls(ast.parse(source).body, module)
            if _called(call) in HOMES and owner != HOMES[_called(call)]
            and any(isinstance(arg, ast.Attribute) and arg.attr in TABLES
                    for arg in call.args)]


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", MODULES)
def test_no_structure_rebuilt_from_an_objects_constants(filename):
    assert rebuilds(_source(filename), filename[:-3]) == []


def test_only_the_home_class_may_read_an_objects_table():
    home = "class ConstantsAlgebra:\n    def f(self):\n        return left_mults(self.mult, 1)\n"
    assert rebuilds(home, "hopf") == []
    assert rebuilds(home, "actions") == [("actions", 3, "left_mults")]
    assert rebuilds(home.replace("ConstantsAlgebra", "HopfAlgebraData"), "hopf") \
        == [("hopf", 3, "left_mults")]


@pytest.mark.parametrize("added, builder", [
    ("def f(b):\n    return left_mults(b.alg_mult, b.dim)\n", "left_mults"),
    ("def f(h):\n    return [r for r in hp.left_mults(h.mult, h.dim)]\n", "left_mults"),
    ("class A:\n    def f(self):\n        return left_mults(self.alg_mult, 1)\n", "left_mults"),
])
def test_a_rebuild_is_caught(added, builder):
    source = _source("actions.py")
    found = rebuilds(source + added, "actions")
    assert [b for _, line, b in found] == [builder]
    assert found[0][1] > len(source.splitlines())


def test_a_local_table_is_allowed():
    assert rebuilds("def f(mult, n):\n    return left_mults(mult, n)\n", "actions") == []
