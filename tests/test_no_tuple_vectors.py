"""Inside the library an algebra element is a `Mat` column.

`Fraction` tuples appear only in dataclass fields and at the edges: the
entry views of `linalg`, the JSON of `serialize` and the reports of
`demos`.  Everywhere else no code calls ``.apply(`` (a matrix times a
tuple) or ``.vectors()`` (a subspace's basis as tuples), and
``.col_list()`` is called only by the functions that make a dataclass
field, a `build` cube or ``antipode_terms``.  This test parses every
other module with `ast` and lists those calls with the function that
encloses them, qualified by its class.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
EDGES = ("linalg.py", "serialize.py", "demos.py")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f not in EDGES)
METHODS = ("apply", "vectors", "col_list")
FIELD_BUILDERS = {"induced_partial_algebra", "direct_product", "partial_smash",
                  "global_smash", "HopfAlgebraData.__post_init__"}


def vector_calls(source):
    """(method, enclosing function) of every call of a method in METHODS."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in METHODS):
                found.append((child.func.attr, scope))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def forbidden(source):
    return [(method, scope) for method, scope in vector_calls(source)
            if method != "col_list" or scope not in FIELD_BUILDERS]


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", MODULES)
def test_no_tuple_vectors_outside_the_edges(filename):
    assert forbidden(_source(filename)) == []


def test_every_allowed_col_list_caller_still_calls_it():
    assert {scope for filename in MODULES
            for method, scope in vector_calls(_source(filename))
            if method == "col_list"} == FIELD_BUILDERS


@pytest.mark.parametrize("added, call", [
    ("def f(a, v):\n    return a.apply(v)\n", ("apply", "f")),
    ("def f(s):\n    return [v for v in s.vectors()]\n", ("vectors", "f")),
    ("def f(ms, u):\n    return [g(ms, v) for v in u.col_list()]\n", ("col_list", "f")),
    ("class K:\n    def direct_product(self, m):\n        return m.col_list()\n",
     ("col_list", "K.direct_product")),
    ("def partial_smash(m):\n    def inner():\n        return m.col_list()\n",
     ("col_list", "partial_smash.inner")),
])
def test_an_added_tuple_vector_call_is_caught(added, call):
    source = _source("partial.py")
    assert forbidden(source + added) == forbidden(source) + [call]


@pytest.mark.parametrize("allowed", [
    "def direct_product(m):\n    return m.col_list()\n",
    "def f(m):\n    return m.col(0), m.entries, m * m\n",
    "def f(m, apply):\n    return apply(m)\n",
])
def test_field_builders_and_other_calls_are_allowed(allowed):
    assert forbidden(allowed) == []
