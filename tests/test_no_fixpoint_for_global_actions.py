"""A submodule generated under a global action is found without a fixpoint.

Under a global action, the submodule generated by a set of vectors is
the span of their translates, one column space.  `dilation` (the standard
dilation, in Hom(H, M) under right translation) and `projection` (the
submodule generated by im t, in `is_proper` and `minimalize`) act only
through global actions, so neither may reach for `linalg.span_closure`,
the fixpoint of repeated eliminations that partial actions still need.
This scan parses both modules with `ast` and fails on any reference to
it; a call count during the round trip confirms it at run time.

In `partial`, the global shadow and the balanced tensor product take
their relation spans as one column space each, and only the submodule
generated by a vector and the algebra generated by matrices saturate.
So outside `linalg`, which defines the fixpoint, and `demos`, which shows
it at work, a second scan allows calls of `span_closure` only from
`submodule_closure` and `_generated_algebra`.
"""

import ast
import importlib
import os

import pytest

from hopf_partial import dilation as dl
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import graded_projection, partially_graded_module

import gen

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
GLOBAL_ONLY = ("dilation.py", "projection.py")
FIXPOINT = "span_closure"
SATURATING = ["_generated_algebra", "submodule_closure"]


def fixpoint_uses(source):
    """Line numbers of the references to span_closure in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == FIXPOINT)
            or (isinstance(node, ast.Attribute) and node.attr == FIXPOINT)
            or (isinstance(node, ast.alias) and node.name == FIXPOINT)]


def fixpoint_callers(source):
    """The enclosing function of each call of span_closure in source, by
    position; None for a call outside any function."""
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == FIXPOINT
                or getattr(node.func, "attr", None) == FIXPOINT):
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return callers


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", GLOBAL_ONLY)
def test_no_fixpoint_in_a_module_of_global_actions(filename):
    assert fixpoint_uses(_source(filename)) == []


@pytest.mark.parametrize("added", [
    "from .linalg import span_closure\n",
    "def f(s, ops):\n    return la.span_closure(s, ops)\n",
    "def f(s, ops):\n    return span_closure(s, ops).dim\n",
])
def test_a_fixpoint_is_caught(added):
    source = _source("projection.py")
    end = len(source.splitlines())
    assert [line for line in fixpoint_uses(source + added) if line > end]


def test_the_round_trip_runs_no_fixpoint(monkeypatch):
    package = [importlib.import_module(f"hopf_partial.{name[:-3]}")
               for name in sorted(os.listdir(SRC)) if name.endswith(".py")]
    calls = [gen.count_calls(monkeypatch, m, FIXPOINT)
             for m in package if hasattr(m, FIXPOINT)]
    dil = dl.standard_dilation(partially_graded_module(1, 1, 1))
    p = pj.ProjectedModule(dil.projected.module, dil.projected.t)
    assert pj.is_proper(p)
    pj.restrict(p)
    pj.minimalize(graded_projection(1, 1, 1))
    assert sum(map(len, calls)) == 0


def test_only_the_generated_submodule_and_algebra_saturate():
    callers = [c for name in sorted(os.listdir(SRC))
               if name.endswith(".py") and name not in ("linalg.py", "demos.py")
               for c in fixpoint_callers(_source(name))]
    assert sorted(callers, key=str) == SATURATING


@pytest.mark.parametrize("added, caller", [
    ("def f(s, ops):\n    return la.span_closure(s, ops)\n", "f"),
    ("def f(s, ops):\n    def g():\n        return span_closure(s, ops).dim\n", "g"),
    ("CLOSED = span_closure(SEED, OPS)\n", None),
])
def test_a_saturating_caller_is_caught(added, caller):
    source = _source("partial.py")
    assert fixpoint_callers(source + added) == fixpoint_callers(source) + [caller]


def test_the_shadow_and_the_balanced_tensor_run_no_fixpoint(monkeypatch):
    calls = gen.count_calls(monkeypatch, pm, FIXPOINT)
    m = partially_graded_module(1, 1, 1)
    pm.global_shadow(m)
    pm.tensor_over_base(m, m)
    w2 = pm.w_n_module(2)
    pm.global_shadow(w2)
    pm.tensor_over_base(w2, w2)
    assert calls == []
