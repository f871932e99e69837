"""No hidden process-wide caches in the package.

Results are memoised on the objects they belong to (as non-field
attributes), never in a module-level container or a new ``lru_cache``: a
global cache outlives the objects it serves, grows with every distinct
input, and lets repeated inputs skip work unseen by callers and by the
benchmark, which clears only ``standard_dilation``'s cache between runs.
The two caches that exist are allowed by name, and so is the demo registry.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))

ALLOWED_CACHES = {"hopf.builtin", "dilation.standard_dilation"}
ALLOWED_CONTAINERS = {"demos.DEMOS"}
CACHE_DECORATORS = {"lru_cache", "cache"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                   ast.SetComp)


def _name(node):
    """'lru_cache' for lru_cache, lru_cache(...), functools.lru_cache(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_container(value):
    return isinstance(value, CONTAINER_NODES) or (
        isinstance(value, ast.Call) and _name(value) in CONTAINER_CALLS)


def _bindings(body, prefix):
    """(dotted name, value) of the names bound at module or class level."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _bindings(node.body, f"{prefix}.{node.name}")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{prefix}.{name.id}", node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            yield f"{prefix}.{_name(node.target)}", node.value
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            yield from _bindings(node.body, prefix)


def global_caches(source, module):
    """Names of the cached functions and global containers in the source."""
    tree = ast.parse(source)
    found = [f"{module}.{node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_name(d) in CACHE_DECORATORS for d in node.decorator_list)]
    found += [name for name, value in _bindings(tree.body, module)
              if _is_container(value)]
    return found


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", MODULES)
def test_no_global_caches(filename):
    found = global_caches(_source(filename), filename[:-3])
    assert [n for n in found if n not in ALLOWED_CACHES | ALLOWED_CONTAINERS] == []


def test_the_allowed_caches_are_the_ones_found():
    found = {n for f in MODULES for n in global_caches(_source(f), f[:-3])}
    assert found == ALLOWED_CACHES | ALLOWED_CONTAINERS


@pytest.mark.parametrize("added, name", [
    ("_TABLES = {}\n", "hopf._TABLES"),
    ("_TABLES: dict = dict()\n", "hopf._TABLES"),
    ("class _Memo:\n    seen = set()\n", "hopf._Memo.seen"),
    ("@functools.lru_cache(maxsize=64)\ndef _terms(key):\n    return key\n",
     "hopf._terms"),
    ("@cache\ndef _terms(key):\n    return key\n", "hopf._terms"),
])
def test_a_new_cache_is_caught(added, name):
    assert name in global_caches(_source("hopf.py") + added, "hopf")
