"""Every library name that the traced benchmark run binds must still exist.

``perfbench/bench_trace.py`` wraps ``Mat`` operators and ``Subspace``
methods by attribute name and counts calls of some functions by their
dotted name; a rename or deletion in the library would make the traced
run raise or silently report zero.  The names are read from that file.
"""

import ast
import importlib
import importlib.util
import os

import pytest

from hopf_partial.dilation import standard_dilation
from hopf_partial.linalg import Mat, Subspace

TRACE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "bench_trace.py")


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace()


def _names_counted_in_summary():
    """String arguments of the count(...) and inclusive_ms(...) calls."""
    with open(TRACE_PATH, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return sorted({arg.value for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("count", "inclusive_ms")
                   for arg in node.args if isinstance(arg, ast.Constant)})


def _resolve(dotted):
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hopf_partial.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("layer", TRACE.LAYERS)
def test_layer_modules_exist(layer):
    importlib.import_module(f"hopf_partial.{layer}")


@pytest.mark.parametrize("cls, attrs", [(Mat, TRACE.MAT_OPERATORS),
                                        (Subspace, TRACE.SUBSPACE_METHODS)])
def test_wrapped_class_attributes_exist(cls, attrs):
    assert [a for a in attrs if a not in cls.__dict__] == []


def test_summary_counts_names_that_exist():
    names = _names_counted_in_summary() + sorted(TRACE.ELIMINATION)
    assert "partial.check_partial_rep" in names
    for dotted in names:
        obj = _resolve(dotted)
        assert callable(obj), dotted
        if dotted.count(".") == 1:
            # module functions are wrapped only when defined in that module
            assert obj.__module__ == f"hopf_partial.{dotted.split('.')[0]}", dotted


def test_dilation_cache_statistics_exist():
    info = standard_dilation.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert callable(standard_dilation.cache_clear)
