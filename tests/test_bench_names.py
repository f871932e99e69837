"""Every library name that the traced benchmark run binds must still exist.

``perfbench/bench_trace.py`` wraps ``Mat`` operators and ``Subspace``
methods by attribute name and counts calls of some functions by their
dotted name; a rename or deletion in the library would make the traced
run raise or silently report zero.  The names are read from that file.
The benchmark's output checks (``bench_exact.rows_of``, ``workloads.canon``)
read ``Mat.entries``, ``rows`` and ``cols`` by attribute, so their shape is
pinned here too.  ``workloads.canon`` also hashes every dataclass field into
the reference digests, so the field names of the value types are pinned:
derived data such as the sparse structure tables must stay out of them.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
from fractions import Fraction

import pytest

from hopf_partial import hopf as hp
from hopf_partial.actions import (GlobalModuleAlgebra, PartialModuleAlgebra,
                                  SmashAlgebra)
from hopf_partial.dilation import Dilation, standard_dilation
from hopf_partial.linalg import Mat, Subspace
from hopf_partial.partial import PartialModule, w_n_module
from hopf_partial.projection import (ProjectedModule, is_minimal, is_proper,
                                     restrict)

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


@pytest.mark.parametrize("mat, shape", [
    (Mat([[1, "1/2", Fraction(-3, 4)], [0, 2, "5"]]), (2, 3)),
    (Mat.identity(1), (1, 1)),
    (Mat.zeros(0, 3), (0, 3)),
    (Mat([[], []]), (2, 0)),
])
def test_entries_are_rows_of_fractions(mat, shape):
    assert (mat.rows, mat.cols) == shape
    entries = mat.entries
    assert type(entries) is tuple and len(entries) == mat.rows
    for row in entries:
        assert type(row) is tuple and len(row) == mat.cols
        assert all(type(x) is Fraction for x in row)
    assert [[mat[i, j] for j in range(mat.cols)] for i in range(mat.rows)] \
        == [list(row) for row in entries]


@pytest.mark.parametrize("cls, names", [
    (hp.HopfAlgebraData, ("dim", "mult", "unit", "comult", "counit", "antipode",
                          "antipode_inv", "labels")),
    (PartialModule, ("hopf", "dim", "pi")),
    (PartialModuleAlgebra, ("hopf", "dim", "alg_mult", "alg_unit", "action")),
    (GlobalModuleAlgebra, ("hopf", "dim", "alg_mult", "action", "unital",
                           "alg_unit")),
    (SmashAlgebra, ("hopf", "factor_dim", "ambient", "dim", "mult", "unit",
                    "h_embedding", "module")),
    (ProjectedModule, ("module", "t")),
    (Dilation, ("source", "projected", "theta", "proper", "minimal",
                "ambient_inclusion")),
])
def test_digest_hashed_fields(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


def test_memos_leave_equality_and_hash_alone():
    std = standard_dilation(w_n_module(2)).projected
    p = ProjectedModule(std.module, std.t)
    twin = ProjectedModule(std.module, std.t)
    before = hash(p)
    restrict(p)
    assert is_proper(p) and is_minimal(p)
    assert p == twin and twin == p and hash(p) == hash(twin) == before
    assert hash(p) == hash((p.module, p.t))


def test_equal_constants_give_equal_hopf_algebras():
    a = hp.group_algebra(hp.cyclic_table(3))
    b = hp.HopfAlgebraData.build(
        3, [[[int(x) for x in row] for row in plane] for plane in a.mult],
        [str(x) for x in a.unit], a.comult, a.counit, a.antipode.entries)
    assert a is not b and a.left is not b.left
    assert a == b and hash(a) == hash(b)
