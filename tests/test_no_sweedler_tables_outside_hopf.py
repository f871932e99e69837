"""Only `hopf` knows how Delta and S are stored; products go through the L_s.

`hopf.comult_sum`, `hopf.antipode_images` and the grid builder
`hopf.sweedler_grid` (through its placement tables) are the readers of
the sparse tables ``comult_terms`` and ``antipode_terms`` for sums of
matrices; every other module of the package writes its Sweedler sums
through them.  This scan parses every module with `ast` and fails on a
load of either table outside ``hopf.py``, and on a load of the dense
``comult`` or ``antipode`` arrays, or of the dense product cubes ``mult``
and ``alg_mult``, in the modules that build the paper's constructions.
Those read an algebra's product only through its ``left`` and ``right``
(``serialize`` writes the arrays out, and ``demos`` shows them).
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))

HOME = "hopf.py"
TABLES = {"comult_terms", "antipode_terms"}
CONSTRUCTIONS = {"partial.py", "projection.py", "dilation.py", "actions.py"}
DENSE = {"comult", "antipode"}
CUBES = {"mult", "alg_mult"}


def loads(source, names):
    """(line, attribute) of each load of an attribute in names."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in names]


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", [f for f in MODULES if f != HOME])
def test_no_sweedler_table_read_outside_hopf(filename):
    assert loads(_source(filename), TABLES) == []


@pytest.mark.parametrize("filename", sorted(CONSTRUCTIONS))
def test_constructions_read_no_dense_coalgebra_array(filename):
    assert loads(_source(filename), DENSE) == []


@pytest.mark.parametrize("filename", sorted(CONSTRUCTIONS))
def test_constructions_read_no_dense_product_cube(filename):
    assert loads(_source(filename), CUBES) == []


def test_the_scan_sees_the_tables_in_hopf_and_an_added_read():
    assert {attr for _, attr in loads(_source(HOME), TABLES)} == TABLES
    source = _source("actions.py")
    added = ("def f(h, b):\n    return [c for _, _, c in h.comult_terms[0]] + [h.comult]"
             " + [h.mult, b.alg_mult]\n")
    found = loads(source + added, TABLES | DENSE | CUBES)
    assert sorted(attr for _, attr in found) == ["alg_mult", "comult", "comult_terms", "mult"]
    assert min(line for line, _ in found) > len(source.splitlines())
