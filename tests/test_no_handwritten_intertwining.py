"""Every intertwining check goes through `linalg.intertwining_witness`.

A map f intertwines two operator families when f src[i] = dst[i] f for
every i, and the commutation of T with a family is the case f = T,
src = dst.  Outside `linalg`, the home of that scan, no loop and no
comprehension may spell the relation out: this test parses every module
with `ast` and fails on a comparison (== or !=) of two products, inside
a `for` loop or a comprehension, where the first factor of one product is
the last factor of the other.  A single comparison outside a loop, such
as cd = dc, is left alone.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "hopf_partial")
HOME = "linalg.py"
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != HOME)
LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _end_factors(node):
    """The dumps of the first and the last factor of a product, or None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return None
    first = last = node
    while isinstance(first, ast.BinOp) and isinstance(first.op, ast.Mult):
        first = first.left
    while isinstance(last, ast.BinOp) and isinstance(last.op, ast.Mult):
        last = last.right
    return ast.dump(first), ast.dump(last)


def _spells_intertwining(node):
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
        return False
    lhs, rhs = _end_factors(node.left), _end_factors(node.comparators[0])
    return bool(lhs and rhs) and (lhs[0] == rhs[1] or lhs[1] == rhs[0])


def handwritten(source):
    """Line numbers of the hand-written intertwining comparisons in source."""
    return sorted({node.lineno for loop in ast.walk(ast.parse(source))
                   if isinstance(loop, LOOPS)
                   for node in ast.walk(loop) if _spells_intertwining(node)})


def _source(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("filename", MODULES)
def test_no_hand_written_intertwining_loop(filename):
    assert handwritten(_source(filename)) == []


def test_the_home_of_the_scan_spells_it_out():
    assert len(handwritten(_source(HOME))) == 1


@pytest.mark.parametrize("added", [
    # the three witness conventions the helper replaced
    "def f(g, m, n):\n    return all(g * m.pi[i] == n.pi[i] * g for i in range(2))\n",
    "def f(t, fam):\n    return next((i for i, a in enumerate(fam) if a * t != t * a), None)\n",
    "def f(q, ops, s):\n    for k, op in enumerate(ops):\n"
    "        mat = q * op * s\n        require(mat * q == q * op, f'{k}')\n",
    "def f(th, src, t, mod):\n    return all(th * a == t * b * th for a, b in zip(src, mod))\n",
    "def f(eps):\n    return all(a * b == b * a for a in eps for b in eps)\n",
])
def test_a_hand_written_loop_is_caught(added):
    source = _source("partial.py")
    found = handwritten(source + added)
    assert found and min(found) > len(source.splitlines())


@pytest.mark.parametrize("allowed", [
    "def f(c, d):\n    return c * d == d * c\n",
    "def f(xs, t):\n    return all(x * t == t for x in xs)\n",
    "def f(pairs):\n    return all(a * b == c * d for a, b, c, d in pairs)\n",
    "def f(ms, t):\n    return [m * t * m for m in ms]\n",
])
def test_other_comparisons_are_allowed(allowed):
    assert handwritten(allowed) == []
