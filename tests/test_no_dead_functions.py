"""Every function and method of the package is referenced somewhere.

The scan parses ``src/hopf_partial/*.py`` and ``tests/*.py`` with `ast`.
A top-level function of the package counts as used when its name is loaded
anywhere in those files: as a plain name, as an attribute or as an
imported name.  A non-dunder method counts as used only when its name is
loaded as an attribute, so a local variable of the same spelling does not
mask an unused method.  The `Mat` operators and `Subspace`
methods that ``perfbench/bench_trace.py`` wraps by name are exempt; the
benchmark reaches them through that list (``Mat.power`` among them).
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "hopf_partial")
TRACE_PATH = os.path.join(HERE, os.pardir, "perfbench", "bench_trace.py")


def _parse_dir(path):
    trees = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    return trees


def _traced_names():
    """The tuples MAT_OPERATORS and SUBSPACE_METHODS of bench_trace.py."""
    with open(TRACE_PATH, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name)
                        and t.id in ("MAT_OPERATORS", "SUBSPACE_METHODS")
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def defined_functions(filename, tree):
    """(qualified name, bare name, is a method) of the top-level functions
    and the non-dunder methods."""
    module = filename[:-3]
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((f"{module}.{node.name}", node.name, False))
        elif isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item.name, True)
                       for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (item.name.startswith("__")
                                and item.name.endswith("__")))
    return out


def loaded_names(trees):
    """(every loaded name, the names loaded as attributes)."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names | attributes, attributes


def dead_functions(src_trees, other_trees, exempt=frozenset()):
    """Qualified names of package functions whose name is never loaded, sorted;
    a method needs an attribute load of its name."""
    used, attributes = loaded_names(list(src_trees.values()) + list(other_trees))
    return sorted(qual for filename, tree in src_trees.items()
                  for qual, name, method in defined_functions(filename, tree)
                  if name not in (attributes if method else used)
                  and name not in exempt)


def test_every_package_function_is_referenced():
    src = _parse_dir(SRC)
    tests = _parse_dir(HERE).values()
    assert dead_functions(src, tests, _traced_names()) == []


def test_the_scan_sees_names_attributes_and_imports():
    src = {"mod.py": ast.parse(
        "def called():\n    pass\n\ndef dead():\n    pass\n\n"
        "def imported():\n    pass\n\n"
        "class K:\n    def __eq__(self, o):\n        return True\n\n"
        "    def method(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n"
        "    def masked(self):\n        pass\n\n"
        "    def power(self):\n        pass\n\n"
        "def local():\n    masked = 1\n    return masked\n\n"
        "called()\nK().method()\nlocal()\n")}
    other = [ast.parse("from mod import imported\n")]
    # a local variable named like a method does not count as using it
    assert dead_functions(src, other, {"power"}) \
        == ["K.masked", "K.unused", "mod.dead"]
    assert {"power", "__mul__", "from_vectors"} <= _traced_names()
