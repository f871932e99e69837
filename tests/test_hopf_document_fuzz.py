"""Mutated Hopf documents never make the CLI raise.

A mutation replaces a field of the kC2 or Sweedler document with a random
JSON value, drops a field, or grows or shrinks one of its arrays at some
depth.  Each mutated document goes to ``validate-hopf`` and, as an inline
``hopf`` object of an otherwise valid module, to ``check-partial``:
`cli.main` must return 0, 1 or 2 and write no output file on 2.
"""

import contextlib
import io as text_io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from hopf_partial import hopf as hp
from hopf_partial import serialize as io
from hopf_partial.cli import main

BASES = {name: io.hopf_to_json(hp.builtin(name)) for name in ("kC2", "sweedler")}
FIELDS = ("dim", "mult", "unit", "comult", "counit", "antipode", "antipode_inv",
          "labels")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", ""]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)


def _resize(value, path, grow):
    """value with the array reached through the indices of path grown by a
    copy of its last element (an empty one by an empty array), or shrunk by
    one; other values as they are."""
    if not isinstance(value, list):
        return value
    if path and value and path[0] < len(value) and isinstance(value[path[0]], list):
        i = path[0]
        return value[:i] + [_resize(value[i], path[1:], grow)] + value[i + 1:]
    if grow:
        return value + value[-1:] if value else [value]
    return value[:-1]


mutations = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(FIELDS), json_values),
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), st.none()),
    st.tuples(st.just("resize"), st.sampled_from(FIELDS[1:]),
              st.tuples(st.lists(st.integers(0, 3), max_size=2), st.booleans())))


def _mutated(doc, steps):
    doc = json.loads(json.dumps(doc))
    for kind, name, arg in steps:
        if kind == "replace":
            doc[name] = arg
        elif kind == "drop":
            doc.pop(name, None)
        elif name in doc:
            doc[name] = _resize(doc[name], *arg)
    return doc


def _run(verb, payload):
    """Exit code of verb on payload, and whether its output file exists."""
    with tempfile.TemporaryDirectory() as folder:
        src, dst = os.path.join(folder, "in.json"), os.path.join(folder, "out.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(text_io.StringIO()), \
                contextlib.redirect_stderr(text_io.StringIO()):
            code = main([verb, "--input", src, "--output", dst])
        return code, os.path.exists(dst)


@given(st.sampled_from(sorted(BASES)), st.lists(mutations, min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_mutated_hopf_documents_exit_0_1_or_2(name, steps):
    doc = _mutated(BASES[name], steps)
    # the trivial module k, pi(e_i) = eps(e_i), is valid over the unmutated algebra
    module = {"hopf": doc, "dim": 1, "pi": [[[x]] for x in BASES[name]["counit"]]}
    for verb, payload in (("validate-hopf", doc), ("check-partial", module)):
        code, wrote = _run(verb, payload)
        assert code in (0, 1, 2)
        assert code != 2 or not wrote
