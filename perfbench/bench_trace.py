"""Span tracing of the library's layers, installed from outside ``src/``.

``Tracer.install`` wraps the public functions of each layer module and
rebinds every ``hopf_partial.*`` name that refers to the same function
object, so calls made through ``from .linalg import rank`` are seen too.
The public ``Mat`` operators and ``Subspace`` methods are wrapped on their
classes.  Hot helpers (``frac``, the vector helpers, ``Mat`` and
``Subspace`` constructors and accessors) are left alone; their time counts
toward the caller's span.

Spans (name, layer, start, end, parent, op id) are kept in memory while
tracing is active and written out by ``write``.  ``summary`` derives the
per-layer counts and self times: a span's self time is its duration minus
the durations of its direct children.
"""

import functools
import gzip
import sys
import time

LAYERS = ("linalg", "hopf", "partial", "projection", "dilation", "actions",
          "serialize", "cli")
HOT_HELPERS = frozenset({"frac", "vec_add", "vec_sub", "vec_scale", "is_zero_vec",
                         "unit_vec"})
MAT_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__", "scale",
                 "apply", "transpose", "is_zero", "power")
SUBSPACE_METHODS = ("from_vectors", "zero", "full", "contains", "contains_subspace",
                    "add", "intersect", "coords")
ELIMINATION = frozenset({"linalg.rref", "linalg.rank", "linalg.solve",
                         "linalg.solve_matrix", "linalg.inverse",
                         "linalg.kernel_basis", "linalg.Subspace.from_vectors"})


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.active = False
        self.op = -1
        self.mul_scalar_ops = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, layer, fn, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.op)
        return traced

    def _count_mul(self, a, b, *_):
        if hasattr(b, "cols"):
            self.mul_scalar_ops += a.rows * a.cols * b.cols

    def install(self):
        """Wrap every layer; ``uninstall`` puts the original objects back."""
        from hopf_partial.linalg import Mat, Subspace

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hopf_partial.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or (layer == "linalg" and attr in HOT_HELPERS)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hopf_partial" and not mod_name.startswith("hopf_partial."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for cls, attrs in ((Mat, MAT_OPERATORS), (Subspace, SUBSPACE_METHODS)):
            for attr in attrs:
                orig = cls.__dict__[attr]
                static = isinstance(orig, staticmethod)
                before = self._count_mul if attr == "__mul__" else None
                traced = self._wrap(f"linalg.{cls.__name__}.{attr}", "linalg",
                                    orig.__func__ if static else orig, before)
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, staticmethod(traced) if static else traced)

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self, n_ops):
        """Per-operation counts and times as {name: (value, unit)}."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, layer, start, end, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        by_name = {}
        for idx, (name, layer, start, end, parent, op) in enumerate(spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[idx]
            count, total = by_name.get(name, (0, 0))
            by_name[name] = (count + 1, total + end - start)

        def count(*names):
            return (sum(by_name.get(n, (0, 0))[0] for n in names) / n_ops, "count")

        def inclusive_ms(name):
            return (by_name.get(name, (0, 0))[1] / 1e6 / n_ops, "ms")

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / n_ops, "count")
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / n_ops, "ms")
        out["linalg.mul.calls"] = count("linalg.Mat.__mul__")
        out["linalg.mul.scalar_ops"] = (self.mul_scalar_ops / n_ops, "computed-count")
        out["linalg.elim.calls"] = count(*ELIMINATION)
        out["linalg.span_closure.ms"] = inclusive_ms("linalg.span_closure")
        out["partial.check_partial_rep.calls"] = count("partial.check_partial_rep")
        out["partial.check_partial_rep.ms"] = inclusive_ms("partial.check_partial_rep")
        out["hopf.validate_hopf.calls"] = count("hopf.validate_hopf")
        out["dilation.standard_dilation.calls"] = count("dilation.standard_dilation")
        out["dilation.check_dilation.calls"] = count("dilation.check_dilation")
        return out

    def write(self, path):
        """All spans as gzip'd tab-separated lines: name layer start end parent op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tlayer\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
