"""The three workloads: how one operation runs and how its output is checked.

``run`` is the timed call into the library's public entry points.  It
looks every entry point up on its module at call time, so the traced run
sees the wrapped functions.  ``check`` runs untimed: it recomputes cheap
identities with ``bench_exact`` and returns the payload whose canonical
digest is compared with the reference digests of the default seed.
"""

import contextlib
import dataclasses
import io
import json
import os
from fractions import Fraction

from hopf_partial import actions as ac
from hopf_partial import cli
from hopf_partial import dilation as dl
from hopf_partial import projection as pj

import bench_exact as exact
import bench_inputs


class Workload:
    """What the three workloads share: no exception is a known failure."""

    def known_failure(self, job, exc):
        return False


def canon(x):
    """A JSON value that determines x exactly; ints and Fractions alike."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if hasattr(x, "to_json"):
        return x.to_json()
    if hasattr(x, "entries") and hasattr(x, "cols"):
        return ["mat", x.rows, x.cols, canon(x.entries)]
    if hasattr(x, "ambient_dim") and hasattr(x, "basis"):
        return ["subspace", x.ambient_dim, canon(x.basis)]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name))
                for f in dataclasses.fields(x) if f.name != "hopf"}
    return [canon(v) for v in x]


def _two_sided_unit(mult, unit):
    """Does ``unit`` act as the identity on both sides, by the constants?"""
    dim = len(mult)
    for j in range(dim):
        e_j = [Fraction(int(k == j)) for k in range(dim)]
        left = [sum((unit[i] * mult[i][j][k] for i in range(dim)), Fraction(0))
                for k in range(dim)]
        right = [sum((unit[i] * mult[j][i][k] for i in range(dim)), Fraction(0))
                 for k in range(dim)]
        if left != e_j or right != e_j:
            return False
    return True


class Roundtrip(Workload):
    """standard_dilation, the caller's check_dilation, then restrict."""

    name = "roundtrip"
    hopf_names = bench_inputs.HOPF_NAMES
    trace_ops = 36
    # the Hopf algebras rotate and each one's dimensions 1-4 come in blocks
    cycle = len(bench_inputs.HOPF_NAMES) * bench_inputs.ROUNDTRIP_MAX_DIM

    def stream(self, seed):
        return bench_inputs.roundtrip_modules(seed)

    def prepare(self, module, tag):
        return module

    def repeat_key(self, module):
        return (module.hopf.dim, json.dumps(canon(module.pi)))

    def run(self, module):
        dil = dl.standard_dilation(module)
        report = dl.check_dilation(dil)
        back, incl = pj.restrict(dil.projected)
        return dil, report, back, incl

    def check(self, module, out):
        dil, report, back, incl = out
        t = exact.rows_of(dil.projected.t)
        theta = exact.rows_of(dil.theta)
        acts = [exact.rows_of(p) for p in dil.projected.module.pi]
        ok = (report.ok and back.dim == module.dim
              and exact.mul(t, t) == t
              and exact.rank(theta) == module.dim
              and all(exact.mul(theta, exact.rows_of(module.pi[i]))
                      == exact.mul(t, exact.mul(acts[i], theta))
                      for i in range(len(acts))))
        return ok, out


class Algebras(Workload):
    """globalize, partial_smash, global_smash, zeta_xi and morita_context."""

    name = "algebras"
    hopf_names = ("kC2-dual", "sweedler")
    trace_ops = 35
    # the schedule visits every (algebra type, operation) pair once per cycle
    cycle = len(bench_inputs.ALGEBRA_OPS) * len(bench_inputs.ALGEBRA_TYPES)

    def stream(self, seed):
        return bench_inputs.algebra_inputs(seed)

    def prepare(self, item, tag):
        return item

    def repeat_key(self, item):
        op, b = item
        return op, json.dumps(canon((b.alg_mult, b.alg_unit, b.action)))

    def run(self, item):
        op, b = item
        if op == "globalize":
            return ac.globalize(b)
        if op == "partial_smash":
            return ac.partial_smash(b)
        if op == "global_smash":
            return ac.global_smash(ac.globalize(b)[0])
        if op == "zeta_xi":
            return ac.zeta_xi(b)
        return ac.morita_context(b)

    def check(self, item, out):
        op, b = item
        if op == "globalize":
            gb, phi, report = out
            ok = report.ok and exact.rank(exact.rows_of(phi)) == b.dim
        elif op in ("partial_smash", "global_smash"):
            # the global smash product is unital only when the globalization is
            unit_ok = (_two_sided_unit(out.mult, out.unit) if out.unit is not None
                       else op == "global_smash")
            ok = out.dim > 0 and unit_ok and (
                op == "partial_smash" or out.dim == out.factor_dim * b.hopf.dim)
        elif op == "zeta_xi":
            zeta, xi, report = out
            z, x = exact.rows_of(zeta), exact.rows_of(xi)
            ok = (report.ok and exact.mul(z, x) == exact.identity(len(z))
                  and exact.mul(x, z) == exact.identity(len(x)))
        else:
            p_space, q_space, report = out
            ok = report.ok and p_space.dim > 0 and q_space.dim > 0
        return ok, out


class Cli(Workload):
    """One in-process ``hopf_partial.cli.main`` call per JSON document."""

    name = "cli"
    hopf_names = bench_inputs.HOPF_NAMES
    trace_ops = 160
    # document kinds come in blocks of 20 and the valid ones' verbs in blocks
    # of 7, so 7 blocks of kinds use up 16 blocks of verbs
    cycle = len(bench_inputs.CLI_BLOCK) * len(bench_inputs.CLI_VERBS)

    def __init__(self, workdir):
        self.workdir = workdir

    def stream(self, seed):
        return bench_inputs.cli_documents(seed)

    def prepare(self, item, tag):
        verb, text, expect, kind = item
        src = os.path.join(self.workdir, f"in-{tag}.json")
        dst = os.path.join(self.workdir, f"out-{tag}.json")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(text)
        return verb, src, dst, expect, kind, text

    def repeat_key(self, job):
        return job[0], job[5]

    def known_failure(self, job, exc):
        """The non-integer ``dim`` document escapes ``main`` as a ValueError."""
        return isinstance(exc, ValueError) and job[4] == "dim-not-integer"

    def run(self, job):
        verb, src, dst = job[:3]
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main([verb, "--input", src, "--output", dst])

    def check(self, job, code):
        verb, src, dst, expect, kind, text = job
        output = None
        if os.path.exists(dst):
            with open(dst, encoding="utf-8") as fh:
                output = fh.read()
        ok = code == expect and (output is None) == (expect == 2)
        if ok and expect != 2:
            ok = self._output_ok(verb, json.loads(text), json.loads(output), expect)
        return ok, [code, output]

    @staticmethod
    def _output_ok(verb, doc, out, expect):
        if verb in ("check-partial", "check-action"):
            return out["ok"] is (expect == 0) and (
                expect == 0 or any(not c["passed"] for c in out["checks"]))
        dim = doc["dim"] if verb != "restrict" else None
        if verb == "classify":
            dims = (sum(out["dims"].values()) if out["kind"] == "dual-C2"
                    else out["global_dim"] + out["pure_dim"])
            return dims == dim
        if verb == "core":
            return 0 <= out["core_dim"] <= dim
        if verb == "shadow":
            return 0 <= out["shadow_dim"] <= dim
        if verb == "dilate":
            return out["source_dim"] == dim <= out["dilation_dim"]
        t = [[Fraction(x) for x in row] for row in doc["t"]]
        return out["dim"] == exact.rank(t)


def make(name, workdir):
    if name == "roundtrip":
        return Roundtrip()
    if name == "algebras":
        return Algebras()
    return Cli(workdir)


NAMES = ("roundtrip", "algebras", "cli")
