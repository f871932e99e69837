"""Benchmark of hopf-partial: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload roundtrip --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
next to this directory.  Operations run back to back for ``--seconds``
(and at least ``MIN_OPS`` of them, ending on a whole number of the
workload's input cycles) on inputs generated from ``--seed``; each output
is checked outside the timed region.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` a fixed number of operations runs twice on equal inputs,
first plain and then with every layer wrapped in spans, and the metrics
are the per-layer ones; counts in them repeat exactly for a seed.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "reference_digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 0
MIN_OPS = 100          # so that ten latencies lie beyond the 90th percentile
MAX_LOOP_S = 120       # hard stop for the timed loop, whatever --seconds says
SETUP_SAMPLES = 21     # set-up samples, spread over the loop

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import hopf_partial\n"
    "for name in sys.argv[2:]:\n"
    "    hopf_partial.builtin(name)\n"
    "print(repr(time.perf_counter() - t0))\n")


def import_library():
    """Import hopf_partial from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "hopf_partial", "__init__.py")):
        print(f"error: no library source at {SRC}/hopf_partial", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import hopf_partial
    if os.path.dirname(os.path.dirname(os.path.abspath(hopf_partial.__file__))) != SRC:
        print(f"error: hopf_partial was imported from {hopf_partial.__file__}",
              file=sys.stderr)
        sys.exit(2)


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all the order statistics, the i-th of n weighted by
    the mass of Beta((n+1)p, (n+1)(1-p)) on [(i-1)/n, i/n].  The sample
    quantile is one or two order statistics; when a workload's latencies
    fall into clusters, one per kind of input, it sits on the edge of a
    gap between two of them and jumps with the slowest or fastest single
    operation there.  This estimate averages the order statistics near it.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    fine = 32                      # midpoint-rule steps per order statistic
    steps = fine * n
    cdf, acc = [0.0], 0.0
    for j in range(steps):
        x = (j + 0.5) / steps
        acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        if (j + 1) % fine == 0:
            cdf.append(acc)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / cdf[-1]


def digest(payload):
    from workloads import canon
    text = json.dumps(canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_references(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def setup_seconds(hopf_names):
    """Time to import the library and build the workload's builtins in a
    fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *hopf_names],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


class Pass:
    """Runs operations one after another and checks each output untimed.

    ``failed`` counts every failed operation: an exception raised by the
    library, or a returned output that is wrong.  An exception that the
    workload declares a known defect (``known_failure``) is not a failure:
    it is tallied in ``known`` and reported on standard error, so that the
    defect stays visible while the run stays correct.
    """

    def __init__(self, workload, references=None, record=False):
        self.workload = workload
        self.references = references
        self.record = [] if record else None
        self.latencies = []
        self.failed = 0
        self.known = 0
        self.digests_compared = 0
        self.errors = {}
        self.seen = set()
        self.repeats = 0

    def one(self, job, before=None, after=None):
        k = len(self.latencies)
        key = self.workload.repeat_key(job)
        self.repeats += key in self.seen
        self.seen.add(key)
        if before:
            before(k)
        t0 = time.perf_counter()
        try:
            out, exc = self.workload.run(job), None
        except Exception as caught:  # an exception is a failed operation
            out, exc = None, caught
        self.latencies.append(time.perf_counter() - t0)
        if after:
            after(k)
        known = exc is not None and self.workload.known_failure(job, exc)
        if exc is not None:
            error = f"{type(exc).__name__}: {exc}"
        else:
            try:
                ok, payload = self.workload.check(job, out)
            except Exception as bad:
                ok, payload, error = False, None, f"check raised {type(bad).__name__}: {bad}"
            else:
                error = None if ok else "output check failed"
        if error is None:
            ok = self._compare_digest(k, payload)
            error = None if ok else "output differs from the reference digest"
        if self.record is not None:
            self.record.append(digest(payload) if error is None else None)
        if error is not None:
            self.known += known
            self.failed += not known
            label = ("known defect, " if known else "") + error.splitlines()[0][:200]
            self.errors.setdefault(label, []).append(k)

    def _compare_digest(self, k, payload):
        refs = self.references
        if not refs or k >= len(refs) or refs[k] is None:
            return True
        self.digests_compared += 1
        return digest(payload) == refs[k]

    def report(self, label):
        n = len(self.latencies)
        print(f"[{label}] ops={n} failed={self.failed} known_defects={self.known}"
              f" repeated_inputs={self.repeats}/{n}"
              f" digests_compared={self.digests_compared}", file=sys.stderr)
        for error, ops in self.errors.items():
            print(f"  {len(ops)} x {error} (first at op {ops[0]})", file=sys.stderr)


def job_stream(workload, seed, tag):
    stream = workload.stream(seed)
    for k, item in enumerate(stream):
        yield workload.prepare(item, f"{tag}{k}")


def _clear_cache():
    from hopf_partial.dilation import standard_dilation
    standard_dilation.cache_clear()


def run_untraced(workload, seed, seconds, min_ops=MIN_OPS, cycle=None,
                 setup_samples=SETUP_SAMPLES, references=None):
    """Closed loop for ``seconds`` of timed work; returns ([pass], metrics).

    The loop ends on a multiple of ``cycle`` operations (the workload's
    input cycle), so a faster library runs more whole cycles of the same
    mix rather than a different mix.  Between operations, untimed, a
    set-up sample is taken after every ``seconds / setup_samples`` of
    timed work, so the samples are spread over the run rather than taken
    in one burst.
    """
    cycle = cycle or workload.cycle
    jobs = job_stream(workload, seed, "u")
    _clear_cache()
    run = Pass(workload, references)
    setup = []
    timed = 0.0
    start = time.perf_counter()
    while ((timed < seconds or len(run.latencies) < min_ops or len(run.latencies) % cycle)
           and time.perf_counter() - start < MAX_LOOP_S):
        run.one(next(jobs))
        timed += run.latencies[-1]
        if len(setup) < setup_samples and timed >= seconds * len(setup) / setup_samples:
            setup.append(setup_seconds(workload.hopf_names))
    while len(setup) < setup_samples:
        setup.append(setup_seconds(workload.hopf_names))
    run.report(f"{workload.name} seed={seed}")
    lat = sorted(run.latencies)
    n = len(lat)
    ok = n - run.failed
    metrics = {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (harrell_davis(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (harrell_davis(lat, 0.9) * 1e3, "ms"),
        "ok_ratio": (ok / n, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [run], metrics


def run_traced(workload, seed, n_ops=None, references=None, write_spans=True):
    """The same operations untraced, then traced; returns (passes, metrics)."""
    from bench_trace import Tracer
    from hopf_partial.dilation import standard_dilation

    n_ops = n_ops or workload.trace_ops
    tracer = Tracer()

    def start(k):
        tracer.op, tracer.active = k, True

    def stop(k):
        tracer.active = False

    passes = []
    for label in ("plain", "traced"):
        jobs = job_stream(workload, seed, label[0])
        batch = [next(jobs) for _ in range(n_ops)]
        _clear_cache()
        run = Pass(workload, references)
        if label == "traced":
            tracer.install()
        try:
            for job in batch:
                run.one(job, start, stop)
        finally:
            tracer.uninstall()
        run.report(f"{workload.name} seed={seed} {label}")
        passes.append(run)
    plain, traced = passes
    info = standard_dilation.cache_info()
    lookups = info.hits + info.misses
    metrics = tracer.summary(n_ops)
    metrics["dilation.cache_lookups"] = (lookups / n_ops, "count")
    metrics["dilation.cache_hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    metrics["cli.known_defects"] = (traced.known / n_ops, "count")
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(plain.latencies), "ratio")
    if write_spans:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path}", file=sys.stderr)
    return passes, metrics


def result_line(passes, metrics):
    return json.dumps({
        "correct": not any(p.failed for p in passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("roundtrip", "algebras", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    import workloads

    workdir = tempfile.mkdtemp(prefix=f".perfbench-{args.workload}-", dir=ROOT)
    try:
        workload = workloads.make(args.workload, workdir)
        references = load_references(args.workload, args.seed)
        if args.trace:
            passes, metrics = run_traced(workload, args.seed, references=references)
        else:
            passes, metrics = run_untraced(workload, args.seed, args.seconds,
                                        references=references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(passes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
