"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

run.import_library()

import bench_inputs  # noqa: E402  (needs the library on sys.path)
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, workdir):
    workload = workloads.make(name, workdir)
    refs = run.load_references(name, run.DEFAULT_SEED)
    passes, metrics = run.run_untraced(workload, run.DEFAULT_SEED, 0.01, min_ops=3,
                                       cycle=3, setup_samples=2, references=refs)
    line = json.loads(run.result_line(passes, metrics))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["attempted"] == 3 and line["correct"]
    assert passes[0].digests_compared == 3


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(name, workdir):
    workload = workloads.make(name, workdir)
    refs = run.load_references(name, run.DEFAULT_SEED)
    passes, metrics = run.run_traced(workload, run.DEFAULT_SEED, n_ops=2,
                                     references=refs, write_spans=False)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("per_layer")
    assert [p.digests_compared for p in passes] == [2, 2]
    assert metrics["linalg.calls"][0] > 0


def test_traced_counts_repeat_exactly(workdir):
    workload = workloads.make("cli", workdir)
    counts = []
    for _ in range(2):
        _, metrics = run.run_traced(workload, 3, n_ops=8, write_spans=False)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit != "ms" and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]


def test_tracing_is_removed_after_a_traced_run(workdir):
    from hopf_partial import dilation, linalg
    before = (linalg.Mat.__mul__, linalg.rank, dilation.standard_dilation)
    run.run_traced(workloads.make("roundtrip", workdir), 0, n_ops=1, write_spans=False)
    assert (linalg.Mat.__mul__, linalg.rank, dilation.standard_dilation) == before


class Raising(workloads.Roundtrip):
    def run(self, module):
        raise ValueError("boom")


class WrongOutput(workloads.Roundtrip):
    def check(self, module, out):
        return False, out


@pytest.mark.parametrize("workload", [Raising(), WrongOutput()])
def test_failures_make_the_run_incorrect(workload):
    check = run.Pass(workload)
    check.one(next(bench_inputs.roundtrip_modules(0)))
    assert (check.failed, check.known, len(check.latencies)) == (1, 0, 1)
    assert json.loads(run.result_line([check], {}))["correct"] is False


def test_the_known_cli_defect_is_tallied_but_not_failed(workdir):
    workload = workloads.make("cli", workdir)
    docs = bench_inputs.cli_documents(0)
    by_kind = {}
    for item in (next(docs) for _ in range(480)):
        by_kind.setdefault(item[3], item)
    check = run.Pass(workload)
    for kind in ("dim-not-integer", "valid"):
        check.one(workload.prepare(by_kind[kind], kind))
    assert (check.failed, check.known) == (0, 1)
    assert list(check.errors)[0].startswith("known defect, ValueError")
    assert json.loads(run.result_line([check], {}))["correct"] is True
    assert not workload.known_failure(workload.prepare(by_kind["valid"], "v"),
                                      ValueError("x"))


def test_untraced_run_ends_on_a_whole_cycle(workdir):
    workload = workloads.make("cli", workdir)
    passes, _ = run.run_untraced(workload, 1, 0.0, min_ops=5, cycle=4, setup_samples=1)
    assert len(passes[0].latencies) == 8


def test_cli_mix_keeps_the_non_integer_dim_document():
    docs = bench_inputs.cli_documents(0)
    mix = [next(docs) for _ in range(480)]
    kinds = [kind for _, _, _, kind in mix]
    assert kinds.count("invalid") == 72 and kinds.count("valid") == 384
    non_integer = [(verb, text, expect) for verb, text, expect, kind in mix
                   if kind == "dim-not-integer"]
    assert non_integer and all(expect == 2 and json.loads(text)["dim"] == "x"
                               for _, text, expect in non_integer)


def test_inputs_repeat_for_a_seed():
    first = [m.pi for m, _ in zip(bench_inputs.roundtrip_modules(5), range(6))]
    again = [m.pi for m, _ in zip(bench_inputs.roundtrip_modules(5), range(6))]
    other = [m.pi for m, _ in zip(bench_inputs.roundtrip_modules(6), range(6))]
    assert first == again != other


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


def test_harrell_davis_median_sits_between_two_equal_clusters():
    assert run.harrell_davis([5.0] * 7, 0.5) == pytest.approx(5.0)
    assert run.harrell_davis([1.0] * 6 + [10.0] * 6, 0.5) == pytest.approx(5.5)
    assert run.harrell_davis(range(100), 0.9) == pytest.approx(89.1, abs=0.5)
