"""Record the reference digests of the default seed's outputs.

    python3 perfbench/record_digests.py

Runs the first operations of each workload on the default seed and
writes the digest of every checked output to reference_digests.json
(null where the operation fails).  Run it only on a commit whose outputs
are the reference: later runs of the default seed compare against it.
"""

import json
import shutil
import sys
import tempfile

import run

COUNTS = {"roundtrip": 130, "algebras": 160, "cli": 1000}


def main():
    run.import_library()
    import workloads

    digests = {}
    for name in workloads.NAMES:
        workdir = tempfile.mkdtemp(prefix=f".perfbench-{name}-", dir=run.ROOT)
        try:
            workload = workloads.make(name, workdir)
            jobs = run.job_stream(workload, run.DEFAULT_SEED, "r")
            recorder = run.Pass(workload, record=True)
            for _ in range(COUNTS[name]):
                recorder.one(next(jobs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        recorder.report(f"{name} seed={run.DEFAULT_SEED}")
        digests[name] = recorder.record
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")
    print(f"wrote {run.DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
