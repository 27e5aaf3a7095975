"""Record the golden per-job digests from the current program.

Run from the repository root, only when an output change is intended:

    PYTHONPATH=src python3 perfbench/record_golden.py

Every job of every workload runs once, untraced, and its digest is written
to ``perfbench/golden/<workload>.json``.  The inputs do not depend on the
seed (it only orders the jobs and picks the oracle's sample seeds, which
the oracle digest leaves out), so one file serves every seed.
"""

import json
import os
import time

import workloads
from child import GOLDEN_DIR


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        digests = {}
        for job_id, kind, payload in workloads.job_list(workload, 0):
            digests[job_id] = workloads.run_job(kind, payload, time.perf_counter)[0]
        with open(os.path.join(GOLDEN_DIR, f"{workload}.json"), "w") as fh:
            json.dump(dict(sorted(digests.items())), fh, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(digests)} jobs")


if __name__ == "__main__":
    main()
