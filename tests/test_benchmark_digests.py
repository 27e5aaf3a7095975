"""Every benchmark job reproduces its golden output digest.

The benchmark rejects a change whose outputs differ from the recorded
digests; this runs each workload's job list once, at seed 1, so the same
byte-identity contract is checked by the test suite.  ``perfbench/
workloads.py`` and the golden files are loaded without modifying them.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["spectral", "symbolic", "oracle"])
def test_every_job_matches_its_golden_digest(workloads, workload):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())
    jobs = workloads.job_list(workload, 1)
    assert sorted(job_id for job_id, _, _ in jobs) == sorted(golden)
    mismatched = [
        job_id
        for job_id, kind, payload in jobs
        if workloads.run_job(kind, payload, time.perf_counter)[0] != golden[job_id]
    ]
    assert not mismatched, mismatched
