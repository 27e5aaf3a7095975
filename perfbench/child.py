"""One benchmark pass in a fresh interpreter: set up, run the job list, report.

Started by ``run.py`` with ``OPENBLAS_NUM_THREADS=1`` and ``src`` on the
path.  Jobs run one after another in this single thread (a closed loop with
one client).  The pass prints one JSON object as its last stdout line.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter; ``setup_s`` runs from there until the job list is built and
the golden digests are loaded, so it covers interpreter start, ``import
sonlap`` (numpy included), the job list and the golden file.
"""

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

import numpy

import sonlap
import tracer as tracing
import workloads

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def load_golden(workload: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


# The machine's speed is sampled with a fixed exact-arithmetic kernel that
# does not touch sonlap, at most every CALIB_EVERY_S between jobs.
# CALIB_REF_S is the kernel's time at the reference speed: about the
# fastest state of the 2-core sandbox the benchmark was tuned on.
CALIB_REF_S = 0.0007
CALIB_EVERY_S = 0.2


def calibrate() -> float:
    """Least of three timings of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


def run_jobs(jobs, golden: dict, tracer=None) -> dict:
    """Run every job in order; a job that raises or mismatches its golden
    digest is a failure, and the pass goes on.

    Each job's ``calib_s`` is the mean of the calibration taken before it
    and the one taken after it (the same one when the job was short); its
    ``ref_latencies_s`` entry is the latency scaled to the reference speed.
    """
    clock = time.perf_counter
    digests, latencies, calibs, failures = {}, [], [], []
    eigenvalues = stdout_bytes = 0
    before = tracing.cache_snapshot()
    calib, calib_at = calibrate(), clock()
    for index, (job_id, kind, payload) in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        calib_before = calib
        t0 = clock()
        try:
            digest, latency, facts = workloads.run_job(kind, payload, clock)
        except Exception:  # a job may fail; the pass records it and continues
            digest, latency, facts = None, clock() - t0, {}
            failures.append({"job": job_id, "error": traceback.format_exc(limit=3)})
        if clock() - calib_at >= CALIB_EVERY_S:
            calib, calib_at = calibrate(), clock()
        latencies.append(latency)
        calibs.append((calib_before + calib) / 2)
        if digest is None:
            continue
        digests[job_id] = digest
        eigenvalues += facts.get("eigenvalues", 0)
        stdout_bytes += facts.get("stdout_bytes", 0)
        if digest != golden.get(job_id):
            failures.append({"job": job_id, "error": "output differs from golden"})
    return {
        "latencies_s": latencies,
        "calib_s": calibs,
        "ref_latencies_s": [lat * CALIB_REF_S / cal for lat, cal in zip(latencies, calibs)],
        "digests": digests,
        "failures": failures,
        "eigenvalues": eigenvalues,
        "stdout_bytes": stdout_bytes,
        "caches": tracing.cache_delta(before, tracing.cache_snapshot()),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced pass: write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    expected = os.path.realpath(os.path.join("src", "sonlap"))
    if os.path.dirname(os.path.realpath(sonlap.__file__)) != expected:
        print(f"error: imported {sonlap.__file__}, not the checkout's {expected}", file=sys.stderr)
        return 2
    jobs = workloads.job_list(args.workload, args.seed)
    golden = load_golden(args.workload)
    setup_s = time.monotonic() - args.t0
    setup_calib = calibrate()
    out = {
        "setup_s": setup_s,
        "setup_calib_s": setup_calib,
        "ref_setup_s": setup_s * CALIB_REF_S / setup_calib,
        "job_ids": [job_id for job_id, _, _ in jobs],
        "numpy": numpy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            out.update(run_jobs(jobs, golden, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(
                tracer, out["caches"], out["eigenvalues"], out["stdout_bytes"]
            )
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
