"""Self-checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. The same seed builds the same job list, and no list repeats an input.
2. A tiny slice of each workload digests identically in two fresh interpreters.
3. A corrupted golden digest makes the pass fail the job (``fail_frac`` > 0).
4. Tracing changes no digest, and uninstalling restores every original.
5. ``BENCHMARK.json`` names exactly the metrics the runner prints.

Exits 1 if any check fails.
"""

import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# cheap jobs, one or more per job kind
TINY = {
    "spectral": ("spectral:so4:so4:3", "spectral:so3:bprime:4", "spectral:so3:btrace:4"),
    "symbolic": (
        "cli:lap --mode generaln --partition 3,1",
        "cli:lap --mode so4 --partition 2,2,1",
        "cli:matrix --mode so3 --basis btrace --k 8 --format csv",
        "cli:characters --mode so4 --j1 3/2 --j2 1/2",
    ),
    "oracle": (
        "oracle:verify --suite laplacian --n 3 --k 4 --samples 10",
        "oracle:verify --suite identities --n 3 --k 4 --samples 5",
    ),
}


def tiny_jobs(workload: str, seed: int = 0) -> list:
    return [job for job in workloads.job_list(workload, seed) if job[0] in TINY[workload]]


def slice_digests(workload: str) -> dict:
    return child.run_jobs(tiny_jobs(workload), child.load_golden(workload))["digests"]


def traced_vs_untraced(workload: str) -> tuple[dict, dict, bool]:
    jobs = tiny_jobs(workload)
    golden = child.load_golden(workload)
    before = {name: getattr(mod, name) for mod, name in _patched_names()}
    plain = child.run_jobs(jobs, golden)["digests"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = child.run_jobs(jobs, golden, tracer)["digests"]
    finally:
        tracer.uninstall()
    restored = all(getattr(mod, name) is before[name] for mod, name in _patched_names())
    return plain, traced, restored and bool(tracer.spans)


def _patched_names():
    from sonlap import flagmatrix, laplacian, numeric

    return [(flagmatrix, "eigenspace_exact"), (flagmatrix, "lap_partition"),
            (laplacian, "lap_partition"), (numeric, "random_son")]


def _fresh(fn, *args):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def main() -> int:
    results = []

    def check(name: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    for workload in workloads.WORKLOADS:
        ids = [job[0] for job in workloads.job_list(workload, 7)]
        check(f"{workload}: same seed, same job list",
              ids == [job[0] for job in workloads.job_list(workload, 7)])
        check(f"{workload}: no input repeats", len(set(ids)) == len(ids))
        check(f"{workload}: every job has a golden digest",
              set(ids) == set(child.load_golden(workload)))

        first = _fresh(slice_digests, workload)
        second = _fresh(slice_digests, workload)
        check(f"{workload}: tiny slice digests identically in two runs",
              len(first) == len(TINY[workload]) and first == second)

        jobs = tiny_jobs(workload)
        corrupted = dict(child.load_golden(workload))
        corrupted[jobs[0][0]] = "0" * 64
        failures = child.run_jobs(jobs, corrupted)["failures"]
        check(f"{workload}: a corrupted golden makes fail_frac > 0",
              [f["job"] for f in failures] == [jobs[0][0]])

        plain, traced, restored = _fresh(traced_vs_untraced, workload)
        check(f"{workload}: tracing changes no digest", plain == traced and len(plain) == len(jobs))
        check(f"{workload}: tracer records spans and restores the originals", restored)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check("BENCHMARK.json per_layer matches the tracer's catalog", per_layer == tracing.CATALOG)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    check("BENCHMARK.json end_to_end lists the runner's metrics",
          end_to_end == ["wall_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"])
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
