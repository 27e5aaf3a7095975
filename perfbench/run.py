"""sonlap benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 40 --trace 0

Each pass is a fresh interpreter (``child.py``) that runs the workload's
whole job list once, one job after another, with OpenBLAS pinned to one
thread.  Passes repeat until the next one would overrun ``--seconds``
(there is always at least one).  Before them, short set-up-only
interpreters sample ``setup_s``; the first of those also compiles the
bytecode and is discarded.

``--trace 0`` reports the end-to-end metrics.  Times are scaled to the
reference speed of a calibration kernel (see ``child.py``).  A job's latency
is its least over the run's passes; ``wall_s`` sums them and ``job_p50_ms``
and ``job_p90_ms`` are their percentiles.  ``setup_s`` and ``peak_rss_mb``
are medians over their samples.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Every job's output is checked against its golden digest;
in trace mode the traced digests must also equal the untraced ones.

The second-to-last stdout line is a JSON detail record (environment stamp,
every pass, cache counts, ``fail_frac``); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0
SPAN_DIR = ".bench_out"


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run_child(args, deadline: float, extra: list[str]) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(t0), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=_child_env(), timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _env_stamp(args, first: dict, job_counts: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "openblas_threads": first["openblas_threads"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "job_counts": job_counts,
    }


def _passes(args, start: float, deadline: float, traced: bool) -> list[dict]:
    """Untraced passes, or (untraced, traced) pairs, until the next would overrun."""
    stop = start + args.seconds
    passes, rounds = [], []
    spans = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    while True:
        if rounds and time.monotonic() + statistics.median(rounds) > stop:
            break
        round_start = time.monotonic()
        passes.append(_run_child(args, deadline, []))
        if traced:
            passes.append(_run_child(args, deadline, ["--trace", "1", "--spans", spans]))
            passes[-1]["traced"] = True
        rounds.append(time.monotonic() - round_start)
    return passes


def _check_passes(passes: list[dict], job_ids: list[str]) -> list[dict]:
    """Failures beyond the per-job golden check: job lists that differ from
    the parent's, and traced digests that differ from the untraced ones."""
    reference = next(p["digests"] for p in passes if not p.get("traced"))
    extra = []
    for index, p in enumerate(passes):
        for failure in p["failures"]:
            failure["pass"] = index
        if p["job_ids"] != job_ids:
            raise BenchError(f"pass {index}: the same seed built a different job list")
        if p.get("traced"):
            for job_id, digest in p["digests"].items():
                if reference.get(job_id) != digest:
                    extra.append({"pass": index, "job": job_id, "error": "traced digest differs"})
    return extra


def best_latencies(passes: list[dict]) -> list[float]:
    """Each job's least reference-speed latency over the passes.

    The child scales every latency to the reference speed of its calibration
    kernel, which removes most of the shared machine's speed drift.  Every
    pass repeats the same work on the same job list in a fresh interpreter,
    so a slower repeat measured the machine, not the program.
    """
    return [min(times) for times in zip(*(p["ref_latencies_s"] for p in passes))]


def hd_quantile(values: list[float], p: float, sub: int = 4) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics, so
    the estimate does not jump between neighbouring jobs of very different
    sizes the way a single order statistic does on the 40-job ``spectral``
    and 20-job ``oracle`` lists.  Each weight, a Beta-density integral over
    ((i-1)/n, i/n), is taken by the midpoint rule on ``sub`` points.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logs = [
        (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        for x in ((i + (s + 0.5) / sub) / n for i in range(n) for s in range(sub))
    ]
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * sub:(i + 1) * sub]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main() -> int:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    if not os.path.isfile(os.path.join("src", "sonlap", "__init__.py")):
        print("error: run from the repository root; src/sonlap is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import tracer
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    lists = {name: workloads.job_list(name, args.seed) for name in workloads.WORKLOADS}
    job_counts = {name: len(jobs) for name, jobs in lists.items()}
    try:
        probes = [_run_child(args, deadline, ["--setup-only"]) for _ in range(SETUP_PROBES + 1)]
        probes = probes[1:]  # the first compiled the bytecode
        if args.trace:
            os.makedirs(SPAN_DIR, exist_ok=True)
        passes = _passes(args, start, deadline, bool(args.trace))
        extra_failures = _check_passes(passes, [job[0] for job in lists[args.workload]])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["job_ids"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]] + extra_failures
    failed = len({(f["pass"], f["job"]) for f in failures})
    plain = [p for p in passes if not p.get("traced")]
    traced = [p for p in passes if p.get("traced")]
    wall = sum(best_latencies(plain))

    if args.trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
        }
        metrics["bench.trace_overhead_frac"] = sum(best_latencies(traced)) / wall - 1
        if set(metrics) != set(tracer.CATALOG):
            print("error: traced metrics differ from the catalog", file=sys.stderr)
            return 1
        metrics = {
            name: {"value": value, "unit": tracer.CATALOG[name][0]} for name, value in metrics.items()
        }
    else:
        latencies_ms = [1000 * x for x in best_latencies(plain)]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_ms": {"value": hd_quantile(latencies_ms, 0.5), "unit": "ms"},
            "job_p90_ms": {"value": hd_quantile(latencies_ms, 0.9), "unit": "ms"},
            "setup_s": {
                "value": statistics.median(p["ref_setup_s"] for p in probes + plain),
                "unit": "s",
            },
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": _env_stamp(args, probes[0], job_counts),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "passes": [
            {
                "traced": bool(p.get("traced")),
                "jobs_s": sum(p["latencies_s"]),
                "calib_ms": 1000 * statistics.median(p["calib_s"]),
                "setup_s": p["setup_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "failed": len(p["failures"]),
                "caches": p["caches"],
            }
            for p in passes
        ],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
