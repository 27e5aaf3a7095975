"""Job lists, job execution and output digests for the three workloads.

A job is ``(job_id, kind, payload)``.  The seed only fixes the order of the
job list (a seeded shuffle) and, on ``oracle``, the ``--seed`` passed to
each ``verify`` call; the set of inputs is the same for every seed, so one
golden digest per job id serves all seeds.

Library calls go through the module attribute (``flagmatrix.build_matrix``,
never a name imported into this module), so the traced run's wrappers see
the benchmark's own calls as well as the calls made inside ``sonlap``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from sonlap import cli, flagmatrix
from sonlap.partitions import enumerate_upto
from sonlap.tracepoly import GENERAL, SO3, SO4

WORKLOADS = ("spectral", "symbolic", "oracle")

_GROUPS = {"so3": SO3, "so4": SO4}


def _spectral_jobs() -> list[tuple]:
    jobs = [(f"spectral:so4:so4:{k}", "spectral", ("so4", "so4", k)) for k in range(1, 9)]
    for basis in ("bprime", "btrace"):
        jobs += [
            (f"spectral:so3:{basis}:{k}", "spectral", ("so3", basis, k)) for k in range(1, 17)
        ]
    return jobs


def _spin(twice: int) -> str:
    return str(Fraction(twice, 2))


def _symbolic_jobs() -> list[tuple]:
    argvs = []
    for mode, top in (("generaln", 12), ("so3", 10), ("so4", 10)):
        argvs += [["lap", "--mode", mode, "--partition", p.serialize()] for p in enumerate_upto(top)]
    matrices = [("so3", basis, k) for basis in ("bprime", "btrace") for k in (8, 16, 24)]
    matrices += [("so4", "so4", k) for k in (4, 8, 12)]
    for mode, basis, k in matrices:
        for fmt in ("json", "csv", "latex", "pretty"):
            argvs.append(["matrix", "--mode", mode, "--basis", basis, "--k", str(k), "--format", fmt])
    argvs += [["characters", "--mode", "so3", "--k", str(k)] for k in range(31)]
    # one label per unordered spin pair: the mirror label is the same function
    for k1 in range(13):
        for k2 in range(k1 % 2, k1 + 1, 2):
            if k1 + k2 <= 12:
                argvs.append(["characters", "--mode", "so4", "--j1", _spin(k1), "--j2", _spin(k2)])
    jobs = [("cli:" + " ".join(argv), "cli", tuple(argv)) for argv in argvs]
    jobs.append(("lib:build_matrix:general:16", "general_matrix", 16))
    return jobs


def _oracle_params() -> list[list[str]]:
    params = [["laplacian", n, 4, 10] for n in (3, 4, 5, 6, 8, 10, 14, 20)]
    params.append(["laplacian", 40, 2, 2])
    params += [["gegenbauer", n, 6, 20] for n in (3, 4, 6, 10, 16, 20)]
    params += [["identities", n, 4, 5] for n in (3, 4, 5, 6, 8)]
    return [
        ["verify", "--suite", suite, "--n", str(n), "--k", str(k), "--samples", str(samples)]
        for suite, n, k, samples in params
    ]


def _oracle_seed(seed: int, job_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{job_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _oracle_jobs(seed: int) -> list[tuple]:
    jobs = []
    for argv in _oracle_params():
        job_id = "oracle:" + " ".join(argv)
        jobs.append((job_id, "oracle", (tuple(argv), _oracle_seed(seed, job_id))))
    return jobs


def job_list(workload: str, seed: int) -> list[tuple]:
    """The run's job list: every input once, in an order fixed by ``seed``."""
    if workload == "spectral":
        jobs = _spectral_jobs()
    elif workload == "symbolic":
        jobs = _symbolic_jobs()
    elif workload == "oracle":
        jobs = _oracle_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ids = [job_id for job_id, _, _ in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{workload}: the job list repeats an input")
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# execution


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _spectral(payload):
    group, basis, k = payload
    matrix = flagmatrix.build_matrix(_GROUPS[group], basis, k)
    spectrum = flagmatrix.eigenvalues_exact(matrix)
    spaces = [flagmatrix.eigenspace_exact(matrix, e.eigenvalue) for e in spectrum]
    matches = flagmatrix.match_characters(matrix)
    return spectrum, spaces, matches


def _spectral_digest(result) -> str:
    spectrum, spaces, matches = result
    obj = {
        "spectrum": [[str(e.eigenvalue), list(e.labels), e.geometric_multiplicity] for e in spectrum],
        "spaces": [[[str(x) for x in vec] for vec in space] for space in spaces],
        "characters": [
            [str(entry.eigenvalue), ch.group, [str(x) for x in ch.label], ch.poly.to_json_obj()]
            for entry, ch in matches
        ],
    }
    return _sha(json.dumps(obj, sort_keys=True, default=str))


def _general_matrix_digest(matrix) -> str:
    nonzero = [
        f"{i},{j},{v}"
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v
    ]
    return _sha(f"dim={matrix.dim}\n" + "\n".join(nonzero))


def _oracle_digest(code: int, stdout: str, seed: int) -> str:
    """Structure of the verify reports; float error values are left out."""
    reports = json.loads(stdout)
    for report in reports:
        if report["seed"] != seed:
            raise ValueError(f"report seed {report['seed']} != requested {seed}")
    keys = ("target", "n", "params", "samples", "tol", "pass")
    shape = [{key: report[key] for key in keys} for report in reports]
    return _sha(json.dumps({"exit": code, "reports": shape}, sort_keys=True))


def run_job(kind: str, payload, timer) -> tuple[str, float, dict]:
    """Run one job; return (digest, latency_s, facts).

    Latency covers the library or CLI call only; the digest is taken after.
    ``facts`` carries counts the traced run needs: eigenvalues extracted by
    the job and CLI stdout bytes.
    """
    facts = {}
    if kind == "spectral":
        t0 = timer()
        result = _spectral(payload)
        latency = timer() - t0
        facts["eigenvalues"] = len(result[0])
        return _spectral_digest(result), latency, facts
    if kind == "general_matrix":
        t0 = timer()
        matrix = flagmatrix.build_matrix(GENERAL, "general", payload)
        latency = timer() - t0
        return _general_matrix_digest(matrix), latency, facts
    if kind == "cli":
        t0 = timer()
        code, out = _run_cli(payload)
        latency = timer() - t0
        facts["stdout_bytes"] = len(out.encode())
        return _sha(f"{code}\n{out}"), latency, facts
    if kind == "oracle":
        argv, seed = payload
        t0 = timer()
        code, out = _run_cli(list(argv) + ["--seed", str(seed)])
        latency = timer() - t0
        facts["stdout_bytes"] = len(out.encode())
        return _oracle_digest(code, out, seed), latency, facts
    raise ValueError(f"unknown job kind {kind!r}")
