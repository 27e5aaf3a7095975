"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions named in ``SPANNED`` and the
arithmetic methods named in ``COUNTED`` in every ``sonlap`` module namespace
that bound them, so calls made inside the package (``lap_partition`` from
``flagmatrix``, ``eigenspace_exact`` from ``match_characters``) are seen as
well as the benchmark's own.  ``uninstall()`` restores the originals.

Spans are kept in memory as ``(name, parent, job, start, end)`` tuples and
turned into metrics once, at the end; a span's self time is its duration
minus the durations of the spans directly inside it.  Arithmetic dunders
are hot, so they are counted, not spanned.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import wraps

from sonlap import laplacian, npoly, partitions, tracepoly

# module -> function names wrapped in a span
SPANNED = {
    "flagmatrix": (
        "build_matrix", "coordinates", "coordinates_general", "eigenvalues_exact",
        "eigenspace_exact", "match_characters", "character_so3", "character_so4",
        "matrix_to_json", "matrix_to_csv", "matrix_to_latex", "matrix_to_pretty",
    ),
    "laplacian": ("lap_partition", "lap"),
    "numeric": (
        "euclid_derivatives", "euclid_derivatives_matrix", "laplace_beltrami_value",
        "structure_matrices", "random_son", "eval_tracepoly", "verify_partition",
        "verify_gegenbauer", "verify_identities",
    ),
    "cli": ("main",),
}

# (class, metric name, method names sharing one counter)
COUNTED = (
    (npoly.NPoly, "npoly.NPoly.add", ("__add__", "__radd__")),
    (npoly.NPoly, "npoly.NPoly.mul", ("__mul__", "__rmul__")),
    (tracepoly.TracePoly, "tracepoly.TracePoly.add", ("__add__", "__radd__")),
    (tracepoly.TracePoly, "tracepoly.TracePoly.mul", ("__mul__", "__rmul__")),
    (partitions.Partition, "partitions.Partition.concat", ("concat",)),
)

# (class, method) wrapped in a span
SPANNED_METHODS = ((tracepoly.TracePoly, "reduce"), (tracepoly.TracePoly, "substitute_n"))

# every lru_cache'd closed form, by metric prefix
CACHES = {
    "tracepoly.so3_pm_in_p1": tracepoly.so3_pm_in_p1,
    "tracepoly.so4_pm_in_p1p2": tracepoly.so4_pm_in_p1p2,
    "laplacian.lap_partition": laplacian.lap_partition,
    "laplacian.lap_pm": laplacian.lap_pm,
    "laplacian.lap_p1_pow": laplacian.lap_p1_pow,
    "laplacian.so3_lap_power": laplacian.so3_lap_power,
    "laplacian.so4_lap_monomial": laplacian.so4_lap_monomial,
}

def cache_snapshot() -> dict:
    return {name: fn.cache_info()[:2] for name, fn in CACHES.items()}


def cache_delta(before: dict, after: dict) -> dict:
    """Hits and misses per cache between two snapshots."""
    return {
        name: {"hits": after[name][0] - before[name][0], "misses": after[name][1] - before[name][1]}
        for name in CACHES
    }


# numeric functions that build dense n^2 x n^2 Hessians, and how many per call
_HESSIAN_BUILDERS = ("euclid_derivatives_matrix", "verify_gegenbauer", "verify_identities")


def _hess_bytes(signature, args, kwargs) -> int:
    """n^4 * 8 bytes per dense Hessian the call builds (computed, not measured).

    ``euclid_derivatives_matrix`` builds one per call; the Gegenbauer suite
    and the sphere-restriction identity build one explicitly per sample.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    arguments = bound.arguments
    if "u" in arguments:
        return len(arguments["u"]) ** 4 * 8
    return arguments["samples"] * arguments["n"] ** 4 * 8


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.max_bits = 0
        self.hess_bytes = 0
        self.job = -1
        self._stack = [-1]
        self._restore: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        bits = name == "flagmatrix.eigenspace_exact"
        hess = None
        if name.startswith("numeric.") and name.split(".", 1)[1] in _HESSIAN_BUILDERS:
            hess = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if hess is not None:
                tracer.hess_bytes += _hess_bytes(hess, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, tracer.job, start, end)
            if bits:
                tracer.max_bits = max(
                    tracer.max_bits,
                    max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                         for vec in result for x in vec), default=0),
                )
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "sonlap" or key.startswith("sonlap.")]
        for short, names in SPANNED.items():
            home = sys.modules[f"sonlap.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for cls, method in SPANNED_METHODS:
            short = cls.__module__.rsplit(".", 1)[-1]
            self._patch(cls, method, self._span(f"{short}.{cls.__name__}.{method}", vars(cls)[method]))
        for cls, name, methods in COUNTED:
            for method in methods:
                self._patch(cls, method, self._counter(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span once, as JSON lines."""
        with open(path, "w") as fh:
            for index, (name_id, parent, job, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "job": job,
                    "name": self.names[name_id], "start": start, "end": end,
                }) + "\n")

    def layer_totals(self) -> dict[str, dict]:
        """calls and self_s per span name."""
        child_time = [0.0] * len(self.spans)
        for name_id, parent, job, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for index, (name_id, parent, job, start, end) in enumerate(self.spans):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
        return totals


# ---------------------------------------------------------------------------
# per-layer metrics

# span name -> the totals reported for it
_SPAN_METRICS = {
    "flagmatrix.eigenspace_exact": ("calls", "self_s"),
    "flagmatrix.eigenvalues_exact": ("self_s",),
    "flagmatrix.match_characters": ("self_s",),
    "flagmatrix.character_so3": ("self_s",),
    "flagmatrix.character_so4": ("self_s",),
    "tracepoly.TracePoly.reduce": ("calls", "self_s"),
    "flagmatrix.build_matrix": ("calls", "self_s"),
    "flagmatrix.coordinates": ("self_s",),
    "flagmatrix.coordinates_general": ("self_s",),
    "laplacian.lap_partition": ("calls", "self_s"),
    "laplacian.lap": ("calls", "self_s"),
    "tracepoly.TracePoly.substitute_n": ("self_s",),
    "numeric.euclid_derivatives": ("calls", "self_s"),
    "numeric.euclid_derivatives_matrix": ("calls", "self_s"),
    "numeric.laplace_beltrami_value": ("calls", "self_s"),
    "numeric.structure_matrices": ("calls", "self_s"),
    "numeric.random_son": ("calls", "self_s"),
    "numeric.eval_tracepoly": ("self_s",),
    "numeric.verify_partition": ("self_s",),
    "numeric.verify_gegenbauer": ("self_s",),
    "numeric.verify_identities": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
_RENDERERS = tuple(f"flagmatrix.{name}" for name in SPANNED["flagmatrix"] if name.startswith("matrix_to_"))



def _catalog() -> dict[str, tuple[str, str]]:
    catalog = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            catalog[f"{span}.{kind}"] = ("count", "lower") if kind == "calls" else ("s", "lower")
    catalog.update({
        "flagmatrix.eigenspace_exact.calls_per_eigenvalue": ("ratio", "lower"),
        "flagmatrix.eigenspace_exact.max_bits": ("bits", "lower"),
        "flagmatrix.render.self_s": ("s", "lower"),
        "numeric.hess_bytes_computed": ("bytes", "lower"),
        "cli.stdout_bytes": ("bytes", "lower"),
        "bench.trace_overhead_frac": ("ratio", "lower"),
    })
    for cache in CACHES:
        catalog[f"{cache}.hit_ratio"] = ("ratio", "higher")
        catalog[f"{cache}.hits"] = ("count", "higher")
        catalog[f"{cache}.misses"] = ("count", "lower")
    for _, name, _ in COUNTED:
        catalog[f"{name}.calls"] = ("count", "lower")
    return catalog


# per-layer metric name -> (unit, better), as listed in BENCHMARK.json
CATALOG = _catalog()


def layer_metrics(tracer: Tracer, caches: dict, eigenvalues: int, stdout_bytes: int) -> dict:
    """Every per-layer metric except ``bench.trace_overhead_frac``."""
    totals = tracer.layer_totals()
    values = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            values[f"{span}.{kind}"] = totals[span][kind]
    eig_calls = totals["flagmatrix.eigenspace_exact"]["calls"]
    values["flagmatrix.eigenspace_exact.calls_per_eigenvalue"] = eig_calls / eigenvalues if eigenvalues else 0.0
    values["flagmatrix.eigenspace_exact.max_bits"] = tracer.max_bits
    values["flagmatrix.render.self_s"] = sum(totals[name]["self_s"] for name in _RENDERERS)
    values["numeric.hess_bytes_computed"] = tracer.hess_bytes
    values["cli.stdout_bytes"] = stdout_bytes
    for name, info in caches.items():
        looked_up = info["hits"] + info["misses"]
        values[f"{name}.hit_ratio"] = info["hits"] / looked_up if looked_up else 0.0
        values[f"{name}.hits"] = info["hits"]
        values[f"{name}.misses"] = info["misses"]
    for name, count in tracer.counts.items():
        values[f"{name}.calls"] = count
    return values
