"""The benchmark's tracer wraps ``sonlap`` functions by name and reads their
parameters; a rename or a changed signature would only crash a traced run.
These checks load ``perfbench/tracer.py`` without modifying it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from sonlap import Partition

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve(tracer):
    for short, names in tracer.SPANNED.items():
        module = importlib.import_module(f"sonlap.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sonlap.{short}.{name}"


def test_hessian_builders_bind_what_hess_bytes_reads(tracer):
    from sonlap import numeric

    calls = {
        "euclid_derivatives_matrix": ((Partition.of(2), np.eye(3)), {}, 3**4 * 8),
        "verify_gegenbauer": ((4, 2, 1, 1), {"samples": 3}, 3 * 4**4 * 8),
        "verify_identities": ((5,), {"samples": 2}, 2 * 5**4 * 8),
    }
    for name in tracer._HESSIAN_BUILDERS:
        assert name in calls, f"no example call for {name}"
        args, kwargs, expected = calls[name]
        signature = inspect.signature(getattr(numeric, name))
        assert tracer._hess_bytes(signature, args, kwargs) == expected


def test_caches_expose_cache_info(tracer):
    for name, fn in tracer.CACHES.items():
        hits, misses, _, _ = fn.cache_info()
        assert hits >= 0 and misses >= 0, name
    snapshot = tracer.cache_snapshot()
    assert set(snapshot) == set(tracer.CACHES)
    assert all(len(counts) == 2 for counts in snapshot.values())


def test_flag_matrices_read_the_cached_closed_forms(tracer):
    """The SO(3)/SO(4) matrices reach these caches through the per-monomial
    dispatch, and ``reduce`` reaches the p_m tables, so their hit counts
    still describe the benchmark's work."""
    from sonlap import SO3, SO4, TracePoly, build_matrix, general_at

    before = tracer.cache_snapshot()
    build_matrix(SO3, "bprime", 3)
    build_matrix(SO4, "so4", 3)
    delta = tracer.cache_delta(before, tracer.cache_snapshot())
    for name in ("laplacian.so3_lap_power", "laplacian.so4_lap_monomial"):
        assert delta[name]["hits"] + delta[name]["misses"] >= 4, name
    for mode, name in ((SO3, "tracepoly.so3_pm_in_p1"), (SO4, "tracepoly.so4_pm_in_p1p2")):
        before = tracer.cache_snapshot()
        TracePoly.power_sum(5, general_at(mode.n)).reduce(mode)
        delta = tracer.cache_delta(before, tracer.cache_snapshot())
        assert delta[name]["hits"] + delta[name]["misses"] >= 1, name
