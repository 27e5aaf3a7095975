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
