"""Property tests of the reduced modes SO(3) and SO(4) on random small
trace polynomials: ``reduce`` is a ring homomorphism and idempotent, and the
Laplacian is linear and commutes with ``reduce``.  In symbolic general mode
too, the Laplacian is a second-order operator that kills constants.  In
every mode the JSON form round-trips, and the grouped monomial Laplacian
equals the plain product rule on partitions of degree up to 16."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonlap import (
    GENERAL,
    SO3,
    SO4,
    NPoly,
    Partition,
    TracePoly,
    general_at,
    lap,
    lap_partition,
)
from refdata import lap_partition_product_rule, tracepoly_from_json

PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True)

modes = st.sampled_from([SO3, SO4])
partitions = st.lists(st.integers(1, 4), max_size=3).map(lambda parts: Partition.of(*parts))
coefficients = st.fractions(-5, 5, max_denominator=4)


@st.composite
def mode_and_polys(draw, count: int):
    """A reduced mode and ``count`` random polynomials at its dimension, unreduced."""
    mode = draw(modes)
    polys = [
        TracePoly(draw(st.dictionaries(partitions, coefficients, max_size=4)), general_at(mode.n))
        for _ in range(count)
    ]
    return mode, polys


@PROPERTIES
@given(mode_and_polys(2))
def test_reduce_is_multiplicative(case):
    mode, (a, b) = case
    assert (a * b).reduce(mode) == a.reduce(mode) * b.reduce(mode)


@PROPERTIES
@given(mode_and_polys(1))
def test_reduce_is_idempotent(case):
    mode, (a,) = case
    reduced = a.reduce(mode)
    assert reduced.reduce(mode) == reduced
    assert TracePoly(reduced.terms, general_at(mode.n)).reduce(mode) == reduced


@PROPERTIES
@given(mode_and_polys(2), coefficients)
def test_lap_is_linear(case, scale: Fraction):
    mode, (a, b) = case
    assert lap(a + b * scale) == lap(a) + lap(b) * scale
    ra, rb = a.reduce(mode), b.reduce(mode)
    assert lap(ra + rb * scale) == lap(ra) + lap(rb) * scale


@PROPERTIES
@given(mode_and_polys(1))
def test_lap_commutes_with_reduce(case):
    mode, (a,) = case
    assert lap(a).reduce(mode) == lap(a.reduce(mode))


@st.composite
def mode_polys(draw, mode, count: int):
    """``count`` random polynomials in ``mode``: reduced ones on SO(3) and
    SO(4), coefficients affine in N in symbolic general mode, rational ones
    at a fixed N."""
    small = st.lists(st.integers(1, 3), max_size=2).map(lambda parts: Partition.of(*parts))
    polys = []
    for _ in range(count):
        terms = draw(st.dictionaries(small, coefficients, max_size=3))
        if mode.symbolic:
            terms = {part: NPoly({0: c, 1: draw(coefficients)}) for part, c in terms.items()}
            polys.append(TracePoly(terms, GENERAL))
        else:
            poly = TracePoly(terms, general_at(mode.n))
            polys.append(poly.reduce(mode) if mode.rank else poly)
    return polys


@pytest.mark.parametrize("mode", [GENERAL, SO3, SO4], ids=str)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_lap_is_a_second_order_operator(mode, data):
    """The defect below vanishes for every f, g, h exactly when the operator
    has order at most two and no zeroth-order term; a third-order part or a
    multiplication part would leave it nonzero."""
    f, g, h = data.draw(mode_polys(mode, 3))
    defect = (
        lap(f * g * h)
        - f * lap(g * h) - g * lap(f * h) - h * lap(f * g)
        + f * g * lap(h) + f * h * lap(g) + g * h * lap(f)
    )
    assert not defect
    constant = data.draw(coefficients)
    assert not lap(TracePoly.constant(constant, mode))
    assert not lap(TracePoly.power_sum(0, mode))


@pytest.mark.parametrize("mode", [GENERAL, general_at(5), SO3, SO4], ids=str)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_json_round_trip(mode, data):
    (poly,) = data.draw(mode_polys(mode, 1))
    assert tracepoly_from_json(poly.to_json_obj(), mode) == poly


@st.composite
def partitions_upto(draw, top: int):
    """A partition of a drawn degree <= ``top``, one part at a time."""
    remaining = draw(st.integers(0, top))
    parts = []
    while remaining:
        parts.append(draw(st.integers(1, remaining)))
        remaining -= parts[-1]
    return Partition.of(*parts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partitions_upto(16))
def test_grouped_assembly_equals_the_product_rule(partition):
    """The enumerated check stops at degree 10; this draws up to degree 16."""
    assert lap_partition(partition) == lap_partition_product_rule(partition)
