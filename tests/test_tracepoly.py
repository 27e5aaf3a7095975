import json
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from refdata import (
    coeff_chunk_reference,
    exact_value,
    fraction_lap,
    fraction_product,
    fraction_reduce,
    fraction_sum,
    json_reference,
    monomial_label_reference,
    npoly_str_reference,
    npoly_subs_reference,
    pretty_reference,
    reduce_per_factor_reference,
    so4_pm_hand_recurrence,
    substitute_n_reference,
    tracepoly_from_json,
)
from sonlap import tracepoly
from sonlap.laplacian import lap_monomial
from sonlap import (
    GENERAL,
    SO3,
    SO4,
    GroupMode,
    NPoly,
    Partition,
    TracePoly,
    basis_for,
    character_so3,
    coordinates,
    elementary,
    enumerate_upto,
    eval_tracepoly,
    general_at,
    lap,
    lap_partition,
    random_son,
    rotation_from_angles,
    so,
    so3_pm_in_p1,
    so4_pm_in_p1p2,
)

F = Fraction
N = NPoly.var()


def p1pow(j, mode=SO3, coeff=1):
    return TracePoly.monomial(Partition((1,) * j), coeff, mode)


# ---------------------------------------------------------------------------
# NPoly


def test_npoly_arithmetic_exact():
    a = N * N - 3 * N + 1
    b = N + F(1, 2)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b).subs(5) == a.subs(5) * b.subs(5)
    assert a.subs(3) == F(1)


def test_npoly_substitution_is_rational():
    poly = NPoly({2: F(1, 3), 0: F(-1, 7)})
    assert poly.subs(4) == F(16, 3) - F(1, 7)


def _random_npoly(rng) -> NPoly:
    exponents = rng.sample(range(8), rng.randint(0, 5))
    return NPoly({e: F(rng.randint(-40, 40), rng.randint(1, 12)) for e in exponents})


def _assert_lowest_terms(value):
    assert type(value) is Fraction and value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1


def test_npoly_subs_matches_the_fraction_sum():
    """The integer evaluation equals the former Fraction sum at an int, a
    negative int and a Fraction n, and returns a canonical Fraction."""
    rng = random.Random(28)
    for _ in range(400):
        poly = _random_npoly(rng)
        at = (rng.randint(0, 40), -rng.randint(1, 40), F(rng.randint(-30, 30), rng.randint(1, 9)))
        for n in at:
            got = poly.subs(n)
            want = npoly_subs_reference(poly, n)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (poly, n)
            _assert_lowest_terms(got)


def _assert_substitution_matches(poly: TracePoly, n: int):
    got, want = poly.substitute_n(n), substitute_n_reference(poly, n)
    assert got.mode == want.mode
    assert list(got.terms.items()) == list(want.terms.items()), n  # term order kept
    for value in got.terms.values():
        _assert_lowest_terms(value)
        assert value


def test_substitute_n_matches_the_validated_fraction_form():
    """Random symbolic polys whose coefficients vanish at some n: those
    terms are dropped there, and the rest keep their order and values."""
    rng = random.Random(5)
    parts = enumerate_upto(5)
    dropped = 0
    for _ in range(60):
        root = rng.randint(2, 9)
        terms = {}
        for part in rng.sample(parts, rng.randint(1, 8)):
            coeff = _random_npoly(rng)
            terms[part] = coeff * (N - root) if rng.random() < 0.4 else coeff
        poly = TracePoly(terms)
        for n in (root, root + 1, 12):
            _assert_substitution_matches(poly, n)
        dropped += len(poly.terms) - len(poly.substitute_n(root).terms)
    assert dropped > 20


def test_substitute_n_of_every_laplacian_image_matches_the_fraction_form():
    for partition in enumerate_upto(8):
        image = lap_partition(partition)
        for n in range(2, 9):
            _assert_substitution_matches(image, n)


def test_npoly_division_by_variable():
    assert (N * N + 2 * N).div_by_var() == N + 2
    with pytest.raises(ValueError):
        (N + 1).div_by_var()


def test_npoly_no_stored_zeros():
    assert not (N - N)
    assert (N - N).coeffs == {}


@pytest.mark.parametrize("exponent", [1.5, 2.0, F(3, 2), "2"], ids=repr)
def test_npoly_refuses_an_exponent_that_is_not_an_integer(exponent):
    """An exponent is coerced by operator.index, never truncated: 1.5 used
    to key N^1 and "2" N^2."""
    with pytest.raises(ValueError, match=re.escape(repr(exponent))):
        NPoly({exponent: 2})


def test_npoly_accepts_integer_exponents():
    np = pytest.importorskip("numpy")
    assert NPoly({np.int64(2): 1}) == N * N
    assert NPoly({True: 3}) == 3 * N
    assert str(NPoly({np.int64(2): 1})) == "N^2"


def test_constant_npoly_hashes_as_its_value():
    """Equal objects hash equally, so a constant NPoly is found in a set of numbers."""
    assert NPoly(3) == 3 and hash(NPoly(3)) == hash(3)
    assert NPoly(F(1, 2)) in {F(1, 2)}
    assert NPoly(0) in {0}
    assert {NPoly(3): "x"}[3] == "x"
    assert hash(N + 1) == hash(NPoly({0: 1, 1: 1}))


# ---------------------------------------------------------------------------
# multiplication


def test_mul_concatenates_partitions():
    p2 = TracePoly.power_sum(2)
    p1 = TracePoly.power_sum(1)
    assert p2 * p1 == TracePoly.monomial(Partition.of(2, 1), 1)


def test_mul_ring_identity():
    p1 = TracePoly.power_sum(1)
    assert (p1 + 1) * (p1 - 1) == TracePoly.monomial(Partition.of(1, 1), 1) - 1


def test_comparison_with_a_scalar_never_raises():
    """A numeric-mode polynomial compares unequal to a non-constant NPoly
    instead of failing to coerce it."""
    three = TracePoly.constant(3, SO3)
    assert not three == N
    assert three != N + 3
    assert three == NPoly(3) == 3
    assert TracePoly.zero(SO4) == NPoly(0)
    assert TracePoly.power_sum(0) == N
    assert TracePoly.power_sum(0) != 3


def test_p0_is_constant_n():
    p0 = TracePoly.power_sum(0)
    p2 = TracePoly.power_sum(2)
    assert p0 * p2 == TracePoly.monomial(Partition.of(2), N)


def test_mode_mismatch_raises():
    with pytest.raises(ValueError):
        TracePoly.power_sum(1, SO3) * TracePoly.power_sum(1, SO4)
    with pytest.raises(ValueError):
        TracePoly.power_sum(1, so(5)) + TracePoly.power_sum(1, so(6))


@pytest.mark.parametrize(
    "tag, n",
    [("so2", 2), ("so", None), ("so", 3), ("so4", 5), ("SO5", 5), ("so6", None), ("so05", 5), ("sl3", 3)],
)
def test_mode_tags_are_validated(tag, n):
    with pytest.raises(ValueError):
        GroupMode(tag, n)


def test_so_instances():
    assert so(3) == SO3 and so(4) == SO4
    assert (so(3).rank, so(4).rank, so(7).rank, so(8).rank) == (1, 2, 3, 4)
    assert str(so(12)) == "SO(12)" and so(12).tag == "so12"
    with pytest.raises(ValueError):
        so(2)


def random_tracepoly(rng, mode=GENERAL, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, max_degree)
        parts = []
        while degree:
            part = rng.randint(1, degree)
            parts.append(part)
            degree -= part
        coeff = F(rng.randint(-6, 6), rng.randint(1, 4))
        if mode.symbolic:
            coeff = NPoly({rng.randint(0, 2): coeff})
        terms[Partition.of(*parts)] = terms.get(Partition.of(*parts), 0) + coeff
    return TracePoly(terms, mode)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20331)
    for _ in range(40):
        a = random_tracepoly(rng)
        b = random_tracepoly(rng)
        c = random_tracepoly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def _canonical(poly: TracePoly) -> bool:
    """Whether ``poly`` is what the validated constructor makes of its terms."""
    rebuilt = TracePoly(poly.terms, poly.mode)
    return rebuilt == poly and all(
        Partition.of(*part.parts) == part and coeff for part, coeff in poly.terms.items()
    )


@pytest.mark.parametrize("mode", [GENERAL, general_at(5), SO4, so(6)])
def test_trusted_arithmetic_stays_canonical(mode):
    """Sums, differences, products and rational scalings skip the public
    checks; their results are still exactly what the checked constructor gives,
    and no operand changes."""
    rng = random.Random(4417)
    for _ in range(30):
        a, b = (random_tracepoly(rng, mode, max_degree=mode.rank or 3) for _ in range(2))
        before = (a.terms, b.terms)
        results = (a + b, a - b, -a, a * b, a * 3, a * F(-2, 5), a + 1, TracePoly.sum([a, b, a], mode))
        assert all(_canonical(result) for result in results)
        assert (a.terms, b.terms) == before


def test_public_constructors_keep_their_checks():
    """The checks the trusted paths skip still guard the public entry points
    (``Partition`` itself: ``test_invalid_parts_rejected``)."""
    with pytest.raises(ValueError):
        TracePoly({(3,): 1}, SO4)
    with pytest.raises(ValueError):
        TracePoly.sum([TracePoly.power_sum(1, SO3), TracePoly.power_sum(1, SO4)], SO3)
    with pytest.raises(ValueError):
        TracePoly.sum([TracePoly.power_sum(1, GENERAL)], general_at(3))


def test_product_degree_adds():
    rng = random.Random(7)
    for _ in range(20):
        a = random_tracepoly(rng)
        b = random_tracepoly(rng)
        if not a or not b:
            continue
        for part in (a * b).terms:
            assert part.degree <= a.degree + b.degree


# ---------------------------------------------------------------------------
# substitution


def test_substitute_affine_coefficient():
    poly = TracePoly.monomial(Partition.of(1), N - 1)
    assert poly.substitute_n(3) == TracePoly.monomial(Partition.of(1), 2, general_at(3))


def test_substitute_power_sum_laplacian_row():
    # -(N-1) p_2 - p_(1,1) + p_0 at N=4
    expr = (
        TracePoly.monomial(Partition.of(2), -(N - 1))
        + TracePoly.monomial(Partition.of(1, 1), -1)
        + TracePoly.power_sum(0)
    )
    at4 = expr.substitute_n(4)
    expected = (
        TracePoly.monomial(Partition.of(2), -3, general_at(4))
        + TracePoly.monomial(Partition.of(1, 1), -1, general_at(4))
        + TracePoly.constant(4, general_at(4))
    )
    assert at4 == expected


def test_substitute_constant_n():
    assert TracePoly.power_sum(0).substitute_n(3) == TracePoly.constant(3, general_at(3))


def test_substitute_twice_rejected():
    with pytest.raises(ValueError):
        TracePoly.power_sum(1).substitute_n(3).substitute_n(3)


# ---------------------------------------------------------------------------
# SO(3) reduction


def test_so3_p2_in_p1():
    assert so3_pm_in_p1(2) == p1pow(2) - p1pow(1, coeff=2)


def test_so3_p0_is_three():
    assert so3_pm_in_p1(0) == TracePoly.constant(3, SO3)


def test_so3_p3_hand_expansion():
    # 1 + 2 T_3((p-1)/2) with T_3(x) = 4x^3 - 3x expands to p^3 - 3p^2 + 3
    expected = p1pow(3) - 3 * p1pow(2) + 3 * TracePoly.constant(1, SO3)
    assert so3_pm_in_p1(3) == expected


def so3_pm_full_recurrence(m):
    """1 + 2 T_m((p_1 - 1)/2), running the Chebyshev recurrence up from T_0, T_1."""
    two_x = TracePoly.power_sum(1, SO3) - 1
    prev, cur = TracePoly.constant(1, SO3), two_x * F(1, 2)
    for _ in range(m):
        prev, cur = cur, two_x * cur - prev
    return prev * 2 + 1


def test_so3_pm_matches_full_recurrence():
    for m in range(41):
        assert so3_pm_in_p1(m) == so3_pm_full_recurrence(m), m


@pytest.mark.parametrize("m", range(13))
def test_so3_pm_matches_angle_trace(m):
    rng = random.Random(991 + m)
    poly = so3_pm_in_p1(m)
    for _ in range(200):
        angle = rng.uniform(0, 2 * math.pi)
        rotation = rotation_from_angles(3, angle)
        got = exact_value(poly, rotation)
        want = 1 + 2 * math.cos(m * angle)
        assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# SO(4) reduction


def test_so4_p3_closed_form():
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)
    assert so4_pm_in_p1p2(3) == p1 ** 3 * F(-1, 2) + p1 * p2 * F(3, 2) + p1 * 3


def test_so4_p1_trivial():
    assert so4_pm_in_p1p2(1) == TracePoly.power_sum(1, SO4)


def test_so4_p4_one_recurrence_step():
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)
    expected = p1 ** 4 * F(-1, 2) + p1 ** 2 * p2 + 4 * p1 ** 2 + p2 ** 2 * F(1, 2) - 4
    assert so4_pm_in_p1p2(4) == expected


def test_so4_pm_matches_hand_recurrence():
    for m, expected in enumerate(so4_pm_hand_recurrence(40)):
        assert so4_pm_in_p1p2(m) == expected, m


def test_elementary_symmetric_functions_are_self_reciprocal():
    p1 = TracePoly.power_sum(1, SO3)
    one = TracePoly.constant(1, SO3)
    assert elementary(SO3) == (one, p1, p1, one)
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)
    one = TracePoly.constant(1, SO4)
    assert elementary(SO4) == (one, p1, (p1 * p1 - p2) * F(1, 2), p1, one)


@pytest.mark.parametrize("mode", [SO3, SO4, so(5), so(6), so(7), so(8)])
def test_elementary_matches_characteristic_polynomial(mode):
    # det(t - U) = sum_i (-1)^i e_i t^(N-i) at Haar samples
    import numpy as np

    for i in range(10):
        sample = random_son(mode.n, 700 + i)
        want = np.poly(sample.matrix)
        got = [(-1) ** j * eval_tracepoly(e, sample) for j, e in enumerate(elementary(mode))]
        assert np.allclose(got, want, atol=1e-12)


def test_elementary_needs_a_reduced_mode():
    with pytest.raises(ValueError):
        elementary(general_at(3))


@pytest.mark.parametrize("m", range(13))
def test_so4_pm_matches_matrix_power_trace(m):
    import numpy as np

    poly = so4_pm_in_p1p2(m)
    for i in range(100):
        sample = random_son(4, 5000 + 100 * m + i)
        got = eval_tracepoly(poly, sample)
        want = float(np.trace(np.linalg.matrix_power(sample.matrix, m)))
        assert abs(got - want) <= 1e-10


# ---------------------------------------------------------------------------
# reduce


def test_reduce_so3_product():
    poly = TracePoly.monomial(Partition.of(2, 1), 1).substitute_n(3)
    assert poly.reduce(SO3) == p1pow(3) - 2 * p1pow(2)


def test_reduce_so4_single_trace():
    poly = TracePoly.power_sum(3).substitute_n(4)
    assert poly.reduce(SO4) == so4_pm_in_p1p2(3)


@pytest.mark.parametrize("mode", [SO3, SO4, so(6)])
def test_reduce_constant(mode):
    poly = TracePoly.constant(5, general_at(mode.n))
    assert poly.reduce(mode) == TracePoly.constant(5, mode)


def test_reduce_idempotent():
    poly = TracePoly.monomial(Partition.of(3, 2), 1).substitute_n(4).reduce(SO4)
    assert poly.reduce(SO4) == poly


def test_reduce_commutes_with_mul():
    rng = random.Random(446)
    for mode in (SO3, SO4, so(5), so(6)):
        for _ in range(15):
            a = random_tracepoly(rng, mode=general_at(mode.n))
            b = random_tracepoly(rng, mode=general_at(mode.n))
            assert (a * b).reduce(mode) == a.reduce(mode) * b.reduce(mode)


def test_reduce_symbolic_rejected():
    with pytest.raises(ValueError):
        TracePoly.power_sum(2).reduce(SO3)


def test_reduce_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        TracePoly.power_sum(2).substitute_n(5).reduce(SO3)


REDUCE_MODES = [SO3, SO4, so(5), so(6), so(8)]
# scales other than 1, so every accumulation takes its scaling branch
SCALES = [F(-1), F(2), F(-1, 2), F(3, 7), F(-5, 3)]


@pytest.mark.parametrize("mode", REDUCE_MODES, ids=str)
def test_reduce_matches_per_factor_reference(mode):
    """Cached reduced monomials give the per-term products of p_m table
    entries, monomial by monomial and summed with cancellations."""
    rng = random.Random(1700 + mode.n)
    fixed = general_at(mode.n)
    total = {}
    for part in enumerate_upto(10):
        coeff = F(rng.randint(-40, 40) or 1, rng.randint(1, 12))
        total[part] = coeff
        poly = TracePoly.monomial(part, coeff, fixed)
        got = poly.reduce(mode)
        assert got == reduce_per_factor_reference(poly, mode), part
        assert all(type(c) is F and c for c in got.terms.values()), part
    poly = TracePoly(total, fixed)
    assert poly.reduce(mode) == reduce_per_factor_reference(poly, mode)
    # (p_1^2 - p_2) / 2 is e_2, so its image is the reduced e_2
    e2 = TracePoly({(1, 1): F(1, 2), (2,): F(-1, 2)}, fixed)
    assert e2.reduce(mode) == elementary(mode)[2]


def test_reduce_rejects_a_general_target():
    with pytest.raises(ValueError, match="reduction target must be a reduced mode"):
        TracePoly.power_sum(2).substitute_n(5).reduce(general_at(5))


def test_reduce_and_lap_leave_the_cached_images_alone():
    """Scaling into the accumulator never writes into a cached reduced
    monomial, p_m table entry or per-monomial Laplacian."""
    parts = enumerate_upto(10)
    fetch = {}  # key -> call that reads one cached image
    for mode in REDUCE_MODES:
        table = tracepoly._pm_table(mode)
        fetch.update({(mode, "p_m", m): partial(table, m) for m in range(11)})
        for part in parts:
            if len(part) != 1:
                fetch[(mode, "p_part", part)] = partial(tracepoly._reduced_monomial, mode, part)
            if not part.parts or part.parts[0] <= mode.rank:
                fetch[(mode, "lap", part)] = partial(lap_monomial, part, mode)
    cached = {key: read() for key, read in fetch.items()}
    snapshot = {key: image.terms for key, image in cached.items()}
    rng = random.Random(1717)
    for mode in REDUCE_MODES:
        fixed = general_at(mode.n)
        for part in parts:
            reduced = TracePoly.monomial(part, rng.choice(SCALES), fixed).reduce(mode)
            lap(reduced * rng.choice(SCALES))
    for key, read in fetch.items():
        assert read() is cached[key], key
        assert cached[key].terms == snapshot[key], key


# ---------------------------------------------------------------------------
# SO(3) basis change


def so3_coordinates(poly, basis_id, k):
    return coordinates(poly, basis_for(SO3, basis_id, k))


def test_basis_change_known_eigenvector():
    # -(1/3) p_0 + p_1 + p_2 has power-basis coordinates (-1/3, -1, 1)
    chi2 = (
        TracePoly.constant(-1, general_at(3))
        + TracePoly.monomial(Partition.of(1), 1, general_at(3))
        + TracePoly.monomial(Partition.of(2), 1, general_at(3))
    )
    assert so3_coordinates(chi2, "bprime", 2) == [F(-1, 3), F(-1), F(1)]
    # numeric cross-check of the two forms at a generic angle
    rotation = rotation_from_angles(3, math.pi / 5)
    reduced = chi2.reduce(SO3)
    assert abs(eval_tracepoly(chi2, rotation) - eval_tracepoly(reduced, rotation)) < 1e-12


def test_basis_change_p1_squared_in_traces():
    coords = so3_coordinates(p1pow(2), "btrace", 2)
    assert coords == [F(0), F(2), F(1)]


def test_basis_change_p0_unit():
    p0 = TracePoly.constant(3, general_at(3))
    assert so3_coordinates(p0, "bprime", 2) == [F(1), F(0), F(0)]
    assert so3_coordinates(p0, "btrace", 2) == [F(1), F(0), F(0)]


def test_basis_change_round_trips():
    rng = random.Random(85)
    for _ in range(25):
        poly = random_tracepoly(rng, mode=general_at(3), max_degree=5).reduce(SO3)
        k = max(poly.degree, 1)
        for basis_id in ("bprime", "btrace"):
            coords = so3_coordinates(poly, basis_id, k)
            # p_0 = 3 is the constant of the first slot; slot m holds p_1^m or p_m
            rebuilt = TracePoly.constant(coords[0] * 3, SO3)
            for m, c in enumerate(coords[1:], 1):
                element = p1pow(m) if basis_id == "bprime" else so3_pm_in_p1(m)
                rebuilt = rebuilt + element * c
            assert rebuilt == poly


def test_basis_change_degree_overflow():
    for basis_id in ("bprime", "btrace"):
        with pytest.raises(ValueError):
            so3_coordinates(p1pow(4), basis_id, 3)


def test_btrace_coordinates_of_each_trace_are_its_unit_vector():
    """p_j, written in p_1 by its table entry, sits on slot j of the trace
    basis alone: the triangular inversion undoes the table exactly."""
    for k in range(13):
        for j in range(k + 1):
            unit = [F(int(i == j)) for i in range(k + 1)]
            assert so3_coordinates(so3_pm_in_p1(j), "btrace", k) == unit, (j, k)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_symbolic():
    poly = TracePoly.monomial(Partition.of(2, 1), N - 1) + TracePoly.power_sum(0)
    rebuilt = tracepoly_from_json(poly.to_json_obj(), GENERAL)
    assert rebuilt == poly


def test_json_round_trip_numeric():
    poly = (p1pow(2) - 2 * p1pow(1) + TracePoly.constant(F(1, 3), SO3))
    rebuilt = tracepoly_from_json(poly.to_json_obj(), SO3)
    assert rebuilt == poly


def _printed_polys() -> list:
    """Every symbolic monomial Laplacian to degree 12 and every reduced SO(3)
    and SO(4) one to degree 10, the latter from the reduced image of each
    general monomial."""
    polys = [lap_partition(part) for part in enumerate_upto(12)]
    for mode in (SO3, SO4):
        fixed = general_at(mode.n)
        polys += [lap(TracePoly.monomial(part, 1, fixed).reduce(mode)) for part in enumerate_upto(10)]
    return polys


def test_pretty_matches_the_frozen_printer(monkeypatch):
    polys = _printed_polys()
    got = [poly.pretty() for poly in polys]
    for poly in polys:
        for coeff in poly.terms.values():
            if isinstance(coeff, NPoly):
                assert str(coeff) == npoly_str_reference(coeff)
    monkeypatch.setattr(tracepoly, "_coeff_chunk", coeff_chunk_reference)
    assert got == [poly.pretty() for poly in polys]


HAND_PICKED = [
    0, 1, -1, 12, -7, F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(-22, 7),
    NPoly(0), NPoly(1), NPoly(-1), NPoly(F(1, 2)), NPoly(F(-1, 2)), NPoly(5),
    -N, N, N - 1, 1 - N, (N * N - 3) * F(-1, 2), (N * N - 3) * F(1, 2), 3 * N * N, -N * N * N + 2 * N,
]


@pytest.mark.parametrize("label", [None, "p_1", "p_(2,1,0)"])
@pytest.mark.parametrize("coeff", HAND_PICKED, ids=repr)
def test_coeff_chunk_matches_the_frozen_printer(coeff, label):
    assert tracepoly._coeff_chunk(coeff, label) == coeff_chunk_reference(coeff, label)
    if isinstance(coeff, NPoly):
        assert str(coeff) == npoly_str_reference(coeff)


def test_pretty_of_hand_picked_coefficients_matches_the_frozen_printer(monkeypatch):
    polys = []
    for coeff in HAND_PICKED:
        if not coeff:
            continue
        if isinstance(coeff, NPoly):
            # the constant term prints as a multiple of p_0 where N divides it
            polys.append(TracePoly({(): coeff, (2, 1): coeff, (1,): 1 - coeff}, GENERAL))
        else:
            polys.append(TracePoly({(): coeff, (1, 1): coeff, (1,): 1 - coeff}, SO3))
    got = [poly.pretty() for poly in polys]
    monkeypatch.setattr(tracepoly, "_coeff_chunk", coeff_chunk_reference)
    assert got == [poly.pretty() for poly in polys]


def test_coeff_chunk_rejects_a_float():
    with pytest.raises(TypeError):
        tracepoly._coeff_chunk(0.5, "p_1")


def test_pretty_pads_partitions():
    poly = TracePoly.monomial(Partition.of(2, 1), -3)
    assert "p_(2,1,0)" in poly.pretty()
    assert TracePoly.zero().pretty() == "0"


# ---------------------------------------------------------------------------
# the fraction-free kernel against plain Fraction arithmetic

KERNEL_DENOMINATORS = [1, 1, 2, 3, 4, 6, 7, 12, 35]


def _random_poly(rng, mode, degree: int, size: int) -> TracePoly:
    """Up to ``size`` monomials of ``mode`` of degree <= ``degree``, with
    numerators in [-30, 30] over mixed denominators."""
    rank = mode.rank
    parts = [p for p in enumerate_upto(degree) if rank is None or not p.parts or p.parts[0] <= rank]
    chosen = rng.sample(parts, min(size, len(parts)))
    return TracePoly({p: F(rng.randint(-30, 30) or 1, rng.choice(KERNEL_DENOMINATORS)) for p in chosen}, mode)


def _assert_canonical(poly: TracePoly, expected: dict) -> None:
    """``poly`` has the ``expected`` terms, every coefficient a nonzero
    Fraction, and a kept cleared form over the least common denominator."""
    terms = poly.terms
    assert terms == expected
    assert all(type(c) is F and c for c in terms.values()), terms
    if poly._cleared_form is not None:
        assert poly._cleared_form == tracepoly._cleared(TracePoly(terms, poly.mode))


@pytest.mark.parametrize("n", range(3, 9))
def test_kernel_matches_the_fraction_reference(n):
    """Sums, scalings, products, reduce and lap in integers over a common
    denominator give, term for term, what per-term Fraction arithmetic
    gives; every coefficient stays a nonzero Fraction, and no operand's
    terms or kept cleared form change."""
    rng = random.Random(2600 + n)
    fixed, reduced = general_at(n), so(n)
    operands = []
    for _ in range(8):
        for mode in (fixed, reduced):
            a, b, c = (_random_poly(rng, mode, 5, 7) for _ in range(3))
            scale = rng.choice(SCALES)
            operands += [a, b, c]
            snapshot = {id(p): p.terms for p in (a, b, c)}
            # forced cancellations: a and -a in one sum, the cross terms of (a + b)(a - b)
            _assert_canonical(TracePoly.sum([a, b, -a, c], mode), fraction_sum([b, c]))
            _assert_canonical(a + b - b, a.terms)
            _assert_canonical(a * scale, {p: x * scale for p, x in a.terms.items()})
            _assert_canonical(a * b, fraction_product(a, b))
            sum_ab, diff_ab = a + b, a - b
            _assert_canonical(sum_ab * diff_ab, fraction_product(sum_ab, diff_ab))
            assert sum_ab * diff_ab == a * a - b * b
            _assert_canonical(lap(a), fraction_lap(a))
            _assert_canonical(lap(sum_ab * scale), fraction_lap(sum_ab * scale))
            if mode == fixed:
                _assert_canonical(a.reduce(reduced), fraction_reduce(a, reduced))
                # a minus its own reduced image, read back in general mode, reduces to zero
                back = TracePoly(a.reduce(reduced).terms, fixed)
                _assert_canonical((a - back).reduce(reduced), {})
                assert not (a - back).reduce(reduced)
            for p in (a, b, c):
                assert p.terms == snapshot[id(p)]
    for p in operands:
        # a kept cleared form is the one a fresh copy of the terms computes
        kept = p._cleared_form
        if kept is not None:
            assert kept == tracepoly._cleared(TracePoly(p.terms, p.mode))


def test_kernel_results_compare_and_negate_exactly():
    """Equality over cleared forms agrees with equality of the terms, and a
    negated kernel result is the term-by-term negation."""
    rng = random.Random(2690)
    for mode in (general_at(5), so(5), SO4):
        a, b = _random_poly(rng, mode, 4, 6), _random_poly(rng, mode, 4, 6)
        left, right = a * b, b * a
        assert left._cleared_form is not None and right._cleared_form is not None
        assert left == right and left.terms == right.terms
        assert (left == left + 1) is False
        # the same numerators over another denominator are another poly
        half = left * F(1, 2)
        assert half != left and half * 2 == left
        assert (-left).terms == {p: -c for p, c in left.terms.items()}
        assert -left + left == TracePoly.zero(mode) and not (-left + left)
        fresh = TracePoly(left.terms, mode)
        assert fresh == left and left == fresh


# ---------------------------------------------------------------------------
# the render caches


def _render_pairs(polys) -> list:
    return [(poly.pretty(), poly.to_json_obj()) for poly in polys]


def test_render_caches_change_no_bytes():
    """pretty() and to_json_obj() of symbolic and reduced polys equal the
    uncached references, on the first render, a second one, and again after
    unrelated renders have filled the caches in another order."""
    rng = random.Random(2626)
    symbolic = [lap_partition(p) for p in rng.sample(enumerate_upto(9), 40)]
    symbolic += [
        TracePoly({p: NPoly({e: F(rng.randint(-9, 9), rng.choice([1, 2, 3])) for e in range(3)})
                   for p in rng.sample(enumerate_upto(5), 5)}, GENERAL)
        for _ in range(20)
    ]
    numeric = []
    for mode in (SO3, SO4, so(6)):
        numeric += [lap(_random_poly(rng, mode, 6, 6)) for _ in range(10)]
        numeric += [_random_poly(rng, general_at(mode.n), 6, 6).reduce(mode) for _ in range(10)]
    polys = symbolic + numeric
    expected = [(pretty_reference(poly), json_reference(poly)) for poly in polys]
    assert _render_pairs(polys) == expected
    assert _render_pairs(polys) == expected
    # a caller writing into a returned record changes no later render
    for _, obj in _render_pairs(polys):
        for record in obj:
            record["coeff"]["0"] = "changed"
    unrelated = [lap_partition(p) for p in enumerate_upto(10)] + [
        lap(_random_poly(rng, mode, 8, 8)) for mode in (SO3, SO4, so(6))
    ]
    _render_pairs(unrelated)
    rng.shuffle(polys)
    assert _render_pairs(polys) == [(pretty_reference(poly), json_reference(poly)) for poly in polys]
    for poly in symbolic:
        for coeff in poly.terms.values():
            assert str(coeff) == npoly_str_reference(coeff)


def test_json_text_equals_the_sorted_json_dump():
    """``to_json_text`` prints the bytes of ``json.dumps(to_json_obj(),
    sort_keys=True)``, and of the uncached reference, on a first and a
    second render: for every ``lap`` image of the CLI (generaln up to degree
    12, so3 and so4 up to 10), every SO(3) character up to k = 30, and edge
    cases."""
    # exponents 0..11: the keys "10" and "11" sort before "2" as strings
    twelve = TracePoly({Partition.of(2, 1): NPoly({e: F(e - 5, 3) for e in range(12)})}, GENERAL)
    polys = [lap_partition(p) for p in enumerate_upto(12)]
    for mode in (SO3, SO4):
        polys += [lap(TracePoly.monomial(p, 1).substitute_n(mode.n).reduce(mode))
                  for p in enumerate_upto(10)]
    polys += [character_so3(k).poly for k in range(31)]
    polys += [
        TracePoly.zero(GENERAL),
        TracePoly.zero(SO3),
        twelve,
        # negative fractional coefficients, symbolic and numeric
        TracePoly({Partition.of(3): NPoly({0: F(-3, 2), 1: F(-7, 4)}), Partition(): F(-1, 6) * N},
                  GENERAL),
        TracePoly({Partition.of(2, 2): F(-5, 7), Partition.of(1): F(-1, 2), Partition(): -3}, SO4),
        lap_partition(Partition.of(4, 2, 1)).substitute_n(5),
        lap_monomial(Partition.of(3, 3, 1), general_at(5)),
    ]
    for poly in polys:
        expected = json.dumps(poly.to_json_obj(), sort_keys=True)
        assert poly.to_json_text() == expected
        assert poly.to_json_text() == expected == json.dumps(json_reference(poly), sort_keys=True)
    assert TracePoly.zero(GENERAL).to_json_text() == "[]"
    assert '{"0": "-5/3", "1": "-4/3", "10": "5/3", "11": "2", "2": "-1"' in twelve.to_json_text()


@pytest.mark.parametrize("mode", [GENERAL, SO3, SO4, so(6)], ids=str)
def test_monomial_label_matches_the_uncached_rule(mode):
    rank = mode.rank
    parts = [p for p in enumerate_upto(12) if rank is None or not p.parts or p.parts[0] <= rank]
    for _ in range(2):
        for part in parts:
            assert tracepoly.monomial_label(part, mode.tag) == monomial_label_reference(part, mode.tag), part
