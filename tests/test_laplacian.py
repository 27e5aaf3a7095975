import random
from fractions import Fraction

import pytest

from sonlap import (
    GENERAL,
    SO3,
    SO4,
    NPoly,
    Partition,
    TracePoly,
    basis_for,
    coordinates,
    enumerate_upto,
    general_at,
    grad_inner_pm,
    lap,
    lap_p1_pow,
    lap_partition,
    lap_pm,
    so,
    so3_lap_pm_btrace,
    so3_lap_power,
    so4_lap_monomial,
)
from sonlap.laplacian import lap_monomial
from refdata import (
    WORKED_LAPLACIANS,
    grad_inner_pm_npoly,
    lap_p1_pow_closed_form,
    lap_partition_product_rule,
    lap_partition_three_case,
    lap_pm_npoly,
    reduced_column_via_general,
    so3_lap_power_hand,
    so4_lap_monomial_hand,
    so4_monomial_partition,
)

F = Fraction
N = NPoly.var()


def general_poly(termdict) -> TracePoly:
    return TracePoly({Partition.of(*parts): coeff for parts, coeff in termdict.items()}, GENERAL)


# ---------------------------------------------------------------------------
# base formulas


def test_lap_p1():
    assert lap_pm(1) == TracePoly.monomial(Partition.of(1), (N - 1) * F(-1, 2))


def test_lap_p2():
    assert lap_pm(2) == general_poly(WORKED_LAPLACIANS[(2,)])


def test_lap_p4():
    assert lap_pm(4) == general_poly(WORKED_LAPLACIANS[(4,)])


def test_lap_p1_squared():
    assert lap_p1_pow(2) == general_poly(WORKED_LAPLACIANS[(1, 1)])


def test_lap_p1_cubed():
    assert lap_p1_pow(3) == general_poly(WORKED_LAPLACIANS[(1, 1, 1)])


def test_lap_p1_pow_zero():
    assert not lap_p1_pow(0)


def test_lap_p1_pow_is_the_product_rule_and_matches_the_closed_form():
    """``lap_p1_pow`` reads ``lap_partition`` at (1^q); the former closed form
    -((N-1) q p_1^q + q(q-1)(p_2 - N) p_1^{q-2}) / 2 agrees, printing included."""
    for q in range(40):
        got, want = lap_p1_pow(q), lap_p1_pow_closed_form(q)
        assert got == want == lap_partition(Partition((1,) * q)), q
        assert got.pretty() == want.pretty(), q
    assert lap_p1_pow.cache_info().currsize >= 40
    with pytest.raises(ValueError):
        lap_p1_pow(-1)


def test_grad_inner_equal_indices():
    # (1,1): half of (p_0 - p_2)
    expected = TracePoly({Partition.of(): N * F(1, 2), Partition.of(2): F(-1, 2)}, GENERAL)
    assert grad_inner_pm(1, 1) == expected


def test_grad_inner_two_one():
    expected = TracePoly({Partition.of(1): 1, Partition.of(3): -1}, GENERAL)
    assert grad_inner_pm(2, 1) == expected
    assert grad_inner_pm(1, 2) == expected  # arguments may arrive swapped


@pytest.mark.parametrize("m", [0, 1, 5])
def test_grad_inner_with_constant_is_zero(m):
    assert not grad_inner_pm(m, 0)


def test_lap_pm_prints_the_frozen_npoly_form():
    """lap_pm, the doubled integer table printed as a poly, is the NPoly form
    it was built as: term for term and byte for byte."""
    for m in range(41):
        got, want = lap_pm(m), lap_pm_npoly(m)
        assert got.terms == want.terms, m
        assert got.pretty() == want.pretty(), m
        assert got.to_json_text() == want.to_json_text(), m


def test_grad_inner_pm_prints_the_frozen_npoly_form():
    for m in range(21):
        for mp in range(21):
            got, want = grad_inner_pm(m, mp), grad_inner_pm_npoly(m, mp)
            assert got.terms == want.terms, (m, mp)
            assert got.pretty() == want.pretty(), (m, mp)
            assert got.to_json_text() == want.to_json_text(), (m, mp)


@pytest.mark.parametrize("n", range(2, 10))
def test_fixed_n_columns_are_the_substituted_symbolic_images(n):
    """The numeric pieces, evaluated from the doubled table at N = n, give the
    symbolic image substituted at n."""
    mode = general_at(n)
    for partition in enumerate_upto(10):
        got, want = lap_monomial(partition, mode), lap_partition(partition).substitute_n(n)
        assert got == want, partition
        assert got.pretty() == want.pretty(), partition


# ---------------------------------------------------------------------------
# full monomials


@pytest.mark.parametrize("parts", sorted(WORKED_LAPLACIANS, key=lambda p: (sum(p), p)))
def test_lap_partition_small_degrees(parts):
    got = lap_partition(Partition.of(*parts))
    assert got == general_poly(WORKED_LAPLACIANS[parts])


@pytest.mark.parametrize("partition", enumerate_upto(10))
def test_case_split_matches_plain_product_rule(partition):
    assert lap_partition(partition) == lap_partition_product_rule(partition)


@pytest.mark.parametrize("partition", enumerate_upto(12))
def test_grouped_assembly_matches_three_case_reference(partition):
    got = lap_partition(partition)
    want = lap_partition_three_case(partition)
    assert got == want
    assert got.pretty() == want.pretty()
    assert got.to_json_obj() == want.to_json_obj()


@pytest.mark.parametrize("partition", enumerate_upto(8))
def test_degree_never_increases(partition):
    image = lap_partition(partition)
    for term in image.terms:
        assert term.degree <= partition.degree


def test_product_rule_consistency_random_pairs():
    rng = random.Random(314)
    pool = [p for p in enumerate_upto(4) if p.degree]
    for _ in range(30):
        left = rng.choice(pool)
        right = rng.choice(pool)
        merged = left.concat(right)
        lhs = lap_partition(merged)
        cross = TracePoly.zero(GENERAL)
        for i, mi in enumerate(left.parts):
            rest_left = Partition.of(*(left.parts[:i] + left.parts[i + 1:]))
            for j, mj in enumerate(right.parts):
                rest_right = Partition.of(*(right.parts[:j] + right.parts[j + 1:]))
                cross = cross + (
                    TracePoly.monomial(rest_left.concat(rest_right), 2, GENERAL)
                    * grad_inner_pm(mi, mj)
                )
        rhs = (
            TracePoly.monomial(right, 1, GENERAL) * lap_partition(left)
            + TracePoly.monomial(left, 1, GENERAL) * lap_partition(right)
            + cross
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# SO(3) closed forms


@pytest.mark.parametrize("m", range(2, 11))
def test_so3_trace_formula_matches_general_route(m):
    general = lap_pm(m).substitute_n(3).reduce(SO3)
    coords = so3_lap_pm_btrace(m)
    closed = TracePoly.constant(3 * coords.get(0, F(0)), general_at(3))
    for j, c in coords.items():
        if j:
            closed = closed + TracePoly.monomial(Partition.of(j), c, general_at(3))
    assert closed.reduce(SO3) == general


@pytest.mark.parametrize("j", range(31))
def test_so3_power_formula_matches_general_route(j):
    """The reduced rule's column equals the former hand-derived closed form up
    to the degree bound, and the reduced general image up to 12."""
    assert so3_lap_power(j) == so3_lap_power_hand(j)
    if j <= 12:
        assert so3_lap_power(j) == reduced_column_via_general(Partition((1,) * j), SO3)


def test_so3_lap_p3_in_trace_basis():
    # Laplacian of p_3 on SO(3): 3 p_0 - 3 p_1 - 3 p_2 - 6 p_3
    poly = TracePoly.power_sum(3).substitute_n(3).reduce(SO3)
    coords = coordinates(lap(poly), basis_for(SO3, "btrace", 3))
    assert coords == [F(3), F(-3), F(-3), F(-6)]


# ---------------------------------------------------------------------------
# SO(4) closed forms


@pytest.mark.parametrize(
    "l,m", [(l, m) for w in range(31) for m in range(w // 2 + 1) for l in [w - 2 * m]]
)
def test_so4_monomial_formula_matches_general_route(l, m):
    """The reduced rule's column equals the former hand-derived closed form up
    to the degree bound, and the reduced general image up to weight 12."""
    assert so4_lap_monomial(l, m) == so4_lap_monomial_hand(l, m)
    if l + 2 * m <= 12:
        partition = so4_monomial_partition(l, m)
        assert so4_lap_monomial(l, m) == reduced_column_via_general(partition, SO4)


def test_so4_lap_column_p1sq_p2():
    # coordinates -4 p_1^2 + 4 p_2 + p_1^4 - 12 p_1^2 p_2 - p_2^2
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)
    expected = p1 ** 4 - 4 * p1 ** 2 + 4 * p2 - 12 * p1 ** 2 * p2 - p2 ** 2
    assert so4_lap_monomial(2, 1) == expected


# ---------------------------------------------------------------------------
# the linear operator


def test_lap_of_constant_every_mode():
    assert not lap(TracePoly.constant(7, GENERAL))
    assert not lap(TracePoly.constant(7, SO3))
    assert not lap(TracePoly.constant(7, SO4))


def test_lap_linear_in_general_mode():
    a = TracePoly.monomial(Partition.of(2), N) + TracePoly.monomial(Partition.of(1, 1), -2)
    expected = lap_pm(2) * N + lap_p1_pow(2) * (-2)
    assert lap(a) == expected


@pytest.mark.parametrize("mode", [SO3, SO4])
def test_lap_fast_paths_agree_with_substitution_route(mode):
    rng = random.Random(2718 + mode.n)
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, 5)
            if mode is SO3:
                part = Partition((1,) * degree)
            else:
                m2 = rng.randint(0, degree // 2)
                part = so4_monomial_partition(degree - 2 * m2, m2)
            terms[part] = F(rng.randint(-5, 5), rng.randint(1, 3))
        reduced = TracePoly(terms, mode)
        if not reduced:
            continue
        fast = lap(reduced)
        slow = TracePoly.zero(mode)
        for part, coeff in reduced.terms.items():
            slow = slow + lap_partition(part).substitute_n(mode.n).reduce(mode) * coeff
        assert fast == slow


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lap_commutes_with_reduction(n):
    """p_lam and its so(n) reduction are one function on SO(n), and p_1, ...,
    p_{n // 2} are independent there, so their Laplacians agree exactly."""
    mode = so(n)
    for partition in enumerate_upto(6):
        reduced = TracePoly.monomial(partition, 1).substitute_n(n).reduce(mode)
        assert lap(reduced) == lap_partition(partition).substitute_n(n).reduce(mode), partition


@pytest.mark.parametrize("partition", enumerate_upto(12))
def test_lap_partition_terms_are_canonical_and_never_mutated(partition):
    """The image is built from interned partitions and coefficients without the
    public checks: every key is canonical, every coefficient nonzero, the
    checked constructor gives the same polynomial, and arithmetic on the image
    leaves the cached image as it was."""
    image = lap_partition(partition)
    snapshot = {part.parts: coeff.coeffs for part, coeff in image.terms.items()}
    for part, coeff in image.terms.items():
        assert Partition.of(*part.parts) == part
        assert coeff
    assert TracePoly(image.terms, GENERAL) == image
    for result in (image + image, image * 3, image * image):
        assert TracePoly(result.terms, GENERAL) == result
    assert lap_partition(partition) is image
    assert {part.parts: coeff.coeffs for part, coeff in image.terms.items()} == snapshot


def test_reduced_column_is_cached_from_so5_on():
    """In so(N), N >= 5, each monomial's column is built once and equals the
    reduced general image for every flag element up to order 8; general mode
    at a fixed N is cached per N (see the fixed-N cache test)."""
    for n in range(5, 9):
        mode = so(n)
        for part in basis_for(mode, f"so{n}", 8).elements:
            column = lap_monomial(part, mode)
            assert lap_monomial(part, mode) is column
            assert column == reduced_column_via_general(part, mode), (n, part)
    part = Partition.of(2, 2, 1)
    assert lap_monomial(part, general_at(5)) is lap_monomial(part, general_at(5))
    assert lap_monomial(part, general_at(5)) is not lap_monomial(part, general_at(4))


def test_fixed_n_general_images_are_cached_per_partition_and_n():
    """In general mode at a fixed N each monomial's image is built once per
    N and equals the general image substituted afresh; the images at N = 4
    and N = 5 never share an entry."""
    for part in enumerate_upto(8):
        at4, at5 = lap_monomial(part, general_at(4)), lap_monomial(part, general_at(5))
        assert lap_monomial(part, general_at(4)) is at4 and lap_monomial(part, general_at(5)) is at5
        assert at4 == lap_partition(part).substitute_n(4), part
        assert at5 == lap_partition(part).substitute_n(5), part
        assert (at4.mode, at5.mode) == (general_at(4), general_at(5))
        assert at4 is not at5 and at4._terms is not at5._terms
    # p_1's image -(N-1)/2 p_1 differs between N = 4 and N = 5
    p1 = Partition.of(1)
    assert lap_monomial(p1, general_at(4)).terms == {p1: F(-3, 2)}
    assert lap_monomial(p1, general_at(5)).terms == {p1: F(-2)}


def test_memo_cache_is_transparent():
    partition = Partition.of(3, 2, 1)
    first = lap_partition(partition)
    second = lap_partition(partition)
    assert first == second
    uncached = lap_partition_product_rule(partition)
    assert first == uncached
