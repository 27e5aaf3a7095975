import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sonlap import (
    DerivativeBundle,
    Partition,
    TracePoly,
    character_so3,
    character_so4,
    commutation_matrix,
    enumerate_upto,
    euclid_derivatives,
    eval_tracepoly,
    gegenbauer,
    general_at,
    lap_numeric,
    lap_partition,
    random_son,
    rotation_from_angles,
    so,
    sphere_lap_numeric,
    structure_matrices,
    tangential_gradient,
    verify_gegenbauer,
    verify_gegenbauer_families,
    verify_identities,
    verify_laplacian,
    verify_partition,
)
from sonlap import haar, numeric
from sonlap.cli import main
from sonlap.numeric import (
    DEFAULT_SEED,
    RotationSample,
    _eval_traces,
    _monomial_traces,
    _power_stacks,
    _power_tables,
    _powers,
    euclid_derivatives_matrix,
    laplace_beltrami_value,
)

from refdata import (
    _dense_derivatives_ref,
    _fd_gradient_ref,
    _fd_hessian_ref,
    _value_ref,
    exact_value,
    random_son_reference,
    verify_gegenbauer_reference,
    verify_identities_reference,
    verify_partition_reference,
)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_random_son_invariants(n):
    sample = random_son(n, 123)
    u = sample.matrix
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-12
    assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_random_son_takes_the_determinant_once(monkeypatch):
    """One determinant per stack: one per random_son call, also where the
    last column is negated, one per stacked draw and one per chunk of a
    suite; every sample still passes the Gram and |det - 1| checks."""
    det, calls = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    samples = [random_son(n, seed) for n in (2, 3, 4, 6) for seed in range(25)]
    assert len(calls) == len(samples)
    calls.clear()
    stacks = [haar._haar_stack(n, range(25)) for n in (2, 3, 4, 6)]
    assert calls == [(25, n, n) for n in (2, 3, 4, 6)]
    for n, count in ((3, 60), (4, 20), (8, 3)):
        calls.clear()
        verify_identities(n, samples=count)
        per_chunk = max(1, numeric._STACK_ENTRIES // n**4)
        assert len(calls) == -(-count // per_chunk)
    monkeypatch.undo()
    for u in [s.matrix for s in samples] + [u for stack in stacks for u in stack]:
        assert np.max(np.abs(u.T @ u - np.eye(len(u)))) <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_draw_equals_the_per_sample_draw(n):
    """Each matrix of a stacked draw is the per-sample draw of its own
    stream, bit for bit, and random_son is the stack of one."""
    streams = list(numeric._sample_streams(n, 9))
    stack = haar._haar_stack(n, streams)
    for u, stream in zip(stack, streams):
        assert np.array_equal(u, random_son_reference(n, stream))
    assert np.array_equal(random_son(n, 5).matrix, random_son_reference(n, 5))


def _zero_diagonal_on(calls, target, real_qr):
    """A QR that zeroes one R-diagonal entry of matrix ``target`` of the
    first stack it sees (of the only matrix, for a 2-D input)."""

    def qr(a):
        q, r = real_qr(a)
        if not calls:
            (r[target] if r.ndim == 3 else r)[1, 1] = 0.0
        calls.append(a.shape)
        return q, r

    return qr


def test_a_degenerate_draw_is_redrawn_from_its_own_stream(monkeypatch):
    """A sample whose R diagonal has a zero draws again from its own
    generator, as the per-sample draw does; the others keep their draw."""
    n, target = 4, 2
    streams = list(numeric._sample_streams(5, 6))
    want = [random_son_reference(n, stream) for stream in streams]
    calls, real_qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", _zero_diagonal_on(calls, target, real_qr))
    stack = haar._haar_stack(n, streams)
    assert calls == [(6, n, n), (1, n, n)]
    calls.clear()
    want[target] = random_son_reference(n, streams[target])
    assert len(calls) == 2
    for got, ref in zip(stack, want):
        assert np.array_equal(got, ref)
    assert not np.array_equal(stack[target], random_son(n, streams[target]).matrix)


def test_persistent_degenerate_draws_are_refused(monkeypatch):
    real_qr, calls = np.linalg.qr, []

    def qr(a):
        q, r = real_qr(a)
        r[..., 0, 0] = 0.0
        calls.append(len(a))
        return q, r

    monkeypatch.setattr(np.linalg, "qr", qr)
    with pytest.raises(RuntimeError, match="degenerate Gaussian draws persisted"):
        haar._haar_stack(3, range(4))
    assert calls == [4] * 8


def test_a_rotation_with_a_nan_is_refused():
    u = np.eye(3)
    u[0, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not special orthogonal"):
        RotationSample(3, u)


def test_rotation_sample_refuses_a_reflection():
    with pytest.raises(ValueError, match="not special orthogonal"):
        RotationSample(3, np.diag([1.0, 1.0, -1.0]))
    reflection = random_son(4, 3).matrix.copy()
    reflection[:, -1] = -reflection[:, -1]
    with pytest.raises(ValueError, match=r"\|det-1\|=2\.00e\+00"):
        RotationSample(4, reflection)


def test_random_son_deterministic():
    a = random_son(4, 999).matrix
    b = random_son(4, 999).matrix
    assert np.array_equal(a, b)


def test_random_son_planar_rotation():
    sample = random_son(2, 5)
    trace = np.trace(sample.matrix)
    assert -2 - 1e-12 <= trace <= 2 + 1e-12  # 2 cos(theta)


def test_haar_mean_of_first_trace():
    total = 0.0
    for i in range(10_000):
        total += float(np.trace(random_son(3, i).matrix))
    assert abs(total / 10_000) <= 0.05


def test_rotation_from_angles_identity():
    sample = rotation_from_angles(3, 0.0)
    assert np.allclose(sample.matrix, np.eye(3))
    assert np.trace(sample.matrix) == 3.0


def test_rotation_from_angles_so4_traces():
    sample = rotation_from_angles(4, (math.pi / 2, math.pi))
    u = sample.matrix
    assert abs(np.trace(u) - (-2.0)) <= 1e-12
    assert abs(np.trace(u @ u)) <= 1e-12


def test_rotation_from_angles_p3():
    sample = rotation_from_angles(3, math.pi)
    u = sample.matrix
    assert abs(np.trace(u) - (-1.0)) <= 1e-12
    p3 = np.trace(np.linalg.matrix_power(u, 3))
    assert abs(p3 - (1 + 2 * math.cos(3 * math.pi))) <= 1e-12


@pytest.mark.parametrize("n, angles", [(5, (0.3, 1.9)), (6, (0.4, 2.2, -1.1))])
def test_rotation_from_angles_any_n(n, angles):
    """n // 2 rotation blocks, with a trailing 1 for odd n:
    p_m(U) = sum_i 2 cos(m a_i) + (n mod 2)."""
    u = rotation_from_angles(n, angles).matrix
    for m in range(1, 5):
        want = sum(2 * math.cos(m * a) for a in angles) + n % 2
        assert np.trace(np.linalg.matrix_power(u, m)) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match=f"takes exactly {n // 2} angle"):
        rotation_from_angles(n, angles[:-1])


# ---------------------------------------------------------------------------
# structure matrices


@pytest.mark.parametrize("n", range(2, 9))
def test_commutation_trace_identity(n):
    rng = np.random.default_rng(n)
    k = commutation_matrix(n)
    for _ in range(5):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        assert abs(np.trace(k @ np.kron(a, b)) - np.trace(a @ b)) <= 1e-12
        assert np.allclose(k @ a.flatten(order="F"), a.T.flatten(order="F"))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_lambda_commutation_identities(n):
    for seed in range(5):
        sample = random_son(n, seed)
        u = sample.matrix
        k, lam = structure_matrices(sample)
        assert np.max(np.abs(lam @ k - np.kron(u.T, u))) <= 1e-12
        assert np.max(np.abs(k @ lam - np.kron(u, u.T))) <= 1e-12


def _loop_commutation(n):
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k[j * n + i, i * n + j] = 1.0
    return k


def _loop_lambda(u):
    n = u.shape[0]
    lam = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            lam[a * n:(a + 1) * n, b * n:(b + 1) * n] = np.outer(u[:, b], u[:, a])
    return lam


@pytest.mark.parametrize("n", range(2, 7))
def test_structure_matrices_match_loop_reference(n):
    sample = random_son(n, 50 + n)
    k, lam = structure_matrices(sample)
    assert np.array_equal(k, _loop_commutation(n))
    assert np.array_equal(lam, _loop_lambda(sample.matrix))


def test_lambda_at_identity_is_commutation():
    n = 4
    sample = rotation_from_angles(4, (0.0, 0.0))
    k, lam = structure_matrices(sample)
    assert np.array_equal(lam, k)


# ---------------------------------------------------------------------------
# Euclidean derivatives


def test_hessian_of_p2_at_identity():
    sample = rotation_from_angles(3, 0.0)
    bundle = euclid_derivatives(Partition.of(2), sample)
    assert np.allclose(bundle.hess, 2 * commutation_matrix(3), atol=1e-12)


def test_p1_is_linear():
    sample = random_son(4, 3)
    bundle = euclid_derivatives(Partition.of(1), sample)
    assert np.allclose(bundle.grad, np.eye(4))
    assert np.max(np.abs(bundle.hess)) == 0.0


def test_p1_squared_hessian_rank_one():
    sample = random_son(3, 8)
    bundle = euclid_derivatives(Partition.of(1, 1), sample)
    vec_eye = np.eye(3).flatten(order="F")
    assert np.allclose(bundle.hess, 2 * np.outer(vec_eye, vec_eye), atol=1e-12)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("parts", [(2,), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_derivatives_match_finite_differences(n, parts):
    partition = Partition.of(*parts)
    sample = random_son(n, 31 * n + sum(parts))
    u = sample.matrix
    bundle = euclid_derivatives(partition, sample)
    fd_g = _fd_gradient_ref(lambda mat: _value_ref(partition, mat), u)
    assert np.max(np.abs(bundle.grad - fd_g)) <= 1e-6
    fd_h = _fd_hessian_ref(lambda mat: euclid_derivatives_matrix(partition, mat)[0], u)
    assert np.max(np.abs(bundle.hess - fd_h)) <= 1e-6


def test_euclid_derivatives_forms_the_powers_once(monkeypatch):
    """The value, gradient and dense Hessian read one set of matrix powers,
    and applying K as a row permutation gives the K-product bit for bit."""
    calls = []
    powers = numeric._powers
    monkeypatch.setattr(numeric, "_powers", lambda u, top: calls.append(top) or powers(u, top))
    partition = Partition.of(3, 2, 1)
    sample = random_son(4, 5)
    bundle = euclid_derivatives(partition, sample)
    assert calls == [3]
    grad, hess = _dense_derivatives_ref(partition, sample.matrix)
    assert bundle.value == _value_ref(partition, sample.matrix)
    assert np.array_equal(bundle.grad, grad)
    assert np.array_equal(bundle.hess, hess)


def test_bundle_symmetry_guard():
    with pytest.raises(ValueError):
        DerivativeBundle(0.0, np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# the Laplacian oracle


def test_lap_numeric_p1_so5():
    sample = random_son(5, 17)
    got = lap_numeric(Partition.of(1), sample)
    assert abs(got - (-2.0) * np.trace(sample.matrix)) <= 1e-9


def test_lap_numeric_constant():
    poly = TracePoly.constant(9, general_at(4))
    sample = random_son(4, 2)
    assert abs(lap_numeric(poly, sample)) <= 1e-12


def test_lap_numeric_vs_symbolic_single_monomial():
    partition = Partition.of(2, 1)
    symbolic = lap_partition(partition).substitute_n(4)
    for seed in range(10):
        sample = random_son(4, seed)
        got = lap_numeric(partition, sample)
        ref = eval_tracepoly(symbolic, sample)
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


def test_eval_tracepoly_ignores_term_order():
    # at U = I every p_m is 4, so the term values are 2^53, 1 and -2^53; a
    # left-to-right float sum gives 0 in this order and 1 in the reverse one
    items = [(Partition(), 2**53), (Partition.of(1), Fraction(1, 4)), (Partition.of(2), -(2**51))]
    forward = TracePoly(dict(items), general_at(4))
    backward = TracePoly(dict(reversed(items)), general_at(4))
    assert eval_tracepoly(forward, np.eye(4)) == eval_tracepoly(backward, np.eye(4)) == 1.0
    image = lap_partition(Partition.of(4, 3, 2, 1, 1)).substitute_n(5)
    reversed_image = TracePoly(dict(reversed(list(image.terms.items()))), image.mode)
    for seed in range(5):
        sample = random_son(5, seed)
        assert eval_tracepoly(image, sample) == eval_tracepoly(reversed_image, sample)


def test_eval_tracepoly_float_path_survives_cancellation():
    # the reduced high-degree characters cancel huge power-form terms; the
    # float path used to be off by 0.19 (SO(3), k=30) and 3e-5 (SO(4), 15/15)
    for poly in (character_so3(30).poly, character_so4(15, 15).poly):
        for seed in range(20):
            sample = random_son(poly.mode.n, seed)
            want = exact_value(poly, sample)
            assert abs(eval_tracepoly(poly, sample) - want) <= 1e-9 * max(1.0, abs(want))


def test_traces_evaluation_keeps_the_exact_fallback():
    """The laplacian suite evaluates each image from the sample's shared
    traces.  The SO(3) character at k = 30, a polynomial in p_1, cancels so
    much that the plain float sum is off at this rotation; the evaluation
    from the traces falls back to the exact one, as eval_tracepoly does."""
    poly = character_so3(30).poly
    sample = random_son(3, 1)
    traces = [float(np.trace(p)) for p in _powers(sample.matrix, 1)]
    values = [
        math.prod((traces[m] for m in part), start=float(c)) for part, c in poly.terms.items()
    ]
    exact = exact_value(poly, sample)
    assert abs(math.fsum(values) - exact) > 1e-9
    assert _eval_traces(poly, traces) == exact


def test_lap_numeric_ignores_term_order():
    image = lap_partition(Partition.of(4, 3, 2, 1, 1)).substitute_n(5)
    reversed_image = TracePoly(dict(reversed(list(image.terms.items()))), image.mode)
    for seed in range(20):
        sample = random_son(5, seed)
        assert lap_numeric(image, sample) == lap_numeric(reversed_image, sample)


def test_lap_numeric_tracepoly_linearity():
    poly = (
        TracePoly.monomial(Partition.of(2), Fraction(3, 2), general_at(4))
        - TracePoly.monomial(Partition.of(1, 1), 2, general_at(4))
    )
    sample = random_son(4, 12)
    direct = lap_numeric(poly, sample)
    split = 1.5 * lap_numeric(Partition.of(2), sample) - 2.0 * lap_numeric(
        Partition.of(1, 1), sample
    )
    assert abs(direct - split) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("orthogonal", [True, False])
def test_closed_form_traces_match_dense_hessian(n, orthogonal):
    # the closed forms hold at any square matrix; a general one also tells
    # apart table entries that coincide on rotations, such as <U^a, U^b>
    # and <U^(a+1), U^(b+1)>
    if orthogonal:
        u = random_son(n, 400 + n).matrix
    else:
        u = np.random.default_rng(400 + n).standard_normal((n, n)) / math.sqrt(n)
    lam = _loop_lambda(u)
    tables = _power_tables(*_power_stacks(_powers(u, 5)), 5)
    for partition in enumerate_upto(5):
        grad, hess = euclid_derivatives_matrix(partition, u)
        radial, tr_hess, tr_lam_hess = _monomial_traces(partition, *tables)
        for got, ref in (
            (radial, float(np.sum(u * grad))),
            (tr_hess, float(np.trace(hess))),
            (tr_lam_hess, float(np.einsum("ij,ji", lam, hess))),
        ):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (partition, got, ref)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_lap_numeric_matrix_free_matches_dense_bundle(n):
    """The matrix-free Laplacian equals the dense one, and both p_lam and its
    Laplacian keep their values when reduced onto p_1, ..., p_{n // 2} in so(n)."""
    for seed in range(3):
        sample = random_son(n, 500 + 10 * seed + n)
        for partition in enumerate_upto(5):
            got = lap_numeric(partition, sample)
            ref = laplace_beltrami_value(euclid_derivatives(partition, sample), sample)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (partition, got, ref)
            monomial = TracePoly.monomial(partition, 1, general_at(n))
            value = eval_tracepoly(monomial, sample)
            reduced = eval_tracepoly(monomial.reduce(so(n)), sample)
            assert abs(reduced - value) <= 1e-9 * max(1.0, abs(value)), (partition, reduced, value)
            image = lap_partition(partition).substitute_n(n).reduce(so(n))
            assert abs(eval_tracepoly(image, sample) - got) <= 1e-9 * max(1.0, abs(got)), partition


def test_lap_numeric_tracepoly_errors():
    sample = random_son(4, 1)
    symbolic = lap_partition(Partition.of(2, 1))
    with pytest.raises(ValueError, match="concrete N"):
        lap_numeric(symbolic, sample)
    with pytest.raises(ValueError, match="N=5"):
        lap_numeric(symbolic.substitute_n(5), sample)
    with pytest.raises(TypeError):
        lap_numeric("p_2", sample)
    with pytest.raises(TypeError):  # a dense bundle goes through laplace_beltrami_value
        lap_numeric(euclid_derivatives(Partition.of(2), sample), sample)


def test_verify_partition_memory_at_n60():
    # a dense n^2 x n^2 Hessian at n = 60 alone would take 104 MB
    tracemalloc.start()
    try:
        report = verify_partition(60, Partition.of(2, 1), samples=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# sphere Laplacian


def test_sphere_harmonic_quadratic():
    n = 5
    rng = np.random.default_rng(4)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    grad = np.zeros(n)
    grad[0], grad[1] = x[1], x[0]
    hess = np.zeros((n, n))
    hess[0, 1] = hess[1, 0] = 1.0
    got = sphere_lap_numeric(grad, hess, x, 1.0)
    assert abs(got - (-2 * n) * x[0] * x[1]) <= 1e-10


def test_sphere_constant():
    x = np.array([1.0, 0.0, 0.0])
    assert sphere_lap_numeric(np.zeros(3), np.zeros((3, 3)), x, 1.0) == 0.0


def test_sphere_linear_coordinate():
    x = np.array([0.6, 0.8, 0.0])
    grad = np.array([1.0, 0.0, 0.0])
    got = sphere_lap_numeric(grad, np.zeros((3, 3)), x, 1.0)
    assert abs(got - (-2.0) * x[0]) <= 1e-12


def test_sphere_rejects_off_sphere_point():
    with pytest.raises(ValueError):
        sphere_lap_numeric(np.zeros(3), np.zeros((3, 3)), np.array([1.0, 1.0, 0.0]), 1.0)


# ---------------------------------------------------------------------------
# Gegenbauer


def test_gegenbauer_base_cases():
    assert gegenbauer(0, 0.5, 0.3) == (1.0, 0.0, 0.0)
    v, d1, d2 = gegenbauer(1, 0.5, 0.3)
    assert (v, d1, d2) == (0.3, 1.0, 0.0)


def test_gegenbauer_legendre_degree_two():
    v, d1, d2 = gegenbauer(2, 0.5, 0.4)
    assert abs(v - (3 * 0.4**2 - 1) / 2) <= 1e-15
    assert abs(d1 - 3 * 0.4) <= 1e-15
    assert abs(d2 - 3.0) <= 1e-15


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", range(9))
def test_gegenbauer_ode_residual(n, k):
    alpha = (n - 2) / 2
    for x in np.linspace(-0.95, 0.95, 11):
        v, d1, d2 = gegenbauer(k, alpha, float(x))
        residual = (1 - x * x) * d2 - (n - 1) * x * d1 + k * (k + n - 2) * v
        assert abs(residual) <= 1e-9 * max(1.0, abs(v))


# ---------------------------------------------------------------------------
# tangential gradients


@pytest.mark.parametrize("n", [3, 5])
def test_tangential_gradient_closed_forms(n):
    for seed in range(5):
        sample = random_son(n, 100 + seed)
        u = sample.matrix
        p1 = float(np.trace(u))
        for q in range(6):
            grad = euclid_derivatives(Partition((1,) * q), sample).grad
            got = tangential_gradient(grad, u)
            ref = 0.5 * q * p1 ** (q - 1) * (np.eye(n) - u @ u) if q else np.zeros((n, n))
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        for m in range(1, 6):
            grad = euclid_derivatives(Partition((m,)), sample).grad
            got = tangential_gradient(grad, u)
            ref = 0.5 * m * (
                np.linalg.matrix_power(u.T, m - 1) - np.linalg.matrix_power(u, m + 1)
            )
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [3, 5])
def test_gradient_pairing_closed_form(n):
    for seed in range(5):
        sample = random_son(n, 700 + seed)
        u = sample.matrix
        pows = [np.linalg.matrix_power(u, t) for t in range(11)]
        traces = [float(np.trace(p)) for p in pows]
        for m in range(1, 6):
            gm = tangential_gradient(euclid_derivatives(Partition((m,)), sample).grad, u)
            for mp in range(1, m + 1):
                gmp = tangential_gradient(
                    euclid_derivatives(Partition((mp,)), sample).grad, u
                )
                got = 2 * float(np.sum(gm * gmp))
                base = float(n) if m == mp else traces[m - mp]
                ref = m * mp * (base - traces[m + mp])
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# verification reports


def test_verify_partition_examples():
    assert verify_partition(3, Partition.of(2), samples=50, seed=10).passed
    assert verify_partition(6, Partition.of(3, 2), samples=50, seed=10).passed
    empty = verify_partition(4, Partition.of(), samples=5, seed=10)
    assert empty.passed and empty.max_abs_err == 0.0


def test_verify_partition_deterministic():
    a = verify_partition(4, Partition.of(2, 1), samples=8, seed=77)
    b = verify_partition(4, Partition.of(2, 1), samples=8, seed=77)
    assert a == b


def test_verify_reduction_is_order_independent():
    # the reported maxima must not depend on sample evaluation order
    import numpy as np

    from sonlap import eval_tracepoly, lap_numeric, lap_partition

    n, samples, seed = 4, 8, 77
    partition = Partition.of(2, 1)
    report = verify_partition(n, partition, samples=samples, seed=seed)
    symbolic = lap_partition(partition).substitute_n(n)
    errors = []
    for stream in np.random.SeedSequence(seed).spawn(samples):
        sample = random_son(n, stream)
        got = lap_numeric(partition, sample)
        ref = eval_tracepoly(symbolic, sample)
        errors.append((abs(got - ref), abs(got - ref) / max(1.0, abs(ref))))
    for order in (errors, errors[::-1], sorted(errors)):
        assert max(e[0] for e in order) == report.max_abs_err
        assert max(e[1] for e in order) == report.max_rel_err


def test_verify_gegenbauer_examples():
    report = verify_gegenbauer(3, 2, 1, 3, samples=20, seed=5)
    assert report.passed
    report = verify_gegenbauer(5, 1, 2, 4, samples=20, seed=5)
    assert report.passed
    report = verify_gegenbauer(4, 0, 1, 1, samples=5, seed=5)
    assert report.passed and report.max_abs_err == 0.0


@pytest.mark.parametrize("n, k, i, j", [(3, 2, 1, 3), (5, 4, 2, 4), (7, 6, 3, 7)])
def test_verify_gegenbauer_matches_dense_bundle(n, k, i, j):
    samples, seed = 6, 13
    report = verify_gegenbauer(n, k, i, j, samples=samples, seed=seed)
    alpha = (n - 2) / 2
    abs_errs, rel_errs = [], []
    for stream in np.random.SeedSequence(seed).spawn(samples):
        sample = random_son(n, stream)
        entry = float(sample.matrix[i - 1, j - 1])
        value, d1, d2 = gegenbauer(k, alpha, entry)
        grad = np.zeros((n, n))
        grad[i - 1, j - 1] = d1
        hess = np.zeros((n * n, n * n))
        slot = (j - 1) * n + (i - 1)
        hess[slot, slot] = d2
        got = laplace_beltrami_value(DerivativeBundle(value, grad, hess), sample)
        ref = -k * (k + n - 2) / 2 * value
        abs_errs.append(abs(got - ref))
        rel_errs.append(abs(got - ref) / max(1.0, abs(ref)))
    assert abs(report.max_abs_err - max(abs_errs)) <= 1e-12
    assert abs(report.max_rel_err - max(rel_errs)) <= 1e-12


def test_verify_identities_default_tolerances():
    for n in (3, 4, 5, 6):
        reports = verify_identities(n, samples=6, seed=42)
        for report in reports:
            assert report.passed, (n, report.params, report.max_rel_err)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_verify_identities_matches_the_frozen_suite(n):
    """One shared finite-difference sweep and one error rule give the former
    suite's reports field for field, floats included."""
    for seed in (1, 77):
        assert verify_identities(n, samples=3, seed=seed) == verify_identities_reference(
            n, samples=3, seed=seed
        )


def test_identity_suite_forms_powers_once_per_displaced_point(monkeypatch):
    """Each finite-differenced monomial evaluates the plus and the minus stack
    of a chunk once each: for every sample, in sample order, exactly the
    2 n^2 distinct points U +- step E_ij in column-major entry order, and no
    displaced point is evaluated alone; at one sample and at two."""
    n, step = 4, 1e-5
    drawn, stacks, other = [], [], []
    powers, draw = numeric._powers, numeric._haar_stack

    def recording_draw(*args):
        stack = draw(*args)
        drawn.append(stack)
        return stack

    def counting(u, top):
        if u.shape == drawn[-1].shape and np.array_equal(u, drawn[-1]):
            pass  # the drawn samples themselves
        elif u.ndim == 3 and len(u) == len(drawn[-1]) * n * n:
            stacks.append(u.copy())
        else:
            other.append(u.copy())
        return powers(u, top)

    monkeypatch.setattr(numeric, "_haar_stack", recording_draw)
    monkeypatch.setattr(numeric, "_powers", counting)
    for samples in (1, 2):
        for log in (drawn, stacks, other):
            log.clear()
        verify_identities(n, samples=samples)
        assert [len(stack) for stack in drawn] == [samples]
        plus, minus = [], []
        for u in drawn[0]:
            for j in range(n):
                for i in range(n):
                    bump = np.zeros((n, n))
                    bump[i, j] = step
                    plus.append(u + bump)
                    minus.append(u - bump)
        assert other == []
        assert len(stacks) == 2 * len(numeric._FD_PARTITIONS)
        for got_plus, got_minus in zip(stacks[::2], stacks[1::2]):
            assert np.array_equal(got_plus, np.array(plus))
            assert np.array_equal(got_minus, np.array(minus))
            for s in range(samples):
                points = slice(s * n * n, (s + 1) * n * n)
                distinct = {mat.tobytes() for mat in (*got_plus[points], *got_minus[points])}
                assert len(distinct) == 2 * n * n


def test_verify_suites_refuse_a_negative_seed_before_any_draw(monkeypatch):
    """numpy's own refusal of a negative seed does not name it."""
    monkeypatch.setattr(numeric, "_haar_stack", lambda n, seeds: pytest.fail("drew a sample"))
    for suite in (
        lambda: verify_laplacian(3, [Partition.of(1)], seed=-1),
        lambda: verify_gegenbauer_families(3, [(1, 1, 1)], seed=-1),
        lambda: verify_identities(3, seed=-1),
    ):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            suite()


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_suites_refuse_an_empty_sample_set(samples):
    """A report over no samples would pass without checking anything."""
    for suite in (
        lambda: verify_partition(3, Partition.of(1), samples=samples),
        lambda: verify_gegenbauer(3, 1, 1, 1, samples=samples),
        lambda: verify_identities(3, samples=samples),
        lambda: verify_laplacian(3, [Partition.of(1)], samples=samples),
        lambda: verify_gegenbauer_families(3, [(1, 1, 1)], samples=samples),
    ):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            suite()


def test_laplacian_suite_refuses_an_empty_sample_set_before_any_image(monkeypatch):
    built = []
    monkeypatch.setattr(numeric, "lap_partition", lambda p: built.append(p))
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        verify_laplacian(3, [Partition.of(1), Partition.of(2)], samples=0)
    assert built == []


@pytest.mark.parametrize(
    "n, bad, message",
    [
        (3, (1, 4, 1), "entry indices out of range"),
        (3, (1, 1, 0), "entry indices out of range"),
        (2, (1, 1, 2), "needs n >= 3"),
        (3, (-1, 1, 1), "k must be nonnegative"),
    ],
)
def test_gegenbauer_suite_validates_every_family_before_any_draw(monkeypatch, n, bad, message):
    draws = []
    monkeypatch.setattr(numeric, "_haar_stack", lambda *args: draws.append(args))
    good = [(0, 1, 1), (2, 1, 2)] if n >= 3 else []
    with pytest.raises(ValueError, match=message):
        verify_gegenbauer_families(n, good + [bad], samples=2)
    with pytest.raises(ValueError, match=message):
        verify_gegenbauer(n, *bad, samples=2)
    assert draws == []


@pytest.mark.parametrize(
    "argv", [("laplacian", "4", "4"), ("gegenbauer", "5", "6")], ids=lambda a: a[0]
)
def test_verify_suite_draws_one_rotation_per_sample(monkeypatch, capsys, argv):
    """Every family of a suite is checked at the same rotations, so a run over
    3 samples draws 3 rotations, in one stack, however many families it
    checks."""
    suite, n, k = argv
    draw, draws = numeric._haar_stack, []

    def counting(n, seeds):
        draws.append(len(seeds))
        return draw(n, seeds)

    monkeypatch.setattr(numeric, "_haar_stack", counting)
    assert main(["verify", "--suite", suite, "--n", n, "--k", k, "--samples", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)) > 3
    assert draws == [3]


@pytest.mark.parametrize("n", [3, 5, 6, 8, 20])
def test_laplacian_suite_matches_the_per_family_loop(n):
    """One shared sample loop gives the per-family reports field for field,
    floats included.  The suite shares each sample's powers, traces and
    tables; from n = 6 on, a table cut from a wider product would differ in
    the last bits, so each largest part gets its own."""
    partitions = list(enumerate_upto(6))
    for seed in (1, 77):
        assert verify_laplacian(n, partitions, samples=3, seed=seed) == [
            verify_partition_reference(n, p, samples=3, seed=seed) for p in partitions
        ]


def _chunk_corners(entries_per_sample):
    """Sample counts at the chunk boundaries: one sample, and a partial last
    chunk after a full one."""
    per_chunk = max(1, numeric._STACK_ENTRIES // entries_per_sample)
    return [1, per_chunk + 1 + per_chunk // 2]


@pytest.mark.parametrize("n", [3, 4, 8, 9])
def test_identities_match_the_frozen_suite_across_chunks(n):
    """At n = 8 and 9 a chunk holds one sample; below, a partial last chunk
    follows a full one."""
    for samples in _chunk_corners(n**4):
        assert verify_identities(n, samples=samples, seed=9) == verify_identities_reference(
            n, samples=samples, seed=9
        ), samples


@pytest.mark.parametrize("n", [3, 7, 25])
def test_laplacian_suite_matches_the_per_family_loop_across_chunks(n):
    partitions = list(enumerate_upto(6))
    for samples in _chunk_corners(7 * n * n):
        assert verify_laplacian(n, partitions, samples=samples, seed=4) == [
            verify_partition_reference(n, p, samples=samples, seed=4) for p in partitions
        ], samples


@pytest.mark.parametrize("n", [10, 64])
def test_gegenbauer_suite_matches_the_per_family_loop_across_chunks(n):
    families = [(k, i, j) for k in (0, 3, 6) for i, j in ((1, 1), (n // 2, n))]
    for samples in _chunk_corners(n * n):
        assert verify_gegenbauer_families(n, families, samples=samples, seed=4) == [
            verify_gegenbauer_reference(n, *family, samples=samples, seed=4)
            for family in families
        ], samples


def test_a_nan_error_fails_its_family():
    """max(0.0, nan) is 0.0, so a NaN once passed as a zero error."""
    errs = numeric._chunk_errors(np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0, 2.0]))
    assert np.isnan(errs).all()
    report = numeric._report("t", 3, {}, 3, 0, 1e-8, errs)
    assert not report.passed
    arrays = numeric._chunk_errors(np.zeros((2, 3, 3)), np.full((2, 3, 3), np.nan), (1, 2))
    assert np.isnan(arrays).all()


def test_a_nan_family_fails_the_cli(monkeypatch, capsys):
    """A family whose symbolic side turns NaN at one sample reports NaN and
    fails, and the verify command exits 1; the other families pass."""
    evaluate, calls = numeric._eval_traces, []

    def nan_once(poly, traces):
        calls.append(poly)
        return math.nan if len(calls) == 5 else evaluate(poly, traces)

    monkeypatch.setattr(numeric, "_eval_traces", nan_once)
    argv = ["verify", "--suite", "laplacian", "--n", "4", "--k", "2", "--samples", "3"]
    assert main(argv) == 1
    reports = json.loads(capsys.readouterr().out)
    failed = [r for r in reports if not r["pass"]]
    assert len(failed) == 1 and math.isnan(failed[0]["max_rel_err"])
    assert len(reports) == 4 and all(r["max_rel_err"] <= r["tol"] for r in reports if r["pass"])


@pytest.mark.parametrize("n, samples, bound_mb", [(10, 162, 1.5), (30, 2, 95)])
def test_identity_chunks_stay_within_the_per_sample_memory(n, samples, bound_mb):
    """A chunk of samples holds about the arrays of one sample at n = 8, so a
    run's traced peak stays near that of one sample at a time (1.1 MB and
    87 MB at these corners of the samples x n^4 bound)."""
    tracemalloc.start()
    try:
        verify_identities(n, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


@pytest.mark.parametrize("n", [3, 6, 20])
def test_gegenbauer_suite_matches_the_per_family_loop(n):
    families = [(k, i, j) for k in range(7) for i, j in ((1, 1), (n // 2, n), (n, 2))]
    for seed in (1, 77):
        assert verify_gegenbauer_families(n, families, samples=3, seed=seed) == [
            verify_gegenbauer_reference(n, *family, samples=3, seed=seed) for family in families
        ]


@pytest.mark.parametrize("suite, n, k", [("laplacian", 5, 4), ("gegenbauer", 6, 6)])
def test_verify_cli_prints_the_per_family_reports(capsys, suite, n, k):
    for seed in (1, 77):
        argv = ["verify", "--suite", suite, "--n", str(n), "--k", str(k)]
        assert main(argv + ["--samples", "3", "--seed", str(seed)]) == 0
        if suite == "laplacian":
            reports = [
                verify_partition_reference(n, p, samples=3, seed=seed) for p in enumerate_upto(k)
            ]
        else:
            reports = [
                verify_gegenbauer_reference(n, kk, i, j, samples=3, seed=seed)
                for kk in range(k + 1)
                for i, j in ((1, 1), (n // 2, n))
            ]
        expected = json.dumps([r.to_json_obj() for r in reports], sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED])
def test_sample_streams_are_the_spawned_ones_made_one_at_a_time(seed):
    for samples in (1, 2, 5):
        streams = list(numeric._sample_streams(seed, samples))
        spawned = np.random.SeedSequence(seed).spawn(samples)
        assert [s.spawn_key for s in streams] == [s.spawn_key for s in spawned]
        for got, want in zip(streams, spawned):
            assert got.entropy == want.entropy and got.pool_size == want.pool_size
            assert np.array_equal(got.generate_state(8), want.generate_state(8))
            assert [c.spawn_key for c in got.spawn(2)] == [c.spawn_key for c in want.spawn(2)]


def test_sample_streams_refuse_before_any_stream_is_drawn():
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        numeric._sample_streams(1, 0)  # the call raises; nothing is iterated
    streams = numeric._sample_streams(1, 10**12)  # made lazily, so this costs nothing
    assert next(streams).spawn_key == (0,)


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "laplacian", "--n", "4", "--k", "3"),
        ("--suite", "gegenbauer", "--n", "5", "--k", "4"),
        ("--suite", "identities", "--n", "3"),
    ],
)
def test_verify_output_is_unchanged_by_lazy_streams(monkeypatch, capsys, argv):
    """The verify reports are byte-identical to those of the streams spawned up front."""
    argv = ("verify", *argv, "--samples", "3", "--seed", "77")
    assert main(list(argv)) == 0
    lazy = capsys.readouterr().out

    def spawned(seed, samples):
        return np.random.SeedSequence(seed).spawn(samples)

    monkeypatch.setattr(numeric, "_sample_streams", spawned)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == lazy


def test_verify_report_json_shape():
    report = verify_partition(3, Partition.of(1), samples=3, seed=1)
    obj = report.to_json_obj()
    assert set(obj) == {
        "target", "n", "params", "samples", "seed", "tol",
        "max_abs_err", "max_rel_err", "pass",
    }
