"""Floating-point oracle for the SO(N) Laplacian via ambient matrix calculus.

Everything here operates on concrete rotation matrices in double precision
and exists to cross-validate the exact symbolic results.  For a smooth
prolongation f of a function on SO(N),

    lap f(U) = 1/2 tr(Hess f) - (N-1)/2 tr(U^t grad f)
               - 1/2 tr(Lambda(U) Hess f),

where grad/Hess are the Euclidean matrix-form derivatives in column-major
vectorization order and Lambda(U) is the n^2 x n^2 block matrix whose
(i, j) block is u_j u_i^t.  The sphere analogue for the radius-R sphere is

    lap h(x) = tr(Hess h) - tr(x x^t Hess h)/R^2 - (N-1) <x, grad h> / R^2.

The formula needs only two scalar contractions of the Hessian, so trace
monomials and trace polynomials are evaluated matrix-free.  The gradient of
p_m is g = m (U^t)^{m-1} and its Hessian is m K sum_r (U^t)^r kron U^{m-2-r}
with K the commutation matrix; since tr(K (A kron B)) = tr(AB) and
Lambda K = U^t kron U,

    tr(Hess p_m) = m sum_{r=0}^{m-2} tr((U^t)^r U^{m-2-r}),
    tr(Lambda Hess p_m) = m sum_{r=0}^{m-2} p_{r+1} p_{m-1-r},

and each rank-one product-rule term vec(g_i) vec(g_j)^t of a monomial adds
<g_i, g_j> and tr(U^t g_j U^t g_i).  All of these are entries of two small
tables, <U^a, U^b> and tr(U^a U^b) over the powers up to the largest part,
so nothing of size n^4 is built: the matrix powers cost O(m n^3) and each
monomial is then a few float products.  The dense n^2 x n^2 Hessian
(:func:`euclid_derivatives`) and the explicit K and Lambda(U)
(:func:`structure_matrices`) remain for caller-supplied derivative bundles
and for :func:`verify_identities`, which checks them against finite
differences and each other.  Finite differences appear only as a secondary
oracle inside verification reports, never on the evaluation path.  One
central-difference sweep per monomial stacks the n^2 points U + step E_ij
into one (n^2, n, n) array and the n^2 points U - step E_ij into another,
and takes the value and gradient at every point of a stack from one set of
batched powers.  Batched products and traces equal the per-matrix ones bit
for bit, so the reports equal those of a loop over the points.  Every
report keeps max |got - ref| and its ratio to max(1, |ref|), and passes
when that ratio is within tol.

A suite (:func:`verify_laplacian`, :func:`verify_gegenbauer_families`)
draws each Haar rotation once and checks every family at it.  The reports
equal those of one run per family: every family of a run reads the same
seeded stream per sample, hence the same rotations, and its arithmetic at
each rotation is unchanged.  The laplacian suite builds each sample's
powers, their traces and the two flattened power stacks once for all its
partitions and images, and one pair of tables per distinct largest part:
:func:`lap_numeric` and :func:`eval_tracepoly` are thin wrappers over the
same two helpers, so the suite's floats are theirs bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .laplacian import lap_partition
from .partitions import Partition
from .tracepoly import TracePoly

DEFAULT_SEED = 20230

_ORTHO_TOL = 1e-12


@dataclass
class RotationSample:
    """A concrete special orthogonal matrix with its provenance."""

    n: int
    matrix: np.ndarray
    provenance: str = ""

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {self.matrix.shape}")
        self._check(np.linalg.det(self.matrix))

    def _check(self, det: float) -> None:
        """Refuse a matrix off SO(n) by more than the tolerance; ``det`` is its determinant."""
        gram_err = np.max(np.abs(self.matrix.T @ self.matrix - np.eye(self.n)))
        det_err = abs(det - 1.0)
        if gram_err > _ORTHO_TOL or det_err > _ORTHO_TOL:
            raise ValueError(
                f"not special orthogonal: |U^tU-I|={gram_err:.2e}, |det-1|={det_err:.2e}"
            )

    @classmethod
    def _drawn(cls, matrix: np.ndarray, det: float, provenance: str) -> RotationSample:
        """A checked sample of a square float matrix whose determinant the caller took."""
        sample = object.__new__(cls)
        sample.n, sample.matrix, sample.provenance = matrix.shape[0], matrix, provenance
        sample._check(det)
        return sample

    @property
    def columns(self) -> np.ndarray:
        return self.matrix


@dataclass
class DerivativeBundle:
    """Value, matrix-form gradient and vectorized Hessian of a prolongation."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self) -> None:
        asym = np.max(np.abs(self.hess - self.hess.T)) if self.hess.size else 0.0
        if asym > 1e-10:
            raise ValueError(f"Hessian not symmetric: {asym:.2e}")


def random_son(n: int, seed) -> RotationSample:
    """Haar-distributed rotation, deterministic in (n, seed).

    Gaussian matrix, QR with the R-diagonal sign correction (making the
    orthogonal factor Haar on O(n)), then determinant fixed to +1 by negating
    the last column.  The determinant is taken once: negating a column
    negates it exactly, so the sample's check reuses it.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    for _ in range(8):
        gauss = rng.standard_normal((n, n))
        q, r = np.linalg.qr(gauss)
        diag = np.diagonal(r)
        if np.any(diag == 0.0):
            continue  # measure-zero degenerate draw
        q = q * np.sign(diag)
        det = np.linalg.det(q)
        if det < 0:
            q[:, -1] = -q[:, -1]
            det = -det
        return RotationSample._drawn(q, det, provenance=f"haar(n={n}, seed={seed})")
    raise RuntimeError("degenerate Gaussian draws persisted")


def rotation_from_angles(n: int, angles) -> RotationSample:
    """Canonical block-diagonal rotation with prescribed rotation angles.

    Takes n // 2 angles; angle i is the 2x2 rotation block on coordinates
    2i, 2i+1, so the eigenvalues are exp(+-i a) per angle a, and a trailing 1
    when n is odd.
    """
    angles = [float(a) for a in (angles if hasattr(angles, "__len__") else [angles])]
    if len(angles) != n // 2:
        raise ValueError(f"n={n} takes exactly {n // 2} angle(s), got {len(angles)}")
    u = np.eye(n)
    for i, a in enumerate(angles):
        block = slice(2 * i, 2 * i + 2)
        u[block, block] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    return RotationSample(n, u, provenance=f"angles={angles}")


def commutation_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 permutation with K vec(A) = vec(A^t), column-major."""
    index = np.arange(n * n).reshape(n, n)
    k = np.zeros((n * n, n * n))
    k[index.T, index] = 1.0
    return k


def structure_matrices(sample: RotationSample) -> tuple[np.ndarray, np.ndarray]:
    """(K, Lambda(U)): commutation matrix and the column-outer block matrix."""
    n = sample.n
    u = sample.matrix
    lam = np.einsum("ib,ja->aibj", u, u).reshape(n * n, n * n)
    return commutation_matrix(n), lam


def _vec(matrix: np.ndarray) -> np.ndarray:
    return matrix.flatten(order="F")


def _powers(u: np.ndarray, top: int) -> list[np.ndarray]:
    """I, U, ..., U^top of a square matrix, or of each matrix of a stack
    (..., n, n); a stack's powers are its matrices' powers, bit for bit."""
    out = [np.broadcast_to(np.eye(u.shape[-1]), u.shape)]
    for _ in range(top):
        out.append(out[-1] @ u)
    return out


def _powers_and_traces(partition: Partition, u: np.ndarray) -> tuple[list[np.ndarray], list]:
    """Powers I, U, ..., U^top of a square matrix or of each matrix of a
    stack, top the largest part, and the trace p_m of each factor of the
    monomial, in part order: a float for a matrix, an array over a stack."""
    pows = _powers(np.asarray(u, dtype=float), max(partition.parts, default=0))
    return pows, [np.trace(pows[m], axis1=-2, axis2=-1) for m in partition.parts]


def euclid_derivatives(partition: Partition, sample: RotationSample) -> DerivativeBundle:
    """Euclidean value/gradient/Hessian of the trace monomial at the sample.

    Gradient of p_m is m (U^t)^{m-1}; the Hessian of p_m (m >= 2) is
    m K sum_{r=0}^{m-2} (U^t)^r kron U^{m-2-r}.  The monomial's derivatives
    follow from the product rule, including the rank-one cross terms
    vec(grad p_i) vec(grad p_j)^t.
    """
    return DerivativeBundle(*_dense_derivatives(partition, sample.matrix))


def _rest_product(values: list[float], skip: tuple[int, ...]) -> float:
    """Product of the monomial's factor traces other than those in ``skip``."""
    prod = 1.0
    for idx, val in enumerate(values):
        if idx not in skip:
            prod *= val
    return prod


def _top_part(partitions: Iterable[Partition]) -> int:
    """The largest part over the partitions; 0 when there is none."""
    return max((max(p.parts, default=0) for p in partitions), default=0)


def _power_stacks(pows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The powers and their transposes, each power flattened into one row."""
    flat = np.stack(pows).reshape(len(pows), -1)
    return flat, np.stack([p.T for p in pows]).reshape(len(pows), -1)


def _power_tables(
    flat: np.ndarray, flat_t: np.ndarray, top: int
) -> tuple[list[list[float]], list[list[float]]]:
    """Frobenius products <U^a, U^b> and traces tr(U^a U^b) for 0 <= a, b <= top,
    from the first top + 1 rows of the :func:`_power_stacks`.  The width of
    the product decides its last bits, so a table is never cut from a wider one."""
    head, head_t = flat[: top + 1], flat_t[: top + 1]
    return (head @ head.T).tolist(), (head @ head_t.T).tolist()


def _monomial_traces(
    partition: Partition, frob: list[list[float]], prod: list[list[float]]
) -> tuple[float, float, float]:
    """(tr(U^t grad), tr Hess, tr(Lambda(U) Hess)) of a trace monomial, matrix-free.

    ``frob`` and ``prod`` are the :func:`_power_tables` up to at least the
    largest part.  tr((U^t)^r U^{m-2-r}) = <U^r, U^{m-2-r}>, and with
    g_i = m_i (U^t)^{m_i-1} the gradient of the factor p_{m_i}, the
    rank-one Hessian term vec(g_i) vec(g_j)^t contributes
    <g_i, g_j> = m_i m_j <U^{m_i-1}, U^{m_j-1}> and
    tr(U^t g_j U^t g_i) = m_i m_j tr(U^{m_i} U^{m_j}).
    """
    parts = partition.parts
    traces = [row[0] for row in prod]
    values = [traces[m] for m in parts]
    radial = tr_hess = tr_lam_hess = 0.0
    for i, m in enumerate(parts):
        rest = _rest_product(values, (i,))
        radial += rest * m * values[i]  # tr(U^t g_i) = m p_m
        tr_hess += rest * m * sum(frob[r][m - 2 - r] for r in range(m - 1))
        tr_lam_hess += rest * m * sum(traces[r + 1] * traces[m - 1 - r] for r in range(m - 1))
        for j, mp in enumerate(parts):
            if j != i:
                pair = _rest_product(values, (i, j)) * m * mp
                tr_hess += pair * frob[m - 1][mp - 1]
                tr_lam_hess += pair * prod[m][mp]
    return radial, tr_hess, tr_lam_hess


def _group_laplacian(n: int, radial: float, tr_hess: float, tr_lam_hess: float) -> float:
    """The ambient formula from tr(U^t grad f), tr(Hess f) and tr(Lambda Hess f)."""
    return 0.5 * tr_hess - 0.5 * (n - 1) * radial - 0.5 * tr_lam_hess


def _check_concrete(poly: TracePoly, n: int, where: str) -> None:
    """Refuse a polynomial that is not at the concrete N = n; ``where`` names n's source."""
    if poly.mode.symbolic:
        raise ValueError("substitute a concrete N before numeric evaluation")
    if poly.mode.n != n:
        raise ValueError(f"polynomial lives at N={poly.mode.n}, {where}")


def laplace_beltrami_value(bundle: DerivativeBundle, sample: RotationSample) -> float:
    """Evaluate the group Laplacian from a prolongation's dense derivative bundle.

    tr(Lambda(U) Hess) is contracted against U on the Hessian reshaped to
    (n, n, n, n), where hess4[j, i, l, k] = d^2 f / du_ij du_kl, without
    building Lambda(U).
    """
    n = sample.n
    u = sample.matrix
    hess4 = bundle.hess.reshape(n, n, n, n)
    radial = float(np.sum(u * bundle.grad))  # tr(U^t grad)
    curved = float(np.einsum("bkai,ib,ka->", hess4, u, u))
    return _group_laplacian(n, radial, float(np.trace(bundle.hess)), curved)


def lap_numeric(target, sample: RotationSample) -> float:
    """Group Laplacian of a Partition, TracePoly, or prebuilt bundle at U.

    Partitions and trace polynomials use the closed-form Hessian traces and
    build nothing of size n^4; a bundle is contracted densely.  The term
    values are summed with ``math.fsum``, so the result does not depend on
    the order of the terms.
    """
    if isinstance(target, DerivativeBundle):
        return laplace_beltrami_value(target, sample)
    if isinstance(target, Partition):
        terms = {target: 1}
    elif isinstance(target, TracePoly):
        _check_concrete(target, sample.n, f"sample has n={sample.n}")
        terms = target.terms
    else:
        raise TypeError(f"cannot evaluate the Laplacian of {type(target).__name__}")
    top = _top_part(terms)
    tables = _power_tables(*_power_stacks(_powers(sample.matrix, top)), top)
    return math.fsum(
        float(coeff) * _group_laplacian(sample.n, *_monomial_traces(part, *tables))
        for part, coeff in terms.items()
    )


def eval_tracepoly(poly: TracePoly, sample, exact: bool = False) -> float:
    """Numeric value of a trace polynomial at a rotation.

    The float path sums the term values with ``math.fsum``, so the result
    does not depend on the order of the terms.  Where sum |term| * 2^-52 *
    (degree + 2), a bound on its rounding error, exceeds 1e-9 * max(1, |sum|)
    (high-degree reduced forms cancel), or with ``exact=True``, the value is
    accumulated exactly over the rationalized traces instead.
    """
    u = sample.matrix if isinstance(sample, RotationSample) else np.asarray(sample, dtype=float)
    n = u.shape[0]
    _check_concrete(poly, n, f"matrix is {n}x{n}")
    traces = [float(np.trace(p)) for p in _powers(u, _top_part(poly.terms))]
    return _eval_traces(poly, traces, exact)


def _eval_traces(poly: TracePoly, traces: list[float], exact: bool = False) -> float:
    """:func:`eval_tracepoly` from the traces p_0, ..., p_top of U's powers,
    top at least the polynomial's largest part; its mode is not checked."""
    terms = poly.terms
    values = [math.prod((traces[m] for m in part), start=float(c)) for part, c in terms.items()]
    total = math.fsum(values)
    slack = math.fsum(map(abs, values)) * 2.0**-52 * (poly.degree + 2)
    if not exact and slack <= 1e-9 * max(1.0, abs(total)):
        return total
    rational = [Fraction(t) for t in traces]
    return float(sum(math.prod((rational[m] for m in part), start=c) for part, c in terms.items()))


def sphere_lap_numeric(grad: np.ndarray, hess: np.ndarray, x: np.ndarray, radius: float) -> float:
    """Sphere Laplacian of a prolongation from its derivatives at x, |x| = R."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - radius) > 1e-10:
        raise ValueError("point is not on the sphere of the given radius")
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    n = x.size
    euclid_lap = float(np.trace(hess))
    second = float(x @ hess @ x)
    first = float(x @ grad)
    return euclid_lap - second / radius**2 - (n - 1) * first / radius**2


def tangential_gradient(euclid_grad: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Project a Euclidean matrix-form gradient onto the tangent space at U."""
    return 0.5 * (euclid_grad - u @ euclid_grad.T @ u)


def gegenbauer(k: int, alpha: float, x: float) -> tuple[float, float, float]:
    """Value and first two derivatives of the Gegenbauer polynomial C_k^(alpha).

    Three-term recurrence k C_k = 2(k+alpha-1) x C_{k-1} - (k+2alpha-2) C_{k-2}
    with its differentiated forms; stable on [-1, 1] at desk-scale k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    v_prev, d_prev, h_prev = 1.0, 0.0, 0.0
    if k == 0:
        return v_prev, d_prev, h_prev
    v_cur, d_cur, h_cur = 2 * alpha * x, 2 * alpha, 0.0
    for j in range(2, k + 1):
        a = 2 * (j + alpha - 1)
        b = j + 2 * alpha - 2
        v_next = (a * x * v_cur - b * v_prev) / j
        d_next = (a * (v_cur + x * d_cur) - b * d_prev) / j
        h_next = (a * (2 * d_cur + x * h_cur) - b * h_prev) / j
        v_prev, d_prev, h_prev = v_cur, d_cur, h_cur
        v_cur, d_cur, h_cur = v_next, d_next, h_next
    return v_cur, d_cur, h_cur


# ---------------------------------------------------------------------------
# finite differences (secondary, report-time oracle)


def _central_differences(fn, u: np.ndarray, step: float) -> np.ndarray:
    """(fn(U + step E_ij) - fn(U - step E_ij)) / (2 step) for every entry (i, j),
    one row per entry in column-major order.

    ``fn`` maps a stack of matrices (n^2, n, n) to one row per matrix, so the
    2 n^2 displaced points take two calls: the plus and the minus stack."""
    n = u.shape[0]
    entry = np.arange(n * n)
    bumps = np.zeros((n * n, n, n))
    bumps[entry, entry % n, entry // n] = step  # stack index j n + i bumps (i, j)
    return (fn(u + bumps) - fn(u - bumps)) / (2 * step)


def _each(fn):
    """A function of one matrix as a function of a stack, one row per matrix."""
    return lambda stack: np.array([fn(mat) for mat in stack])


def fd_gradient(value_fn, u: np.ndarray, step: float = 1e-5) -> np.ndarray:
    return _central_differences(_each(value_fn), u, step).reshape(u.shape, order="F")


def fd_hessian(grad_fn, u: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of the gradient, columns in column-major order."""
    return _central_differences(_each(lambda mat: _vec(grad_fn(mat))), u, step).T


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerifyReport:
    """Outcome of one seeded cross-validation family."""

    target: str
    n: int
    params: dict
    samples: int
    seed: int
    tol: float
    max_abs_err: float
    max_rel_err: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "params": self.params,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }


def _sample_streams(seed: int, samples: int):
    """One independent stream per sample, made as it is drawn; a run with no
    samples checks nothing, and is refused at the call.

    Stream i is ``SeedSequence(seed, spawn_key=(i,))``, the i-th child that
    ``SeedSequence(seed).spawn(samples)`` would build up front.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    entropy = np.random.SeedSequence(seed).entropy
    return (np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(samples))


def _err_update(errs: tuple[float, float], got, ref) -> tuple[float, float]:
    """Running (max abs, max relative) error; arrays compare by their largest
    entries.  Floats stay on plain ``abs``: numpy costs 20x more per call."""
    if isinstance(ref, np.ndarray):
        abs_err = float(np.max(np.abs(got - ref)))
        scale = float(np.max(np.abs(ref)))
    else:
        abs_err = abs(got - ref)
        scale = abs(ref)
    return max(errs[0], abs_err), max(errs[1], abs_err / max(1.0, scale))


def _report(
    target: str, n: int, params: dict, samples: int, seed: int, tol: float, errs
) -> VerifyReport:
    """The report of one family; it passes when the max relative error is within ``tol``."""
    return VerifyReport(target, n, params, samples, seed, tol, errs[0], errs[1], errs[1] <= tol)


def _sweep(n: int, streams, families: int, check) -> list[tuple[float, float]]:
    """Draw one rotation per stream and check every family at it.

    ``check`` maps a sample to one ``(got, ref)`` pair per family; the result
    is each family's running (max abs, max relative) error, in family order.
    Every family of a suite reads the same rotations, so one draw per sample
    serves them all.
    """
    errs = [(0.0, 0.0)] * families
    for stream in streams:
        sample = random_son(n, stream)
        errs = [_err_update(err, *pair) for err, pair in zip(errs, check(sample))]
    return errs


def verify_laplacian(
    n: int,
    partitions: Iterable[Partition],
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> list[VerifyReport]:
    """Compare the ambient-formula Laplacian of each trace monomial against
    its evaluated closed-form symbolic image on the same Haar samples; one
    report per partition, in order."""
    streams = _sample_streams(seed, samples)
    partitions = list(partitions)
    images = [lap_partition(p).substitute_n(n) for p in partitions]
    for image in images:
        _check_concrete(image, n, f"sample has n={n}")
    tops = [max(p.parts, default=0) for p in partitions]
    distinct_tops = set(tops)
    top = max(tops + [_top_part(image.terms) for image in images], default=0)

    def check(sample: RotationSample) -> list[tuple[float, float]]:
        # lap_numeric(p) and eval_tracepoly(image) of every family from one
        # set of powers and traces, and one table per distinct largest part
        pows = _powers(sample.matrix, top)
        traces = [float(np.trace(p)) for p in pows]
        flat, flat_t = _power_stacks(pows)
        tables = {t: _power_tables(flat, flat_t, t) for t in distinct_tops}
        return [
            (_group_laplacian(n, *_monomial_traces(p, *tables[t])), _eval_traces(image, traces))
            for p, image, t in zip(partitions, images, tops)
        ]

    return [
        _report("laplacian", n, {"partition": p.serialize()}, samples, seed, tol, errs)
        for p, errs in zip(partitions, _sweep(n, streams, len(partitions), check))
    ]


def verify_gegenbauer_families(
    n: int,
    families: Iterable[tuple[int, int, int]],
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> list[VerifyReport]:
    """Check that C_k^((n-2)/2) in the (i, j) entry is an eigenfunction with
    eigenvalue -k(k+n-2)/2 for each family (k, i, j), i, j 1-based entry
    indices, on the same Haar samples; one report per family, in order.
    Every family is validated before the first draw."""
    streams = _sample_streams(seed, samples)
    families = list(families)
    for k, i, j in families:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("entry indices out of range")
        if n < 3:
            raise ValueError("needs n >= 3")
        if k < 0:
            raise ValueError("k must be nonnegative")
    alpha = (n - 2) / 2

    def check(sample: RotationSample) -> list[tuple[float, float]]:
        pairs = []
        for k, i, j in families:
            entry = float(sample.matrix[i - 1, j - 1])
            value, d1, d2 = gegenbauer(k, alpha, entry)
            # grad f = C' e_ij and Hess f = C'' at the one (ij, ij) slot,
            # where Lambda(U) holds u_ij^2
            got = _group_laplacian(n, entry * d1, d2, entry * entry * d2)
            pairs.append((got, -k * (k + n - 2) / 2 * value))
        return pairs

    return [
        _report("gegenbauer", n, {"k": k, "i": i, "j": j}, samples, seed, tol, errs)
        for (k, i, j), errs in zip(families, _sweep(n, streams, len(families), check))
    ]


def verify_partition(
    n: int,
    partition: Partition,
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> VerifyReport:
    """Compare the ambient-formula Laplacian of a trace monomial against the
    evaluated closed-form symbolic result on Haar samples."""
    return verify_laplacian(n, [partition], samples, seed, tol)[0]


def verify_gegenbauer(
    n: int,
    k: int,
    i: int,
    j: int,
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> VerifyReport:
    """Check that C_k^((n-2)/2) in the (i, j) entry is an eigenfunction with
    eigenvalue -k(k+n-2)/2; i, j are 1-based entry indices."""
    return verify_gegenbauer_families(n, [(k, i, j)], samples, seed, tol)[0]


def _sphere_test_h(y: np.ndarray):
    # fixed low-degree polynomial h(y) = y1 y2 + y1^3 with analytic derivatives
    value = y[0] * y[1] + y[0] ** 3
    grad = np.zeros_like(y)
    grad[0] = y[1] + 3 * y[0] ** 2
    grad[1] = y[0]
    hess = np.zeros((y.size, y.size))
    hess[0, 0] = 6 * y[0]
    hess[0, 1] = hess[1, 0] = 1.0
    return value, grad, hess


_IDENTITY_TOLS = {
    "commutation-trace": 1e-12,
    "lambda-commutation": 1e-12,
    "gradient-fd": 1e-6,
    "hessian-fd": 1e-6,
    "tangential-gradient": 1e-12,
    "gradient-inner": 1e-10,
    "sphere-restriction": 1e-9,
}

_FD_PARTITIONS = ((2,), (3,), (2, 1), (1, 1))


def verify_identities(
    n: int,
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    tol: float | None = None,
) -> list[VerifyReport]:
    """Seeded checks of the structure-matrix, gradient and restriction laws.

    Families: the commutation-matrix trace identity tr(K (A kron B)) = tr(AB);
    Lambda K = U^t kron U and K Lambda = U kron U^t; analytic gradients and
    Hessians of trace monomials against central finite differences; the
    tangential-gradient closed forms for p_1^q and p_m; the pairing
    2<grad p_m, grad p_m'> = m m' (p_{m-m'} - p_{m+m'}); and agreement of the
    group Laplacian with the sphere Laplacian for functions of one column.
    """
    errs = {name: (0.0, 0.0) for name in _IDENTITY_TOLS}

    def check(name, got, ref):
        errs[name] = _err_update(errs[name], got, ref)

    for stream in _sample_streams(seed, samples):
        rotation_stream, aux_stream = stream.spawn(2)
        sample = random_son(n, rotation_stream)
        rng = np.random.default_rng(aux_stream)
        u = sample.matrix
        k_comm, lam = structure_matrices(sample)

        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        check("commutation-trace", float(np.trace(k_comm @ np.kron(a, b))), float(np.trace(a @ b)))
        check("lambda-commutation", lam @ k_comm, np.kron(u.T, u))
        check("lambda-commutation", k_comm @ lam, np.kron(u, u.T))

        for parts in _FD_PARTITIONS:
            partition = Partition.of(*parts)
            bundle = euclid_derivatives(partition, sample)
            # one sweep: column 0 differentiates the value, the rest the gradient
            sweep = _central_differences(partial(_value_and_gradient_rows, partition), u, 1e-5)
            check("gradient-fd", sweep[:, 0].reshape(n, n, order="F"), bundle.grad)
            check("hessian-fd", sweep[:, 1:].T, bundle.hess)

        pows = _powers(u, 10)  # gradient pairings reach p_{m+m'} with m, m' <= 5
        traces = [float(np.trace(p)) for p in pows]
        p1 = traces[1]

        def tangent(partition):
            values = [traces[m] for m in partition.parts]
            return tangential_gradient(_monomial_gradient(partition, pows, values), u)

        for q in range(5 + 1):
            ref_m = 0.5 * q * p1 ** (q - 1) * (np.eye(n) - pows[2]) if q else np.zeros((n, n))
            check("tangential-gradient", tangent(Partition((1,) * q)), ref_m)
        # the tangential gradients of p_1, ..., p_5 serve the next two families
        tangents = [tangent(Partition((m,))) for m in range(1, 6)]
        for m, got_m in enumerate(tangents, 1):
            check("tangential-gradient", got_m, 0.5 * m * (pows[m - 1].T - pows[m + 1]))
        for m, gm in enumerate(tangents, 1):
            for mp, gmp in enumerate(tangents[:m], 1):
                got = 2 * float(np.sum(gm * gmp))
                base = traces[m - mp] if m != mp else float(n)
                check("gradient-inner", got, m * mp * (base - traces[m + mp]))

        y = math.sqrt(2.0) * u[:, -1]
        h_val, h_grad, h_hess = _sphere_test_h(y)
        f_grad = np.zeros((n, n))
        f_grad[:, -1] = math.sqrt(2.0) * h_grad
        f_hess = np.zeros((n * n, n * n))
        f_hess[(n - 1) * n:, (n - 1) * n:] = 2.0 * h_hess
        got = lap_numeric(DerivativeBundle(h_val, f_grad, f_hess), sample)
        check("sphere-restriction", got, sphere_lap_numeric(h_grad, h_hess, y, math.sqrt(2.0)))

    return [
        _report("identities", n, {"identity": name}, samples, seed,
                default_tol if tol is None else tol, errs[name])
        for name, default_tol in _IDENTITY_TOLS.items()
    ]


def eval_tracepoly_matrix(partition: Partition, u: np.ndarray) -> float:
    """Value of a single trace monomial at an arbitrary square matrix."""
    return float(_rest_product(_powers_and_traces(partition, u)[1], ()))


def _monomial_gradient(partition: Partition, pows: list[np.ndarray], values: list) -> np.ndarray:
    """Matrix-form gradient sum_i R_i m_i (U^t)^{m_i-1} of a trace monomial,
    R_i the product of the other factors' traces, from the powers and factor
    traces of :func:`_powers_and_traces`: one matrix, or one per matrix of a
    stack."""
    grad = np.zeros(pows[0].shape)
    for i, m in enumerate(partition.parts):
        rest = np.asarray(_rest_product(values, (i,)))[..., None, None]
        grad += rest * (m * np.swapaxes(pows[m - 1], -2, -1))
    return grad


def _value_and_gradient_rows(partition: Partition, stack: np.ndarray) -> np.ndarray:
    """Row e holds the monomial's value at matrix e of the stack, then its
    gradient there in column-major order."""
    pows, values = _powers_and_traces(partition, stack)
    grad = _monomial_gradient(partition, pows, values)
    value = _rest_product(values, ())
    return np.column_stack((value, np.swapaxes(grad, -2, -1).reshape(len(stack), -1)))


def euclid_derivatives_matrix(partition: Partition, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, dense Hessian) of a trace monomial at any square matrix, unchecked."""
    return _dense_derivatives(partition, u)[1:]


def _dense_derivatives(partition: Partition, u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, gradient, dense Hessian) of a trace monomial from one set of
    powers and factor traces.  K, a permutation, is applied as the row
    reindexing (K A)[b n + a] = A[a n + b]."""
    pows, values = _powers_and_traces(partition, u)
    n = pows[0].shape[0]
    parts = partition.parts
    perm = np.arange(n * n).reshape(n, n).T.ravel()
    grads = [_vec(m * pows[m - 1].T) for m in parts]
    hess = np.zeros((n * n, n * n))
    for i, m in enumerate(parts):
        if m >= 2:
            acc = np.zeros((n * n, n * n))
            for r in range(m - 1):
                acc += np.kron(pows[r].T, pows[m - 2 - r])
            hess += _rest_product(values, (i,)) * (m * acc[perm])
    for i in range(len(parts)):
        for j in range(len(parts)):
            if i != j:
                hess += _rest_product(values, (i, j)) * np.outer(grads[i], grads[j])
    return float(_rest_product(values, ())), _monomial_gradient(partition, pows, values), hess
