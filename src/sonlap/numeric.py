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
(:func:`structure_matrices`) remain for caller-supplied derivative bundles,
which go through :func:`laplace_beltrami_value`, and for
:func:`verify_identities`, which checks them against finite differences and
each other.  Finite differences appear only as a secondary oracle inside
verification reports, never on the evaluation path.  One central-difference
sweep per monomial stacks the n^2 points U + step E_ij into one (n^2, n, n)
array and the n^2 points U - step E_ij into another, and takes the value and
gradient at every point of a stack from one set of batched powers.  Batched
products and traces equal the per-matrix ones bit for bit, so the reports
equal those of a loop over the points.  Every report keeps max |got - ref|
and its ratio to max(1, |ref|), and passes when that ratio is within tol.

A suite (:func:`verify_laplacian`, :func:`verify_gegenbauer_families`,
:func:`verify_identities`) runs its samples in chunks, each an (S, n, n)
stack of Haar rotations from one stacked draw (:mod:`sonlap.haar`, whose
:func:`random_son` is its one-sample case), and checks every family on the
whole stack at once.
Sample i reads the i-th seeded stream whatever the chunk, and batched QR,
determinants, products, traces and sums equal the per-matrix ones bit for
bit, so each report equals that of a loop over the samples, one family at a
time.  A chunk holds max(1, 4096 // e) samples, e the float entries one
sample takes in the suite's largest stacked array: n^4 for the identity
suite, (top + 1) n^2 for the laplacian suite's power stacks and n^2 for the
Gegenbauer suite, so a chunk's arrays stay near those of one sample at
n = 8.  Powers of a float are taken in Python, one sample at a time: numpy's
``array ** int`` differs from ``float ** int`` in the last bit for some
inputs.  The laplacian suite builds one set of powers, traces and flattened
power stacks per chunk, and one pair of tables per distinct largest part;
its per-monomial sums stay per sample, in the helpers that
:func:`lap_numeric` and :func:`eval_tracepoly` wrap.  Each family's error is
the exact maximum over the samples, so its report does not depend on the
chunks, and a NaN error fails its family.  Exact evaluation takes no flag:
:func:`eval_tracepoly` switches to it where its float sum may cancel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice

import numpy as np

from .haar import RotationSample, _haar_stack, random_son  # noqa: F401 (random_son is public here too)
from .laplacian import lap_partition
from .partitions import Partition
from .tracepoly import TracePoly

DEFAULT_SEED = 20230

# float entries in one sample chunk's largest stacked array; see the module
# docstring
_STACK_ENTRIES = 4096


@dataclass
class DerivativeBundle:
    """Value, matrix-form gradient and vectorized Hessian of a prolongation."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self) -> None:
        _check_symmetric(self.hess)


def _check_symmetric(hess: np.ndarray) -> None:
    """Refuse a Hessian, or a stack of them, that is not symmetric."""
    if not hess.size:
        return
    diff = hess - hess.swapaxes(-2, -1)
    asym = np.max(np.abs(diff, out=diff))
    if asym > 1e-10:
        raise ValueError(f"Hessian not symmetric: {asym:.2e}")


def commutation_matrix(n: int) -> np.ndarray:
    """The n^2 x n^2 permutation with K vec(A) = vec(A^t), column-major."""
    index = np.arange(n * n).reshape(n, n)
    k = np.zeros((n * n, n * n))
    k[index.T, index] = 1.0
    return k


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
def structure_matrices(sample: RotationSample) -> tuple[np.ndarray, np.ndarray]:
    """(K, Lambda(U)): commutation matrix and the column-outer block matrix."""
    return commutation_matrix(sample.n), _lambda(sample.matrix)


def _lambda(u: np.ndarray) -> np.ndarray:
    """Lambda(U), whose (i, j) block is u_j u_i^t, of a matrix or of each
    matrix of a stack (..., n, n); its entries are single products."""
    n = u.shape[-1]
    return np.einsum("...ib,...ja->...aibj", u, u).reshape(u.shape[:-2] + (n * n, n * n))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices of one size, or of each pair of a
    stack (..., n, n): every entry a single product, as in np.kron."""
    n = a.shape[-1]
    outer = a[..., :, None, :, None] * b[..., None, :, None, :]
    return outer.reshape(outer.shape[:-4] + (n * n, n * n))


def _powers(u: np.ndarray, top: int) -> list[np.ndarray]:
    """I, U, ..., U^top of a square matrix, or of each matrix of a stack
    (..., n, n); a stack's powers are its matrices' powers, bit for bit."""
    out = [np.broadcast_to(np.eye(u.shape[-1]), u.shape)]
    for _ in range(top):
        out.append(out[-1] @ u)
    return out


def _traces(pows: list[np.ndarray]) -> np.ndarray:
    """The traces of the powers, one row per power: a matrix's powers give
    one float a row, a stack's one per matrix."""
    return np.trace(np.stack(pows), axis1=-2, axis2=-1)


def _powers_and_traces(partition: Partition, u: np.ndarray) -> tuple[list[np.ndarray], list]:
    """Powers I, U, ..., U^top of a square matrix or of each matrix of a
    stack, top the largest part, and the trace p_m of each factor of the
    monomial, in part order: a float for a matrix, an array over a stack."""
    pows = _powers(np.asarray(u, dtype=float), max(partition.parts, default=0))
    return pows, [np.trace(pows[m], axis1=-2, axis2=-1) for m in partition.parts]


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
def euclid_derivatives(partition: Partition, sample: RotationSample) -> DerivativeBundle:
    """Euclidean value/gradient/Hessian of the trace monomial at the sample.

    Gradient of p_m is m (U^t)^{m-1}; the Hessian of p_m (m >= 2) is
    m K sum_{r=0}^{m-2} (U^t)^r kron U^{m-2-r}.  The monomial's derivatives
    follow from the product rule, including the rank-one cross terms
    vec(grad p_i) vec(grad p_j)^t.
    """
    value, grad, hess = _dense_derivatives(partition, sample.matrix)
    return DerivativeBundle(float(value), grad, hess)


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
    """The powers and their transposes, each power flattened into one row;
    the powers of a stack (..., n, n) give one such pair of blocks per matrix."""
    stacked = np.stack(pows, axis=-3)
    rows = stacked.shape[:-2] + (-1,)
    return stacked.reshape(rows), stacked.swapaxes(-2, -1).reshape(rows)


def _power_tables(flat: np.ndarray, flat_t: np.ndarray, top: int) -> tuple[list, list]:
    """Frobenius products <U^a, U^b> and traces tr(U^a U^b) for 0 <= a, b <= top,
    from the first top + 1 rows of the :func:`_power_stacks`, as nested
    lists, one table per matrix of a stack.  The width of the product
    decides its last bits, so a table is never cut from a wider one."""
    head, head_t = flat[..., : top + 1, :], flat_t[..., : top + 1, :]
    return (head @ head.swapaxes(-2, -1)).tolist(), (head @ head_t.swapaxes(-2, -1)).tolist()


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


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
def laplace_beltrami_value(bundle: DerivativeBundle, sample: RotationSample) -> float:
    """Evaluate the group Laplacian from a prolongation's dense derivative bundle.

    tr(Lambda(U) Hess) is contracted against U on the Hessian reshaped to
    (n, n, n, n), where hess4[j, i, l, k] = d^2 f / du_ij du_kl, without
    building Lambda(U).
    """
    return float(_dense_laplacian(sample.matrix, bundle.grad, bundle.hess))


def _dense_laplacian(u: np.ndarray, grad: np.ndarray, hess: np.ndarray):
    """:func:`laplace_beltrami_value` at a matrix, or at each matrix of a
    stack (..., n, n) with one gradient and Hessian per matrix."""
    n = u.shape[-1]
    hess4 = hess.reshape(hess.shape[:-2] + (n, n, n, n))
    radial = np.sum(u * grad, axis=(-2, -1))  # tr(U^t grad)
    curved = np.einsum("...bkai,...ib,...ka->...", hess4, u, u)
    return _group_laplacian(n, radial, np.trace(hess, axis1=-2, axis2=-1), curved)


def lap_numeric(target, sample: RotationSample) -> float:
    """Group Laplacian of a Partition or TracePoly at U.

    The closed-form Hessian traces build nothing of size n^4; a prebuilt
    :class:`DerivativeBundle` goes through :func:`laplace_beltrami_value`.
    The term values are summed with ``math.fsum``, so the result does not
    depend on the order of the terms.
    """
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


def eval_tracepoly(poly: TracePoly, sample) -> float:
    """Numeric value of a trace polynomial at a rotation.

    The term values are summed with ``math.fsum``, so the result does not
    depend on the order of the terms.  Where sum |term| * 2^-52 *
    (degree + 2), a bound on its rounding error, exceeds 1e-9 * max(1, |sum|)
    (high-degree reduced forms cancel), the value is accumulated exactly over
    the rationalized traces instead.
    """
    u = sample.matrix if isinstance(sample, RotationSample) else np.asarray(sample, dtype=float)
    n = u.shape[0]
    _check_concrete(poly, n, f"matrix is {n}x{n}")
    traces = [float(np.trace(p)) for p in _powers(u, _top_part(poly.terms))]
    return _eval_traces(poly, traces)


def _eval_traces(poly: TracePoly, traces: list[float]) -> float:
    """:func:`eval_tracepoly` from the traces p_0, ..., p_top of U's powers,
    top at least the polynomial's largest part; its mode is not checked."""
    terms = poly.terms
    values = [math.prod((traces[m] for m in part), start=float(c)) for part, c in terms.items()]
    total = math.fsum(values)
    slack = math.fsum(map(abs, values)) * 2.0**-52 * (poly.degree + 2)
    if slack <= 1e-9 * max(1.0, abs(total)):
        return total
    rational = [Fraction(t) for t in traces]
    return float(sum(math.prod((rational[m] for m in part), start=c) for part, c in terms.items()))


def sphere_lap_numeric(grad: np.ndarray, hess: np.ndarray, x: np.ndarray, radius: float) -> float:
    """Sphere Laplacian of a prolongation from its derivatives at x, |x| = R."""
    x = np.asarray(x, dtype=float)
    return float(_sphere_laplacian(np.asarray(grad, float), np.asarray(hess, float), x, radius))


def _sphere_laplacian(grad: np.ndarray, hess: np.ndarray, x: np.ndarray, radius: float):
    """:func:`sphere_lap_numeric` at a point, or at each row of a stack of
    points (..., n) with one gradient and Hessian per point."""
    if np.any(np.abs(np.linalg.norm(x, axis=-1) - radius) > 1e-10):
        raise ValueError("point is not on the sphere of the given radius")
    row = x[..., None, :]
    euclid_lap = np.trace(hess, axis1=-2, axis2=-1)
    second = (row @ hess @ x[..., :, None])[..., 0, 0]
    first = (row @ grad[..., :, None])[..., 0, 0]
    return euclid_lap - second / radius**2 - (x.shape[-1] - 1) * first / radius**2


def tangential_gradient(euclid_grad: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Project a Euclidean matrix-form gradient onto the tangent space at U;
    stacks (..., n, n) of gradients and of matrices project pairwise."""
    return 0.5 * (euclid_grad - u @ euclid_grad.swapaxes(-2, -1) @ u)


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
    one row per entry in column-major order; a stack (S, n, n) of U gives one
    such block per matrix.

    ``fn`` maps a stack of matrices (E, n, n) to one row per matrix, so the
    2 S n^2 displaced points take two calls: the plus and the minus stack."""
    n = u.shape[-1]
    entry = np.arange(n * n)
    bumps = np.zeros((n * n, n, n))
    bumps[entry, entry % n, entry // n] = step  # stack index j n + i bumps (i, j)
    centre = u[..., None, :, :]
    rows = fn((centre + bumps).reshape(-1, n, n)) - fn((centre - bumps).reshape(-1, n, n))
    rows /= 2 * step
    return rows.reshape(u.shape[:-2] + (n * n,) + rows.shape[1:])


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
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    entropy = np.random.SeedSequence(seed).entropy
    return (np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(samples))


def _chunks(streams, entries: int):
    """The sample streams in order, in lists of max(1, _STACK_ENTRIES
    // entries), ``entries`` the floats one sample takes in the suite's
    largest stacked array."""
    streams, size = iter(streams), max(1, _STACK_ENTRIES // entries)
    return iter(lambda: list(islice(streams, size)), [])


def _chunk_errors(got, ref, axes: tuple[int, ...] = ()) -> np.ndarray:
    """[max abs error, max relative error] over a chunk's samples, axis 0.

    A sample's relative error is its abs error over max(1, |ref|); an array
    family compares each sample by its largest entries over ``axes``.  Both
    maxima are exact, so they do not depend on the order of the samples, and
    a NaN stays NaN, so its family fails.
    """
    abs_err = got - ref
    np.abs(abs_err, out=abs_err)
    if axes:  # max |ref| as the larger of max ref and -min ref, with no |ref| array
        abs_err = abs_err.max(axis=axes)
        scale = np.maximum(ref.max(axis=axes), -ref.min(axis=axes))
    else:
        scale = np.abs(ref)
    rel_err = abs_err / np.maximum(1.0, scale)
    return np.stack((abs_err.max(axis=0), rel_err.max(axis=0)))


def _report(
    target: str, n: int, params: dict, samples: int, seed: int, tol: float, errs
) -> VerifyReport:
    """The report of one family from its [max abs, max relative] errors; it
    passes when the max relative error is within ``tol``, never on a NaN."""
    max_abs, max_rel = (float(e) for e in errs)
    return VerifyReport(target, n, params, samples, seed, tol, max_abs, max_rel, max_rel <= tol)


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
    tops = [max(p.parts, default=0) for p in partitions]
    distinct_tops = set(tops)
    top = max(tops + [_top_part(image.terms) for image in images], default=0)
    errs = np.zeros((2, len(partitions)))
    for chunk in _chunks(streams, (top + 1) * n * n):
        # lap_numeric(p) and eval_tracepoly(image) of every family from one
        # set of powers and traces per chunk, and one table per distinct
        # largest part; the monomial sums run per sample
        pows = _powers(_haar_stack(n, chunk), top)
        flat, flat_t = _power_stacks(pows)
        tables = {t: _power_tables(flat, flat_t, t) for t in distinct_tops}
        got, ref = [], []
        for s, traces in enumerate(_traces(pows).T.tolist()):
            got.append([
                _group_laplacian(n, *_monomial_traces(p, tables[t][0][s], tables[t][1][s]))
                for p, t in zip(partitions, tops)
            ])
            ref.append([_eval_traces(image, traces) for image in images])
        errs = np.maximum(errs, _chunk_errors(np.array(got), np.array(ref)))
    return [
        _report("laplacian", n, {"partition": p.serialize()}, samples, seed, tol, errs[:, f])
        for f, p in enumerate(partitions)
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
    chunks = _chunks(_sample_streams(seed, samples), n * n)
    families = list(families)
    for k, i, j in families:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("entry indices out of range")
        if n < 3:
            raise ValueError("needs n >= 3")
        if k < 0:
            raise ValueError("k must be nonnegative")
    alpha = (n - 2) / 2
    _, rows, cols = np.array(families, dtype=int).reshape(-1, 3).T
    errs = np.zeros((2, len(families)))
    for chunk in chunks:
        got, ref = [], []
        # one row of entries per sample, one column per family
        for entries in _haar_stack(n, chunk)[:, rows - 1, cols - 1].tolist():
            pairs = [_gegenbauer_pair(n, k, alpha, x) for (k, _, _), x in zip(families, entries)]
            got.append([g for g, _ in pairs])
            ref.append([r for _, r in pairs])
        errs = np.maximum(errs, _chunk_errors(np.array(got), np.array(ref)))
    return [
        _report("gegenbauer", n, {"k": k, "i": i, "j": j}, samples, seed, tol, errs[:, f])
        for f, (k, i, j) in enumerate(families)
    ]


def _gegenbauer_pair(n: int, k: int, alpha: float, x: float) -> tuple[float, float]:
    """(ambient Laplacian, eigenvalue times value) of C_k^(alpha) in an entry
    whose value at the sample is x."""
    value, d1, d2 = gegenbauer(k, alpha, x)
    # grad f = C' e_ij and Hess f = C'' at the one (ij, ij) slot, where
    # Lambda(U) holds u_ij^2
    return _group_laplacian(n, x * d1, d2, x * x * d2), -k * (k + n - 2) / 2 * value


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
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


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
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


def _sphere_test_h(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the fixed h(y) = y1 y2 + y1^3 at each row of
    a stack of points (S, n); the squares are taken in Python."""
    y1 = y[:, 0]
    grad = np.zeros_like(y)
    grad[:, 0] = y[:, 1] + 3 * np.array([t**2 for t in y1.tolist()])
    grad[:, 1] = y1
    hess = np.zeros(y.shape + y.shape[-1:])
    hess[:, 0, 0] = 6 * y1
    hess[:, 0, 1] = hess[:, 1, 0] = 1.0
    return grad, hess


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
    chunks = _chunks(_sample_streams(seed, samples), n**4)
    errs = {name: np.zeros(2) for name in _IDENTITY_TOLS}

    def check(name, got, ref):
        errs[name] = np.maximum(errs[name], _chunk_errors(got, ref, tuple(range(1, ref.ndim))))

    k_comm = commutation_matrix(n)
    root2 = math.sqrt(2.0)
    for chunk in chunks:
        rotation_streams, aux_streams = zip(*(stream.spawn(2) for stream in chunk))
        u = _haar_stack(n, rotation_streams)
        u_t = u.swapaxes(-2, -1)
        rngs = [np.random.default_rng(stream) for stream in aux_streams]
        a = np.stack([rng.standard_normal((n, n)) for rng in rngs])
        b = np.stack([rng.standard_normal((n, n)) for rng in rngs])
        check(
            "commutation-trace",
            np.trace(k_comm @ _kron(a, b), axis1=-2, axis2=-1),
            np.trace(a @ b, axis1=-2, axis2=-1),
        )
        lam = _lambda(u)
        check("lambda-commutation", lam @ k_comm, _kron(u_t, u))
        check("lambda-commutation", k_comm @ lam, _kron(u, u_t))

        for parts in _FD_PARTITIONS:
            partition = Partition.of(*parts)
            _, grad, hess = _dense_derivatives(partition, u)
            _check_symmetric(hess)
            # one sweep: column 0 differentiates the value, the rest the gradient
            sweep = _central_differences(partial(_value_and_gradient_rows, partition), u, 1e-5)
            check("gradient-fd", sweep[..., 0].reshape(u.shape).swapaxes(-2, -1), grad)
            check("hessian-fd", sweep[..., 1:].swapaxes(-2, -1), hess)

        pows = _powers(u, 10)  # gradient pairings reach p_{m+m'} with m, m' <= 5
        traces = _traces(pows)

        def tangent(partition):
            values = [traces[m] for m in partition.parts]
            return tangential_gradient(_monomial_gradient(partition, pows, values), u)

        # p_1^q for q = 0, ..., 5, then p_1, ..., p_5, whose tangential
        # gradients serve the pairings too; the (q, sample) and (m, sample)
        # pairs are checked as one stack
        got, ref = [tangent(Partition((1,) * q)) for q in range(6)], [np.zeros(u.shape)]
        for q in range(1, 6):
            coeff = np.array([0.5 * q * p1 ** (q - 1) for p1 in traces[1].tolist()])
            ref.append(coeff[:, None, None] * (np.eye(n) - pows[2]))
        tangents = [tangent(Partition((m,))) for m in range(1, 6)]
        for m, got_m in enumerate(tangents, 1):
            got.append(got_m)
            ref.append(0.5 * m * (pows[m - 1].swapaxes(-2, -1) - pows[m + 1]))
        check("tangential-gradient", np.concatenate(got), np.concatenate(ref))
        got, ref = [], []
        for m, gm in enumerate(tangents, 1):
            for mp, gmp in enumerate(tangents[:m], 1):
                got.append(2 * (gm * gmp).reshape(len(u), -1).sum(axis=-1))
                base = traces[m - mp] if m != mp else float(n)
                ref.append(m * mp * (base - traces[m + mp]))
        check("gradient-inner", np.concatenate(got), np.concatenate(ref))

        y = root2 * u[:, :, -1]
        h_grad, h_hess = _sphere_test_h(y)
        f_grad = np.zeros(u.shape)
        f_grad[:, :, -1] = root2 * h_grad
        f_hess = np.zeros((len(u), n * n, n * n))
        f_hess[:, (n - 1) * n:, (n - 1) * n:] = 2.0 * h_hess
        _check_symmetric(f_hess)
        got = _dense_laplacian(u, f_grad, f_hess)
        check("sphere-restriction", got, _sphere_laplacian(h_grad, h_hess, y, root2))

    return [
        _report("identities", n, {"identity": name}, samples, seed,
                default_tol if tol is None else tol, errs[name])
        for name, default_tol in _IDENTITY_TOLS.items()
    ]


def _monomial_gradient(partition: Partition, pows: list[np.ndarray], values: list) -> np.ndarray:
    """Matrix-form gradient sum_i R_i m_i (U^t)^{m_i-1} of a trace monomial,
    R_i the product of the other factors' traces, from the powers and factor
    traces of :func:`_powers_and_traces`: one matrix, or one per matrix of a
    stack."""
    grad = np.zeros(pows[0].shape)
    for i, m in enumerate(partition.parts):
        term = m * pows[m - 1].swapaxes(-2, -1)
        term *= _scales(values, (i,))
        grad += term
    return grad


def _scales(values: list, skip: tuple[int, ...]) -> np.ndarray:
    """:func:`_rest_product` shaped to scale a matrix, or each matrix of a stack."""
    return np.asarray(_rest_product(values, skip))[..., None, None]


def _value_and_gradient_rows(partition: Partition, stack: np.ndarray) -> np.ndarray:
    """Row e holds the monomial's value at matrix e of the stack, then its
    gradient there in column-major order."""
    pows, values = _powers_and_traces(partition, stack)
    grad = _monomial_gradient(partition, pows, values)
    value = _rest_product(values, ())
    return np.column_stack((value, grad.swapaxes(-2, -1).reshape(len(stack), -1)))


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
def euclid_derivatives_matrix(partition: Partition, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, dense Hessian) of a trace monomial at any square matrix, unchecked."""
    return _dense_derivatives(partition, u)[1:]


def _dense_derivatives(partition: Partition, u: np.ndarray) -> tuple:
    """(value, gradient, dense Hessian) of a trace monomial from one set of
    powers and factor traces, at a matrix or at each matrix of a stack
    (..., n, n).  K, a permutation, is applied as the row reindexing
    (K A)[b n + a] = A[a n + b]."""
    pows, values = _powers_and_traces(partition, u)
    n = u.shape[-1]
    parts = partition.parts
    perm = np.arange(n * n).reshape(n, n).T.ravel()
    # vec(m (U^t)^{m-1}) is the row-major flattening of m U^{m-1}
    grads = [(m * pows[m - 1]).reshape(u.shape[:-2] + (n * n,)) for m in parts]
    hess = np.zeros(u.shape[:-2] + (n * n, n * n))
    for i, m in enumerate(parts):
        if m >= 2:
            acc = np.zeros_like(hess)
            for r in range(m - 1):
                acc += _kron(pows[r].swapaxes(-2, -1), pows[m - 2 - r])
            term = acc[..., perm, :]
            term *= m
            term *= _scales(values, (i,))
            hess += term
    for i in range(len(parts)):
        for j in range(len(parts)):
            if i != j:
                outer = grads[i][..., :, None] * grads[j][..., None, :]
                outer *= _scales(values, (i, j))
                hess += outer
    return _rest_product(values, ()), _monomial_gradient(partition, pows, values), hess
