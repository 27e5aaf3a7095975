"""Haar-distributed rotations of SO(n) and checked concrete samples.

:func:`_haar_stack` draws a stack of rotations by Mezzadri's QR with the
R-diagonal sign fix ("How to generate random matrices from the classical
compact groups", Notices AMS 54, 2007), one seeded generator per matrix;
:func:`random_son` is its one-sample case.  Every matrix is checked against
U^t U = I and det U = 1 before it is handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        stack = self.matrix[None]
        _check_rotations(stack, np.linalg.det(stack))

    @classmethod
    def _drawn(cls, matrix: np.ndarray, provenance: str) -> RotationSample:
        """A sample of a matrix that :func:`_haar_stack` drew and checked."""
        sample = object.__new__(cls)
        sample.n, sample.matrix, sample.provenance = matrix.shape[0], matrix, provenance
        return sample

    @property
    def columns(self) -> np.ndarray:
        return self.matrix


def _check_rotations(stack: np.ndarray, det: np.ndarray) -> None:
    """Refuse a stack (S, n, n) holding a matrix off SO(n) by more than the
    tolerance, or holding a NaN; ``det`` holds the matrices' determinants."""
    gram = stack.swapaxes(-2, -1) @ stack - np.eye(stack.shape[-1])
    gram_err = np.abs(gram).max(axis=(-2, -1))
    det_err = np.abs(det - 1.0)
    ok = np.maximum(gram_err, det_err) <= _ORTHO_TOL  # False at a NaN
    if not ok.all():
        i = np.argmin(ok)  # the first matrix refused
        raise ValueError(
            f"not special orthogonal: |U^tU-I|={gram_err[i]:.2e}, |det-1|={det_err[i]:.2e}"
        )


def _haar_stack(n: int, seeds) -> np.ndarray:
    """Haar-distributed rotations as an (S, n, n) stack, matrix i
    deterministic in (n, seeds[i]).

    Each seed's generator draws a Gaussian matrix.  One QR over the stack,
    the R-diagonal sign correction (making each orthogonal factor Haar on
    O(n)) and one determinant follow; a negative determinant is fixed to +1
    by negating the last column, which negates it exactly, so the Gram and
    |det - 1| checks reuse it.  A draw whose R diagonal holds a zero
    (measure zero) is drawn again from its own generator, at most 8 draws
    per seed, and the other matrices keep theirs.  Batched QR and
    determinants equal the per-matrix ones bit for bit, so matrix i does not
    depend on the rest of the stack.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    gauss = np.empty((len(rngs), n, n))
    for rng, out in zip(rngs, gauss):
        rng.standard_normal(out=out)
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    todo = np.flatnonzero((diag == 0.0).any(axis=-1))
    for _ in range(7):  # redraw the measure-zero degenerate draws
        if not todo.size:
            break
        for i in todo:
            rngs[i].standard_normal(out=gauss[i])
        q[todo], r = np.linalg.qr(gauss[todo])
        diag[todo] = np.diagonal(r, axis1=-2, axis2=-1)
        todo = todo[(diag[todo] == 0.0).any(axis=-1)]
    if todo.size:
        raise RuntimeError("degenerate Gaussian draws persisted")
    q *= np.sign(diag)[:, None, :]
    det = np.linalg.det(q)
    flip = np.copysign(1.0, det)  # -1.0 where det < 0; a product with it negates exactly
    q[:, :, -1] *= flip[:, None]
    det *= flip
    _check_rotations(q, det)
    return q


def random_son(n: int, seed) -> RotationSample:
    """Haar-distributed rotation, deterministic in (n, seed): the one-sample
    case of the stacked draw (Gaussian matrix, QR with the R-diagonal sign
    correction, determinant fixed to +1 by negating the last column)."""
    return RotationSample._drawn(_haar_stack(n, [seed])[0], f"haar(n={n}, seed={seed})")


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
