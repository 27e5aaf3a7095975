"""Flag bases, the restricted Laplacian matrix, exact spectra and characters.

The graded flag of trace-polynomial spaces gives the restricted operator an
upper block triangular matrix whose diagonal blocks carry the whole
spectrum.  Every basis is a tuple of trace monomials indexed by partitions,
so one coordinate loop and one label renderer serve all of them.  One rank
rule, r = N // 2, serves every reduced mode SO(N), N >= 3: the weight-w
block is spanned by the p_mu, mu |- w with parts <= r, and its closed-form
eigenvalues are the Casimir values of the conjugate highest weights lam (at
most r parts), one per row.  Two highest weights of one block can share a
Casimir value from SO(6) on ((4,1,1) and (3,3,0) at weight 6), so the
candidates are merged by value, each value carrying all its labels.  The
blocks are diagonalizable (the operator is self-adjoint for the Haar inner
product), so the distinct candidate values exhaust a block exactly when their
nullities sum to its size; a block they do not exhaust is an inconsistency,
not a case for a root search.  Each eigenspace is found block by block, as
the triangular form allows: kernel vectors are zero past the last diagonal
block made singular by the shift, and from there down to block 0 each step
is one nullspace of a block-sized system that also carries the solvability
conditions on the vectors found so far.  A matrix's
rows are made integer once; every block nullity and block solve is one
fraction-free Gauss-Jordan elimination of integer rows built from them.
General mode uses the partition spanning set; at a fixed N its eigenspaces
are solved the same way, but it has no closed-form spectrum, so eigenvalue
extraction is refused.

The flag is nested: the order-k matrix is the leading principal submatrix of
every higher-order matrix of the same (mode, basis).  A block's nullities
depend only on that block, a kernel that ends at block end only on the
leading submatrix up to it, and a character's coordinates only on the basis
elements up to its weight.  So these results are kept once per flag, in a
store that every matrix :func:`build_matrix` makes for it shares, and each
block is solved once however many orders are asked for.  A hand-built
:class:`FlagMatrix` gets a store of its own.

Irreducible characters are built independently of the matrices, one per
spectrum label lam, as Koike-Terada orthogonal characters (an r x r
determinant) over the elementary symmetric functions of
:func:`tracepoly.elementary`, and then located inside the computed
eigenspaces.  Every eigenvalue, sphere ones included, is the
Casimir value -sum_i lam_i(lam_i + N - 2i)/2 of its label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .laplacian import lap, lap_monomial, so3_lap_pm_btrace
from .npoly import NPoly
from .partitions import EMPTY, Partition, _descending, enumerate_upto
from .tracepoly import (
    SO3,
    SO4,
    GroupMode,
    TracePoly,
    _newton_step,
    general_at,
    monomial_label,
    so,
    so3_pm_in_p1,
)


# ---------------------------------------------------------------------------
# bases


@dataclass(frozen=True)
class FlagBasis:
    """Ordered basis (or spanning set) of the flag space of order k."""

    mode: GroupMode
    basis_id: str
    k: int
    elements: tuple[Partition, ...]
    weights: tuple[int, ...]
    block_starts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)

    def block_ranges(self) -> list[tuple[int, int, int]]:
        """(start, end, weight) for each graded block."""
        ends = self.block_starts[1:] + (len(self.elements),)
        return [
            (start, end, self.weights[start])
            for start, end in zip(self.block_starts, ends)
        ]

    def label(self, index: int) -> str:
        return monomial_label(self.elements[index], self.mode.tag)

    @cached_property
    def positions(self) -> dict[Partition, int]:
        """Position of each element in ``elements``; built once per basis."""
        return {elem: i for i, elem in enumerate(self.elements)}


def basis_for(mode: GroupMode, basis_id: str, k: int) -> FlagBasis:
    """Deterministic ordered basis of the order-k flag space.

    Every element is the partition of a trace monomial; the empty partition
    stands for p_0.

    ``general``: all partitions of degree <= k (spanning set, p_0 first).
    ``bprime`` (SO(3)), ``so<N>`` (SO(N), N >= 4, the mode's tag): the p_mu
                 with parts <= r = N // 2, by weight, ascending-lex inside it:
                 p_1^j as (1^j) on SO(3); p_1^l p_2^m as (2^m, 1^l), by
                 increasing m, on SO(4).
    ``btrace``:  p_0, p_1, p_2, ..., p_k on SO(3), as (j).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if basis_id == "general":
        if mode.tag != "general":
            raise ValueError("the partition spanning set belongs to general mode")
        elements = enumerate_upto(k)
    elif mode != (group := _basis_group(basis_id)):
        raise ValueError(f"basis {basis_id!r} requires {group} mode")
    elif basis_id == "btrace":
        elements = [Partition.of(j) for j in range(k + 1)]
    else:
        elements = [Partition(mu) for w in range(k + 1) for mu in sorted(_descending(w, mode.rank))]
    weights = tuple(p.degree for p in elements)
    starts = [0]
    for i in range(1, len(elements)):
        if weights[i] != weights[i - 1]:
            starts.append(i)
    return FlagBasis(mode, basis_id, k, tuple(elements), weights, tuple(starts))


def _basis_group(basis_id: str) -> GroupMode:
    """The reduced mode of a basis: SO(3) for ``bprime`` and ``btrace``, SO(N)
    for the tag ``so<N>`` of a mode with N >= 4."""
    if basis_id in ("bprime", "btrace"):
        return SO3
    try:
        group = GroupMode(basis_id, int(basis_id[2:]))
    except ValueError:
        group = None
    if group is None or group.n < 4:
        raise ValueError(f"unknown basis {basis_id!r}")
    return group


# ---------------------------------------------------------------------------
# coordinates


def coordinates(poly: TracePoly, basis: FlagBasis) -> list:
    """Exact coordinates of ``poly`` in a flag basis; raises on mismatch.

    The polynomial is reduced to the basis mode, and each monomial's
    coefficient goes to the element with the same partition; a constant c
    goes to the p_0 slot as c/N (an :class:`NPoly` for symbolic N).
    ``btrace`` coordinates come from the triangular change of basis instead.
    """
    if basis.basis_id == "btrace":
        return _btrace_coordinates(poly, basis.k)
    coords = [NPoly(0) if basis.mode.symbolic else Fraction(0)] * basis.dim
    # a partition has one slot of its own, so each slot is written once
    for pos, coeff in _sparse_coordinates(poly, basis):
        coords[pos] = coeff
    return coords


def _sparse_coordinates(poly: TracePoly, basis: FlagBasis):
    """(position, coordinate) of each monomial of ``poly`` in a partition basis."""
    mode = basis.mode
    red = poly if poly.mode == mode else poly.reduce(mode)
    positions = basis.positions
    for part, coeff in red._terms.items():
        pos = positions.get(part)
        if pos is None:
            raise ValueError(f"coordinate extraction failure at monomial {part}")
        if not part.parts:
            coeff = coeff.div_by_var() if mode.symbolic else coeff / mode.n
        yield pos, coeff


def _btrace_coordinates(poly: TracePoly, k: int) -> list[Fraction]:
    """Coordinates in the SO(3) trace basis {p_0, ..., p_k}: the ``bprime`` ones,
    with the monic triangular p_m = p_1^m + (lower order) inverted from the top."""
    coords = [Fraction(0)] * (k + 1)
    for pos, coeff in _sparse_coordinates(poly, basis_for(SO3, "bprime", k)):
        coords[pos] = coeff
    for m in range(k, 0, -1):
        c = coords[m]
        if c:
            for part, pc in so3_pm_in_p1(m)._terms.items():
                j = len(part)
                if j < m:  # the p_0 slot carries a constant over N = 3
                    coords[j] -= c * pc / 3 if j == 0 else c * pc
    return coords


# kept while perfbench/tracer.py pins it (ROADMAP items 1-2)
def coordinates_general(poly: TracePoly, basis: FlagBasis) -> list[NPoly]:
    """Spanning-set coordinates with symbolic coefficients; p_0 slot = c/N."""
    if basis.basis_id != "general" or not basis.mode.symbolic:
        raise ValueError("symbolic coordinates require the general spanning set")
    return coordinates(poly, basis)


# ---------------------------------------------------------------------------
# the matrix


@dataclass
class _FlagStore:
    """Block results of one flag, valid for every order built from it.

    ``nullities[weight]``: (eigenvalue, labels, nullity) of each distinct
    candidate root of the weight block, kept once the candidates exhausted
    the block.
    ``kernels[eigenvalue, end]``: the primitive kernel vectors of the leading
    submatrix M[:end, :end] shifted by the eigenvalue, of length ``end``.
    ``coords[label]``: (character, its coordinates up to the last nonzero one).
    """

    nullities: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    coords: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def _flag(mode: GroupMode, basis_id: str) -> _FlagStore:
    """The one store shared by every matrix :func:`build_matrix` makes for a flag."""
    return _FlagStore()


@dataclass(frozen=True)
class FlagMatrix:
    """Exact matrix of the restricted Laplacian; column j = coords of D(basis[j]).

    Block nullities, eigenspaces and character coordinates are kept in
    ``flag``, shared by every order of one flag that :func:`build_matrix`
    makes: each order-k matrix is the leading principal submatrix of the
    higher ones, so a block solved for one order is solved for all.  A
    hand-built matrix gets a fresh store, so a perturbed copy never sees
    another matrix's results.
    """

    basis: FlagBasis
    entries: tuple[tuple, ...]  # rows of Fraction (numeric) or NPoly (symbolic)
    flag: _FlagStore = field(default_factory=_FlagStore, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _eigenblocks(self) -> dict[Fraction, list[tuple[tuple, int, int]]]:
        """(labels, block end, nullity) of every diagonal block each eigenvalue is a root of."""
        return _block_nullities(self)

    @cached_property
    def _integer_rows(self) -> list[tuple[int, list[int]]]:
        """Each row as (scale, ints), ints = scale * row with scale its least common
        denominator: the one integer form every elimination is built from."""
        return [_cleared(row) for row in self.entries]


def build_matrix(mode: GroupMode, basis_id: str, k: int) -> FlagMatrix:
    """Assemble the order-k flag matrix and assert block triangularity.

    Each column's image is collected as (column, value) terms per row, one
    per monomial it has.  Each row is then written once, straight into its
    final tuple, with the one shared zero everywhere else, so the peak
    holds one dense copy of the matrix: the returned rows.
    """
    basis = basis_for(mode, basis_id, k)
    dim = basis.dim
    zero = NPoly(0) if mode.symbolic else Fraction(0)
    terms = [[] for _ in range(dim)]  # (column, value) of each row's nonzero entries
    below = []  # (column weight, row, column) of each image term above the column weight
    for j, element in enumerate(basis.elements):
        weight = element.degree
        if basis_id == "btrace":
            column = so3_lap_pm_btrace(weight).items()
        else:
            column = _sparse_coordinates(lap_monomial(element, mode), basis)
        for i, value in column:
            if basis.weights[i] > weight:
                below.append((weight, i, j))
            else:
                terms[i].append((j, value))
    if below:
        # the least triple is the entry a row-major scan below each block meets first
        _, i, j = min(below)
        raise ArithmeticError(f"block triangularity violated at entry ({i},{j}); reduction bug")
    entries = []
    for row_terms in terms:
        row = [zero] * dim
        for j, value in row_terms:
            row[j] = value
        entries.append(tuple(row))
    return FlagMatrix(basis, tuple(entries), _flag(mode, basis_id))


# ---------------------------------------------------------------------------
# exact linear algebra over the integers


def _cleared(row: list) -> tuple[int, list[int]]:
    """(d, d * row) for the least common denominator d of a rational row."""
    denom = lcm(*(v.denominator for v in row))
    return denom, [v.numerator * (denom // v.denominator) for v in row]


def _content_free(ints: list[int]) -> list[int]:
    """An integer row divided by its content, sign kept; a zero row stays zero."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Each row is divided by its content first.  A row is cleared against the
    pivot row by cross-multiplication and divided by its content again, so
    every row stays a primitive integer row.  Each returned row is a nonzero
    multiple of the matching RREF row: every pivot column is zero outside its
    pivot row.
    """
    mat = [_content_free(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                g = gcd(top[c], mat[i][c])
                s, t = top[c] // g, mat[i][c] // g
                mat[i] = _content_free([s * a - t * b for a, b in zip(mat[i], top)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _nullspace(rows: list[list[int]]) -> list[list[int]]:
    """Kernel basis of integer rows as primitive integer vectors.

    The vector of free column f is a multiple of the RREF nullspace vector:
    nonzero at f, zero at the other free columns.
    """
    mat, pivots = _rref(rows)
    ncols = len(mat[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        used = [(r, pc) for r, pc in enumerate(pivots) if mat[r][fc]]
        scale = lcm(*(mat[r][pc] for r, pc in used))
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in used:
            vec[pc] = -mat[r][fc] * (scale // mat[r][pc])
        basis.append(_content_free(vec))
    return basis


def _primitive(vec: list) -> list[Fraction]:
    """Scale to coprime integers with a positive leading nonzero entry."""
    ints = _content_free(_cleared(vec)[1])
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def _block_rows(
    matrix: FlagMatrix, start: int, stop: int, eigenvalue: Fraction, kernel=()
) -> list[list[int]]:
    """Integer rows of [B - eigenvalue I | M[start:stop, stop:end] X], B the diagonal
    block on start..stop-1 and X the integer ``kernel`` vectors on stop..end-1.

    Row i is matrix row i times its denominator and the eigenvalue's.
    """
    num, den = eigenvalue.numerator, eigenvalue.denominator
    end = stop + len(kernel[0]) if kernel else stop
    rows = []
    for i, (scale, ints) in enumerate(matrix._integer_rows[start:stop], start):
        row = [den * v for v in ints[start:stop]]
        row[i - start] -= num * scale
        support = [j for j in range(stop, end) if ints[j]]
        row += [den * sum(ints[j] * vec[j - stop] for j in support) for vec in kernel]
        rows.append(row)
    return rows


def _nullity(matrix: FlagMatrix, start: int, stop: int, eigenvalue: Fraction) -> int:
    """dim ker(B - eigenvalue I) of the diagonal block B on start..stop-1."""
    return stop - start - len(_rref(_block_rows(matrix, start, stop, eigenvalue))[1])


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with the parameter labels producing it."""

    eigenvalue: Fraction
    labels: tuple
    geometric_multiplicity: int | None = None


def _casimir(n: int, lam: tuple[int, ...]) -> Fraction:
    """Laplacian eigenvalue -sum_i lam_i(lam_i + n - 2i)/2 of the SO(n)
    character with highest weight ``lam`` (i counted from 1)."""
    return -Fraction(sum(part * (part + n - 2 * i) for i, part in enumerate(lam, 1)), 2)


def _so4_weight(k1: int, k2: int) -> tuple[int, int]:
    """Highest weight ((k1+k2)/2, |k1-k2|/2) of the SO(4) label (k1, k2) = (2j1, 2j2)."""
    return (k1 + k2) // 2, abs(k1 - k2) // 2


def _closed_candidates(mode: GroupMode, weight: int) -> list[tuple[Fraction, object]]:
    """(Casimir value, label) of each lam |- weight with at most r = N // 2 parts,
    the conjugate of a reduced monomial p_mu of the block; the label is
    k = lam_1 on SO(3), (lam_1 + lam_2, lam_1 - lam_2) on SO(4), and the
    highest weight lam itself, r parts with zeros, from SO(5) on."""
    r = mode.rank
    out = []
    for mu in _descending(weight, r):
        lam = tuple(sum(part >= i for part in mu) for i in range(1, r + 1))
        if mode == SO3:
            label = lam[0]
        elif mode == SO4:
            label = (lam[0] + lam[1], lam[0] - lam[1])
        else:
            label = lam
        out.append((_casimir(mode.n, lam), label))
    return out


def spectrum_closed(target: str, bound: int, n: int | None = None) -> list[SpectrumEntry]:
    """Closed-form eigenvalue families with parameter labels.

    ``sphere``: -k(k+n-2)/2 for 0 <= k <= bound (needs n >= 2; no other target takes n).
    ``so3``:    -k(k+1)/2 for 0 <= k <= bound.
    ``so4``:    -(k1(k1+2)+k2(k2+2))/4 over same-parity pairs with
                k1+k2 <= bound; unordered labels, one entry per value.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    found: dict[Fraction, list] = {}
    if target == "sphere":
        if n is None or n < 2:
            raise ValueError("sphere spectrum needs the ambient dimension n >= 2")
        for k in range(bound + 1):
            found.setdefault(_casimir(n, (k,)), []).append(k)
    elif target in ("so3", "so4"):
        if n is not None:
            raise ValueError(f"n applies only to the sphere target, not {target}")
        mode = so(int(target[2:]))
        for weight in range(bound + 1):
            for eig, label in _closed_candidates(mode, weight):
                if mode != SO4 or sum(label) <= bound:
                    found.setdefault(eig, []).append(label)
    else:
        raise ValueError(f"unknown spectrum target {target!r}")
    return [
        SpectrumEntry(eig, tuple(found[eig]))
        for eig in sorted(found, reverse=True)
    ]


def _block_nullities(matrix: FlagMatrix) -> dict[Fraction, list[tuple[tuple, int, int]]]:
    """The one candidate-nullity pass over the diagonal blocks.

    Each block is checked against the closed-form candidate eigenvalues of
    its weight, which the paper proves complete.  Candidates that share a
    Casimir value are merged, one nullity per distinct value carrying every
    label of that value.  The blocks are diagonalizable, so the distinct
    values exhaust a block exactly when their nullities sum to its size; a
    shortfall is an inconsistency and raises, naming the block's weight.  A
    block's roots are kept in the flag store, so each block is checked once
    per flag.
    """
    mode = matrix.basis.mode
    if mode.tag == "general":
        raise ValueError("eigenvalue extraction requires a proven basis (reduced SO(N) modes only)")
    stored = matrix.flag.nullities
    found: dict[Fraction, list[tuple[tuple, int, int]]] = {}
    for start, end, weight in matrix.basis.block_ranges():
        roots = stored.get(weight)
        if roots is None:
            merged: dict[Fraction, list] = {}
            for eig, label in _closed_candidates(mode, weight):
                merged.setdefault(eig, []).append(label)
            roots = [
                (eig, tuple(labels), nullity)
                for eig, labels in merged.items()
                if (nullity := _nullity(matrix, start, end, eig))
            ]
            covered = sum(nullity for _, _, nullity in roots)
            if covered != end - start:
                raise ArithmeticError(
                    f"weight-{weight} block has eigenvalues outside the closed-form family: "
                    f"the candidates' nullities sum to {covered} of {end - start}"
                )
            stored[weight] = roots
        for eig, labels, nullity in roots:
            found.setdefault(eig, []).append((labels, end, nullity))
    return found


def eigenvalues_exact(matrix: FlagMatrix) -> list[SpectrumEntry]:
    """Exact spectrum of a flag matrix from the block nullities of :func:`_block_nullities`.

    M is diagonalizable (the operator is self-adjoint), so a geometric
    multiplicity other than the sum of the eigenvalue's block nullities raises.
    """
    blocks = matrix._eigenblocks
    out = []
    for eig in sorted(blocks, reverse=True):
        multiplicity = len(_stored_kernel(matrix, eig))
        nullities = sum(nullity for _, _, nullity in blocks[eig])
        if multiplicity != nullities:
            raise ArithmeticError(
                f"eigenvalue {eig} has geometric multiplicity {multiplicity}, "
                f"but its block nullities sum to {nullities}"
            )
        labels = tuple(label for block_labels, _, _ in blocks[eig] for label in block_labels)
        out.append(SpectrumEntry(eig, labels, multiplicity))
    return out


def eigenspace_exact(matrix: FlagMatrix, eigenvalue: Fraction) -> list[list[Fraction]]:
    """Exact basis of ker(M - eigenvalue I), primitively normalized.

    Solved once per flag, eigenvalue and kernel end (see :func:`_kernel_end`);
    every call returns fresh lists, zero-padded to the matrix.
    """
    if matrix.basis.mode.symbolic:
        raise ValueError("exact eigenspaces need rational entries; fix N first")
    space = _stored_kernel(matrix, Fraction(eigenvalue))
    pad = [Fraction(0)] * (matrix.dim - len(space[0]))
    return [vec + pad for vec in space]


def _stored_kernel(matrix: FlagMatrix, eigenvalue: Fraction) -> list[list[Fraction]]:
    """The flag store's kernel of M - eigenvalue I, cut at its kernel end and
    solved on first use; shared, so callers must not modify it."""
    end = _kernel_end(matrix, eigenvalue)
    space = matrix.flag.kernels.get((eigenvalue, end))
    if space is None:
        space = matrix.flag.kernels[eigenvalue, end] = _leading_kernel(matrix, eigenvalue)
    return space


def _kernel_end(matrix: FlagMatrix, eigenvalue: Fraction) -> int:
    """End of the last diagonal block B for which B - eigenvalue I is singular.

    Read from the spectrum's block nullities; 0 when there is none.
    Fixed-N ``general`` matrices have no closed-form spectrum and take
    their last block.
    """
    if matrix.basis.mode.tag == "general":
        return matrix.dim
    blocks = matrix._eigenblocks.get(eigenvalue)
    return blocks[-1][1] if blocks else 0


def _leading_kernel(matrix: FlagMatrix, eigenvalue: Fraction) -> list[list[Fraction]]:
    """Kernel of M - eigenvalue I by block back-substitution, as primitive
    vectors cut at the kernel end.

    A kernel vector is zero on every block after :func:`_kernel_end`, so the
    kernel depends only on the leading submatrix up to it.  From there the
    blocks are walked down to block 0.  With X the q kernel vectors found
    so far on the later blocks, one nullspace of the b x (b + q) system
    [B_s - eigenvalue | M[s, >s] X] gives the block's new kernel vectors
    together with the solvability conditions on the old ones, so singular
    and invertible blocks, and eigenvalues of several blocks, take the same
    step.  The system rows are integer multiples of the matrix rows and X is
    kept as primitive integer vectors, so no step builds a Fraction.

    Every step keeps X in the normal form of the RREF nullspace, which the
    kernel alone fixes: the vectors are ordered by their last nonzero entry,
    and each is zero at the others' last nonzero entries.  A block's new
    vectors end inside the block, before every old one.  An old vector that
    survives picks up only earlier old vectors, the ones the block's
    solvability conditions remove.  So the primitive basis is the one a
    full-matrix elimination gives.
    """
    end = _kernel_end(matrix, eigenvalue)
    kernel: list[list[int]] = []  # restricted to the columns from the last solved block to end
    for start, stop, _ in reversed(matrix.basis.block_ranges()):
        if stop > end:
            continue
        width = stop - start
        solved = []
        for sol in _nullspace(_block_rows(matrix, start, stop, eigenvalue, kernel)):
            # the block part, then the combination of the old vectors it asks for
            used = [(c, vec) for c, vec in zip(sol[width:], kernel) if c]
            tail = [sum(c * vec[j] for c, vec in used) for j in range(end - stop)]
            solved.append(_content_free(sol[:width] + tail))
        kernel = solved
    if not kernel:
        raise ArithmeticError(f"{eigenvalue} has an empty eigenspace; not an eigenvalue")
    return [_primitive(vec) for vec in kernel]


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class Character:
    """Irreducible character as an exact eigen-polynomial of the flag matrix."""

    group: str
    label: tuple
    eigenvalue: Fraction
    poly: TracePoly
    alt: TracePoly | None = None  # SO(3): the plain trace-sum form


@lru_cache(maxsize=None)
def _complete(mode: GroupMode, k: int) -> TracePoly:
    """Complete symmetric function h_k of a rotation's eigenvalues in ``mode``.

    h_k = sum_{i=1}^{min(k, N)} (-1)^{i-1} e_i h_{k-i}, the Newton step of
    the p_m tables, with h_0 = 1 and h_k = 0 for k < 0.
    """
    if k <= 0:
        return TracePoly.constant(int(k == 0), mode)
    return _newton_step(mode, k, lambda j: _complete(mode, j))


def _orthogonal_character(mode: GroupMode, lam: tuple[int, ...]) -> tuple[TracePoly, Fraction]:
    """Koike-Terada orthogonal character o_lam in ``mode``, and its eigenvalue.

    o_lam = det(h_{lam_i-i+j} - h_{lam_i-i-j})_{i,j <= N // 2} (Koike and
    Terada, J. Algebra 107, 1987); ``lam`` has N // 2 parts, zeros allowed.
    For even N and lam_r > 0 it is the sum of the two mirror SO(N)
    characters.  The eigen-equation D o_lam = c o_lam, c the Casimir value
    of lam, is verified exactly.
    """
    size = range(len(lam))  # 0-based i, j: the 1-based indices shift the lower h by 2
    rows = [
        [_complete(mode, lam[i] - i + j) - _complete(mode, lam[i] - i - j - 2) for j in size]
        for i in size
    ]
    poly = _determinant(rows)
    eigenvalue = _casimir(mode.n, lam)
    if lap(poly) != poly * eigenvalue:
        raise ArithmeticError(f"character eigen-equation fails at {lam} in {mode}")
    return poly, eigenvalue


def _determinant(rows: list[list[TracePoly]]) -> TracePoly:
    """Determinant by Laplace expansion along the first row: r! products of
    r entries for an r x r matrix, r = N // 2 here."""
    if len(rows) == 1:
        return rows[0][0]
    minors = ([row[:j] + row[j + 1:] for row in rows[1:]] for j in range(len(rows)))
    terms = [entry * _determinant(minor) for entry, minor in zip(rows[0], minors)]
    det = terms[0]
    for j, term in enumerate(terms[1:], 1):
        det = det - term if j % 2 else det + term
    return det


def character_so3(k: int) -> Character:
    """Weight-k irreducible SO(3) character, in both flag bases.

    The power form is o_(k) = h_k - h_{k-2} in powers of p_1; the trace form
    is -(k-1)/3 p_0 + p_1 + ... + p_k.  The equality of the two forms and
    the eigen-equation are verified exactly on construction.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    trace_terms: dict[Partition, object] = {EMPTY: -(k - 1)}
    for m in range(1, k + 1):
        trace_terms[Partition((m,))] = 1
    trace_form = TracePoly(trace_terms, general_at(3))
    power_form, eigenvalue = _orthogonal_character(SO3, (k,))
    if trace_form.reduce(SO3) != power_form:
        raise ArithmeticError(f"character forms disagree at k={k}")
    return Character("so3", (k,), eigenvalue, power_form, trace_form)


def character_so4(j1, j2) -> Character:
    """Irreducible SO(4) character for the spin pair (j1, j2).

    Admissible pairs are nonnegative half-integers with integer sum; the
    result is the symmetric trace polynomial covering the unordered pair
    (the mirror labels (j1,j2) and (j2,j1) give one and the same function).
    It is the sum of the characters of the two mirror labels:
    o_(j1+j2, |j1-j2|) when j1 != j2, twice it when j1 = j2.  The eigen-equation
    D chi = -(j1(j1+1)+j2(j2+1)) chi is verified exactly.
    """
    j1 = Fraction(j1)
    j2 = Fraction(j2)
    if j1 < 0 or j2 < 0 or (2 * j1).denominator != 1 or (2 * j2).denominator != 1:
        raise ValueError("spins must be nonnegative half-integers")
    if (j1 + j2).denominator != 1:
        raise ValueError(
            f"spin pair ({j1}, {j2}) is not an SO(4) label: j1 + j2 must be an integer"
        )
    ka = int(2 * j1)
    kb = int(2 * j2)
    poly, eigenvalue = _orthogonal_character(SO4, _so4_weight(ka, kb))
    if ka == kb:
        poly = poly * 2
    return Character("so4", (max(ka, kb), min(ka, kb)), eigenvalue, poly)


@lru_cache(maxsize=None)
def _label_character(mode: GroupMode, label) -> Character:
    """The irreducible character named by a spectrum label of ``mode``.

    Built and verified once per label; :func:`match_characters` still checks
    it against every matrix.  From SO(5) on the label is the highest weight
    lam and the character is o_lam.
    """
    if mode == SO3:
        return character_so3(label)
    if mode == SO4:
        k1, k2 = label
        return character_so4(Fraction(k1, 2), Fraction(k2, 2))
    poly, eigenvalue = _orthogonal_character(mode, label)
    return Character(mode.tag, label, eigenvalue, poly)


def match_characters(matrix: FlagMatrix) -> list[tuple[SpectrumEntry, Character]]:
    """Locate the character of every spectrum label inside its eigenspace.

    Returns one (entry, character) pair per label, in spectrum order; entries
    carry the exact geometric multiplicity, so eigenvalues richer than their
    character count are visible to the caller.  A character missing from its
    eigenspace is an inconsistency and raises.

    A character's coordinates are located once per flag: the flag is nested,
    so in every order they are the same list, zero-padded.  They are reused
    only for the very character object they were located for, and checked
    against every matrix.
    """
    stored = matrix.flag.coords
    out = []
    for entry in eigenvalues_exact(matrix):
        for label in entry.labels:
            character = _label_character(matrix.basis.mode, label)
            hit = stored.get(label)
            if hit is None or hit[0] is not character:
                coords = coordinates(character.poly, matrix.basis)
                while coords and not coords[-1]:
                    coords.pop()
                hit = stored[label] = (character, coords)
            coords = hit[1] + [Fraction(0)] * (matrix.dim - len(hit[1]))
            if not _in_kernel(matrix, entry.eigenvalue, coords):
                raise ArithmeticError(
                    f"character {character.label} escaped the eigenspace of {entry.eigenvalue}"
                )
            out.append((entry, character))
    return out


def _in_kernel(matrix: FlagMatrix, eigenvalue: Fraction, vec: list[Fraction]) -> bool:
    """Whether (M - eigenvalue I) vec = 0 exactly, in integer arithmetic."""
    ints = _cleared(vec)[1]
    support = [j for j, v in enumerate(ints) if v]
    num, den = eigenvalue.numerator, eigenvalue.denominator
    return all(
        den * sum(row[j] * ints[j] for j in support) == num * scale * ints[i]
        for i, (scale, row) in enumerate(matrix._integer_rows)
    )


# ---------------------------------------------------------------------------
# exports


def matrix_to_json_obj(matrix: FlagMatrix) -> dict:
    basis = matrix.basis
    return {
        "mode": basis.mode.tag,
        "n": basis.mode.n,
        "basis_id": basis.basis_id,
        "k": basis.k,
        "basis": [basis.label(i) for i in range(basis.dim)],
        "block_starts": list(basis.block_starts),
        "entries": [[str(v) for v in row] for row in matrix.entries],
    }


def matrix_to_json(matrix: FlagMatrix) -> str:
    return json.dumps(matrix_to_json_obj(matrix), sort_keys=True)


def matrix_to_csv(matrix: FlagMatrix) -> str:
    basis = matrix.basis
    lines = [
        f"# mode={basis.mode.tag} n={basis.mode.n} basis={basis.basis_id} k={basis.k}",
        "# basis_order=" + "|".join(basis.label(i) for i in range(basis.dim)),
        "row,col,value,exact",
    ]
    for i, row in enumerate(matrix.entries):
        for j, value in enumerate(row):
            decimal = float(value) if isinstance(value, Fraction) else ""
            lines.append(f"{i},{j},{decimal!r},{value}")
    return "\n".join(lines) + "\n"


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    value = abs(value)
    return f"{sign}\\frac{{{value.numerator}}}{{{value.denominator}}}"


def matrix_to_latex(matrix: FlagMatrix) -> str:
    """Bordered array with Delta-labelled columns, rationals as \\frac."""
    basis = matrix.basis
    labels = [basis.label(i) for i in range(basis.dim)]
    cols = "c|" + "c" * basis.dim
    lines = [f"\\begin{{array}}{{{cols}}}"]
    lines.append(" & " + " & ".join(f"\\Delta {lab}" for lab in labels) + " \\\\")
    lines.append("\\hline")
    for i, row in enumerate(matrix.entries):
        cells = [
            _latex_rational(v) if isinstance(v, Fraction) else str(v) for v in row
        ]
        lines.append(labels[i] + " & " + " & ".join(cells) + " \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


def matrix_to_pretty(matrix: FlagMatrix) -> str:
    basis = matrix.basis
    labels = [basis.label(i) for i in range(basis.dim)]
    header = [""] + [f"D {lab}" for lab in labels]
    rows = [header]
    for i, row in enumerate(matrix.entries):
        rows.append([labels[i]] + [str(v) for v in row])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(out) + "\n"
