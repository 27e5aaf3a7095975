"""Flag bases, the restricted Laplacian matrix, exact spectra and characters.

The graded flag of trace-polynomial spaces gives the restricted operator an
upper block triangular matrix whose diagonal blocks carry the whole
spectrum.  Every basis is a tuple of trace monomials indexed by partitions,
so one coordinate loop and one label renderer serve all of them.  One rank
rule, r = N // 2, serves every reduced mode SO(N), N >= 3: the weight-w
block is spanned by the p_mu, mu |- w with parts <= r, and its labels are
the conjugate highest weights lam (at most r parts), one per row, each with
its Casimir value -sum_i lam_i(lam_i + N - 2i)/2.  Two labels of one block
can share a value from SO(6) on ((4,1,1) and (3,3,0) at weight 6).

The irreducible characters certify the spectrum and the eigenspaces of every
numeric flag (:func:`_certified_blocks`): each label's character, a
Koike-Terada determinant built independently of the matrices, must lie in
ker(M - cI), c its value, and the characters sharing a value in one block
must be independent there.  Then the labels diagonalize M, a value's
multiplicity is its number of labels and its eigenspace their span.  A
failed check is an inconsistency and raises, naming the block's weight;
nothing falls back to elimination.  The fixed-N ``general`` spanning set
takes the same certificate: its weight-w block is labelled by every
lam |- w with the value -sum_i lam_i(lam_i + N - 2i)/2, and each label's
character is the universal o_lam, whose coefficients are free of N.  Only
symbolic N is refused.  Matrix rows are held as their nonzero entries and
made integer once; every kernel check runs on those integer rows.

The flag is nested: the order-k matrix is the leading principal submatrix of
every higher order of the same (mode, basis), with nothing below its
diagonal blocks, and a character's coordinates depend only on the basis
elements up to its weight.  So a block's certificate holds for every order
and is kept once per flag, in a store that every matrix :func:`build_matrix`
makes for it shares.  A hand-built :class:`FlagMatrix` gets a store of its
own, so it is certified itself.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm

from .laplacian import lap, lap_monomial, so3_lap_pm_btrace
from .npoly import NPoly
from .partitions import EMPTY, Partition, _descending, enumerate_upto
from .tracepoly import (
    SO3,
    SO4,
    GroupMode,
    TracePoly,
    _dimension,
    _symmetric,
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
    elif basis_id == "btrace":  # (j) and the _descending parts are canonical already
        elements = [Partition._trusted((j,) if j else ()) for j in range(k + 1)]
    else:
        elements = [
            Partition._trusted(mu) for w in range(k + 1) for mu in sorted(_descending(w, mode.rank))
        ]
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
    coords = [_zero(basis.mode)] * basis.dim
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


@lru_cache(maxsize=None)
def _flag(mode: GroupMode, basis_id: str) -> dict:
    """The one store of certified blocks shared by every matrix
    :func:`build_matrix` makes for a flag, valid for every order built from
    it: ``store[weight]`` is {eigenvalue: [(label, coordinates)]} of a
    certified weight block, each label's character coordinates cut at the
    block end."""
    return {}


def _zero(mode: GroupMode):
    """The one zero every entry of a ``mode`` flag matrix shares."""
    return NPoly(0) if mode.symbolic else Fraction(0)


def _exact(mode: GroupMode, value, i: int, j: int):
    """A hand-given entry (i, j) as the matrix keeps it: an ``NPoly`` in
    symbolic mode, else a ``Fraction``, itself or from an ``int`` (not a ``bool``)."""
    kinds = (NPoly,) if mode.symbolic else (int, Fraction)
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        kind = type(value).__name__
        raise TypeError(f"entry ({i},{j}) of a {mode.tag} flag matrix is a {kind}, not {names}")
    return Fraction(value) if isinstance(value, int) else value


class _Row(Sequence):
    """One matrix row, held as its nonzero entries ``terms`` ({column: value},
    in column order) and read as the dense row: indexing, slicing, iteration,
    equality and hashing all behave as on the tuple with ``zero`` in every
    other column."""

    __slots__ = ("dim", "zero", "terms")

    def __init__(self, dim: int, zero, terms: dict):
        self.dim = dim
        self.zero = zero
        self.terms = terms

    def __len__(self) -> int:
        return self.dim

    def _dense(self) -> list:
        row = [self.zero] * self.dim
        for j, value in self.terms.items():
            row[j] = value
        return row

    def __iter__(self):
        return iter(self._dense())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._dense()[index])
        j = range(self.dim)[index]  # negative indices, and IndexError past the end
        return self.terms.get(j, self.zero)

    def __eq__(self, other):
        if isinstance(other, (tuple, _Row)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class FlagMatrix:
    """Exact matrix of the restricted Laplacian; column j = coords of D(basis[j]).

    ``entries`` reads as the dense rows, but each row holds only its nonzero
    entries (the flag matrices are nearly empty: 13 863 of 915^2 entries at
    general k = 16).  Dense rows given by hand are converted to that form,
    an ``int`` entry becoming a ``Fraction``; a row count or row length
    other than the basis dimension is refused, and so is an entry that is
    not exact: numeric modes take ``int`` and ``Fraction``, symbolic mode
    takes ``NPoly``.

    Certified blocks are kept in ``flag``, the store of :func:`_flag`, shared
    by every order of one flag that :func:`build_matrix` makes: each order-k
    matrix is the leading principal submatrix of the higher ones, so a block
    certified for one order is certified for all.  A hand-built matrix gets a fresh store, so
    a perturbed copy never sees another matrix's results.
    """

    basis: FlagBasis
    entries: tuple[Sequence, ...]  # rows of Fraction (numeric) or NPoly (symbolic)
    flag: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        dim = self.basis.dim
        if len(self.entries) != dim:
            raise ValueError(f"a dim-{dim} flag matrix needs {dim} rows, got {len(self.entries)}")
        mode = self.basis.mode
        zero = _zero(mode)
        rows = []
        for i, row in enumerate(self.entries):
            if len(row) != dim:
                raise ValueError(f"row {i} of a dim-{dim} flag matrix has {len(row)} entries")
            if not isinstance(row, _Row):
                cells = ((j, _exact(mode, v, i, j)) for j, v in enumerate(row))
                row = _Row(dim, zero, {j: v for j, v in cells if v})
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _eigenblocks(self) -> dict[Fraction, list[tuple[object, list[Fraction]]]]:
        """(label, character coordinates) of each eigenvalue's labels, from
        the certificate of :func:`_certified_blocks`."""
        return _certified_blocks(self)

    @cached_property
    def _integer_rows(self) -> list[tuple[int, dict[int, int]]]:
        """Each row as (scale, {column: int}), the ints scale times the row's
        nonzero entries and scale their least common denominator: the one
        integer form every kernel check reads."""
        out = []
        for row in self.entries:
            scale = lcm(*(v.denominator for v in row.terms.values()))
            out.append((scale, {j: v.numerator * (scale // v.denominator) for j, v in row.terms.items()}))
        return out


def build_matrix(mode: GroupMode, basis_id: str, k: int) -> FlagMatrix:
    """Assemble the order-k flag matrix and assert block triangularity.

    Each column's image is written into the rows as {column: value} terms,
    one per monomial it has, and those terms are the rows the matrix keeps:
    no dense dim x dim form is built.
    """
    basis = basis_for(mode, basis_id, k)
    dim = basis.dim
    terms = [{} for _ in range(dim)]  # each row's nonzero entries, in column order
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
                terms[i][j] = value
    if below:
        # the least triple is the entry a row-major scan below each block meets first
        _, i, j = min(below)
        raise ArithmeticError(f"block triangularity violated at entry ({i},{j}); reduction bug")
    zero = _zero(mode)
    rows = tuple(_Row(dim, zero, row_terms) for row_terms in terms)
    return FlagMatrix(basis, rows, _flag(mode, basis_id))


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


def _primitive(vec: list) -> list[Fraction]:
    """Scale to coprime integers with a positive leading nonzero entry."""
    ints = _content_free(_cleared(vec)[1])
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


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
    highest weight lam itself, r parts with zeros, from SO(5) on.  At a fixed
    N the general block has one row per lam |- weight, each its own label."""
    r = mode.rank
    if r is None:
        return [(_casimir(mode.n, lam), lam) for lam in _descending(weight, weight)]
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
    n = None if n is None else _dimension(n)
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


def _certified_blocks(matrix: FlagMatrix) -> dict[Fraction, list[tuple[object, list[Fraction]]]]:
    """The character certificate of the spectrum, block by block.

    The labels of the weight-w block are its closed-form candidates, one per
    row, in a reduced mode and in fixed-N general mode alike.  Each label's
    character must lie in ker(M - cI), c its Casimir value, and the
    characters that share c in the block must be independent on it.
    Characters of distinct values, or ending in distinct blocks, are
    independent anyway, so the labels give dim M independent eigenvectors:
    they diagonalize M, the multiplicity of c is its number of labels and
    ker(M - cI) is their span.  A failed check is an inconsistency and
    raises, naming the block's weight.  Each block's result is kept in the
    flag store, so a block is certified once per flag.

    Returns (label, character coordinates cut at the label's block end) of
    each eigenvalue's labels, in block order.
    """
    mode = matrix.basis.mode
    if mode.symbolic:
        raise ValueError("the symbolic general flag has no certified spectrum; fix N first")
    found: dict[Fraction, list[tuple[object, list[Fraction]]]] = {}
    for start, end, weight in matrix.basis.block_ranges():
        block = matrix.flag.get(weight)
        if block is None:
            block = {}
            for eig, label in _closed_candidates(mode, weight):
                coords = coordinates(_label_character(mode, label).poly, matrix.basis)
                if not _in_kernel(matrix, eig, coords):
                    raise ArithmeticError(
                        f"weight-{weight} block: the character of {label} escaped the eigenspace of {eig}"
                    )
                block.setdefault(eig, []).append((label, coords[:end]))
            for eig, pairs in block.items():
                parts = [_cleared(coords[start:end])[1] for _, coords in pairs]
                if len(_rref(parts)[1]) < len(parts):
                    labels = [label for label, _ in pairs]
                    raise ArithmeticError(
                        f"weight-{weight} block: the characters of {labels} at {eig} are dependent"
                    )
            matrix.flag[weight] = block
        for eig, pairs in block.items():
            found.setdefault(eig, []).extend(pairs)
    return found


def eigenvalues_exact(matrix: FlagMatrix) -> list[SpectrumEntry]:
    """Exact spectrum of a numeric flag matrix, certified by its characters.

    Each eigenvalue carries the labels whose characters span its eigenspace
    (see :func:`_certified_blocks`), in block order, and its geometric
    multiplicity is their number.
    """
    labels = {eig: tuple(label for label, _ in pairs) for eig, pairs in matrix._eigenblocks.items()}
    return [SpectrumEntry(eig, labels[eig], len(labels[eig])) for eig in sorted(labels, reverse=True)]


def eigenspace_exact(matrix: FlagMatrix, eigenvalue: Fraction) -> list[list[Fraction]]:
    """Exact basis of ker(M - eigenvalue I) in the normal form of the RREF
    nullspace: primitive vectors, ordered by their last nonzero entry, each
    zero at the others' last nonzero entries.

    It is the row reduction from the right of the certified character
    coordinates (see :func:`_certified_blocks`), cut at the end of the
    eigenvalue's last block: the coordinates span the kernel, and that
    reduction is the one normal form the kernel alone fixes.  Every call
    returns fresh lists, zero-padded to the matrix.
    """
    blocks = matrix._eigenblocks  # the symbolic flag is refused before the value is read
    eigenvalue = Fraction(eigenvalue)
    pairs = blocks.get(eigenvalue)
    if not pairs:
        raise ArithmeticError(f"{eigenvalue} has an empty eigenspace; not an eigenvalue")
    end = len(pairs[-1][1])  # the labels of the last block come last
    flipped = [[0] * (end - len(coords)) + _cleared(coords)[1][::-1] for _, coords in pairs]
    pad = [Fraction(0)] * (matrix.dim - end)
    # the rows come in pivot order, so by descending last nonzero entry once flipped back
    return [_primitive(row[::-1]) + pad for row in reversed(_rref(flipped)[0])]


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


def _orthogonal_character(mode: GroupMode, lam: tuple[int, ...]) -> tuple[TracePoly, Fraction]:
    """Koike-Terada orthogonal character o_lam in ``mode``, and its eigenvalue.

    Koike and Terada (J. Algebra 107, 1987) give the universal o_lam two
    determinants, equal in the ring of symmetric functions and so under every
    specialization: to a rotation's eigenvalues in ``so(N)``, and to the free
    p_m of fixed-N general mode.  The smaller is built, the h-form on a tie
    (0-based i, j; l(lam) the number of nonzero parts, lam' the conjugate):

    - the h-form det(h_{lam_i-i+j} - h_{lam_i-i-j-2}) on l(lam) rows.  The
      r x r determinant of an r-part ``lam`` (zeros allowed) is exactly this
      leading minor: a row i >= l(lam) has lam_i = 0, so its entries are zero
      left of the diagonal and 1 on it, a unit triangular corner;
    - the e-form on lam_1 rows, column 0 e_{lam'_i-i} and column j > 0
      e_{lam'_i-i+j} + e_{lam'_i-i-j}: the dual determinant itself, uncut,
      since lam' has exactly lam_1 nonzero parts.

    In ``so(N)`` ``lam`` has N // 2 parts, and for even N and lam_r > 0 o_lam
    is the sum of the two mirror SO(N) characters; in general mode ``lam``
    is any partition.  The eigen-equation D o_lam = c o_lam, c the Casimir
    value of lam at N, is verified exactly.
    """
    length = sum(part > 0 for part in lam)
    width = lam[0] if lam else 0
    if length <= width:
        h = partial(_symmetric, mode, 1)
        size = range(length)
        rows = [[h(lam[i] - i + j) - h(lam[i] - i - j - 2) for j in size] for i in size]
    else:
        e = partial(_symmetric, mode, -1)
        shifts = [sum(part > i for part in lam) - i for i in range(width)]  # lam'_i - i
        rows = [[e(c + j) + e(c - j) if j else e(c) for j in range(width)] for c in shifts]
    poly = _determinant(rows) if rows else TracePoly.constant(1, mode)
    eigenvalue = _casimir(mode.n, lam)
    if lap(poly) != poly * eigenvalue:
        raise ArithmeticError(f"character eigen-equation fails at {lam} in {mode}")
    return poly, eigenvalue


def _determinant(rows: list[list[TracePoly]]) -> TracePoly:
    """Determinant by Laplace expansion along the first row: r! products of
    r entries for an r x r matrix, r = min(l(lam), lam_1) here."""
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

    Built and verified once per label; the certificate of
    :func:`_certified_blocks` checks it against every flag.  From SO(5) on
    the label is the highest weight lam and the character is o_lam; at a
    fixed N in general mode it is the partition lam of the universal o_lam.
    """
    if mode == SO3:
        return character_so3(label)
    if mode == SO4:
        k1, k2 = label
        return character_so4(Fraction(k1, 2), Fraction(k2, 2))
    poly, eigenvalue = _orthogonal_character(mode, label)
    return Character(mode.tag, label, eigenvalue, poly)


def match_characters(matrix: FlagMatrix) -> list[tuple[SpectrumEntry, Character]]:
    """Pair every spectrum label with its irreducible character.

    Returns one (entry, character) pair per label, in spectrum order; entries
    carry the exact geometric multiplicity.  The spectrum's certificate has
    already found each character inside its eigenspace, so nothing is
    located or checked again here.
    """
    mode = matrix.basis.mode
    return [
        (entry, _label_character(mode, label))
        for entry in eigenvalues_exact(matrix)
        for label in entry.labels
    ]


def _in_kernel(matrix: FlagMatrix, eigenvalue: Fraction, vec: list[Fraction]) -> bool:
    """Whether (M - eigenvalue I) vec = 0 exactly, in integer arithmetic."""
    ints = _cleared(vec)[1]
    num, den = eigenvalue.numerator, eigenvalue.denominator
    return all(
        den * sum(v * ints[j] for j, v in row.items()) == num * scale * ints[i]
        for i, (scale, row) in enumerate(matrix._integer_rows)
    )


# ---------------------------------------------------------------------------
# exports


def _cells(matrix: FlagMatrix, render):
    """Each row rendered cell by cell: the rendered zero, computed once, with
    the nonzero entries' renderings written over it."""
    zero = render(_zero(matrix.basis.mode))
    for row in matrix.entries:
        cells = [zero] * matrix.dim
        for j, value in row.terms.items():
            cells[j] = render(value)
        yield cells


def matrix_to_json_obj(matrix: FlagMatrix) -> dict:
    basis = matrix.basis
    return {
        "mode": basis.mode.tag,
        "n": basis.mode.n,
        "basis_id": basis.basis_id,
        "k": basis.k,
        "basis": [basis.label(i) for i in range(basis.dim)],
        "block_starts": list(basis.block_starts),
        "entries": list(_cells(matrix, str)),
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
    for i, cells in enumerate(_cells(matrix, _csv_cell)):
        lines.extend(f"{i},{j},{cell}" for j, cell in enumerate(cells))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    decimal = float(value) if isinstance(value, Fraction) else ""
    return f"{decimal!r},{value}"


def _latex_cell(value) -> str:
    return _latex_rational(value) if isinstance(value, Fraction) else str(value)


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
    for i, cells in enumerate(_cells(matrix, _latex_cell)):
        lines.append(labels[i] + " & " + " & ".join(cells) + " \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


def matrix_to_pretty(matrix: FlagMatrix) -> str:
    basis = matrix.basis
    labels = [basis.label(i) for i in range(basis.dim)]
    header = [""] + [f"D {lab}" for lab in labels]
    rows = [header]
    for i, cells in enumerate(_cells(matrix, str)):
        rows.append([labels[i]] + cells)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(out) + "\n"
