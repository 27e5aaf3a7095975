import math
import random
import tracemalloc
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
    build_matrix,
    character_so3,
    character_so4,
    coordinates,
    eigenspace_exact,
    eigenvalues_exact,
    general_at,
    lap,
    match_characters,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_latex,
    rotation_from_angles,
    so,
    so3_pm_in_p1,
    spectrum_closed,
)
from sonlap import flagmatrix, laplacian, tracepoly
from sonlap.partitions import enumerate_upto
from refdata import (
    SO4_CHARACTER_TABLE,
    SO4_K4_BASIS,
    SO4_K4_EIGENVALUES,
    SO4_K4_EIGENVECTORS,
    SO4_K4_MATRIX,
    candidate_characters,
    char_poly,
    closed_candidates_per_group,
    descending_recursive,
    eigenspaces_by_elimination,
    exact_value,
    block_values_reference,
    leading_kernel_reference,
    orthogonal_character_full,
    so3_character_double_binomial,
    so4_basis_per_group,
    so4_character_chebyshev,
    so4_monomial_partition,
    spectrum_closed_per_group,
    universal_character_h_form,
)

F = Fraction


def so4_poly(monomials) -> TracePoly:
    terms = {so4_monomial_partition(l, m): coeff for (l, m), coeff in monomials.items()}
    return TracePoly(terms, SO4)


def colinear(a, b) -> bool:
    ratio = None
    for x, y in zip(a, b):
        if bool(x) != bool(y):
            return False
        if x:
            r = F(y) / F(x)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


# ---------------------------------------------------------------------------
# bases


def test_basis_so3_trace_k3():
    basis = basis_for(SO3, "btrace", 3)
    assert [basis.label(i) for i in range(basis.dim)] == ["p_0", "p_1", "p_2", "p_3"]


def test_basis_so4_k4_order():
    basis = basis_for(SO4, "so4", 4)
    assert list(basis.elements) == SO4_K4_BASIS
    assert [basis.label(i) for i in range(basis.dim)] == [
        "p_0", "p_1", "p_1^2", "p_2", "p_1^3", "p_1 p_2", "p_1^4", "p_1^2 p_2", "p_2^2",
    ]


def test_basis_general_k2():
    basis = basis_for(GENERAL, "general", 2)
    assert [p.parts for p in basis.elements] == [(), (1,), (2,), (1, 1)]


@pytest.mark.parametrize("k", range(9))
def test_basis_dimensions(k):
    assert basis_for(SO3, "bprime", k).dim == k + 1
    expected_so4 = 1 + sum(j // 2 + 1 for j in range(1, k + 1))
    assert basis_for(SO4, "so4", k).dim == expected_so4


def test_basis_weights_are_graded():
    basis = basis_for(SO4, "so4", 7)
    assert list(basis.weights) == sorted(basis.weights)
    # inside one weight the p_2 count increases
    for start, end, w in basis.block_ranges():
        ms = [basis.elements[i].parts.count(2) for i in range(start, end)]
        assert ms == sorted(ms)


@pytest.mark.parametrize(
    "mode,basis_id",
    [
        (GENERAL, "general"), (general_at(5), "general"), (SO3, "bprime"), (SO3, "btrace"),
        (SO4, "so4"), (so(6), "so6"),
    ],
)
def test_basis_positions_match_elements(mode, basis_id):
    basis = basis_for(mode, basis_id, 7)
    assert basis.positions == {element: i for i, element in enumerate(basis.elements)}
    assert basis.positions is basis.positions  # built once per basis


@pytest.mark.parametrize(
    "mode,basis_id",
    [
        (GENERAL, "general"), (general_at(5), "general"), (SO3, "bprime"), (SO3, "btrace"),
        (SO4, "so4"), (so(5), "so5"), (so(6), "so6"), (so(8), "so8"),
    ],
)
def test_basis_elements_equal_the_validated_partitions(mode, basis_id):
    """The elements are built unchecked; each equals the validated partition
    of its parts, degree and hash included, in the order of the former
    construction from validated partitions."""
    for k in range(13):
        elements = list(basis_for(mode, basis_id, k).elements)
        if basis_id == "general":
            expected = [Partition(mu) for w in range(k + 1) for mu in descending_recursive(w, w)]
        elif basis_id == "btrace":
            expected = [Partition.of(j) for j in range(k + 1)]
        else:
            expected = [
                Partition(mu)
                for w in range(k + 1)
                for mu in sorted(descending_recursive(w, mode.rank))
            ]
        assert elements == expected, k
        for element, validated in zip(elements, expected):
            assert type(element.parts) is tuple and element.parts == validated.parts
            assert element.degree == validated.degree and hash(element) == hash(validated)


def test_basis_rejects_bad_combos():
    with pytest.raises(ValueError):
        basis_for(SO4, "bprime", 2)
    with pytest.raises(ValueError):
        basis_for(SO3, "so4", 2)
    with pytest.raises(ValueError):
        basis_for(SO3, "nope", 2)
    with pytest.raises(ValueError, match="requires SO\\(4\\) mode"):
        basis_for(so(5), "so4", 2)
    with pytest.raises(ValueError, match="requires SO\\(5\\) mode"):
        basis_for(so(6), "so5", 2)
    for basis_id in ("so3", "so05", "so", "so2", "xx5"):
        with pytest.raises(ValueError, match="unknown basis"):
            basis_for(SO3, basis_id, 2)
    with pytest.raises(ValueError):
        basis_for(general_at(5), "so5", 2)


# ---------------------------------------------------------------------------
# matrices


def test_so3_bprime_column_j3():
    matrix = build_matrix(SO3, "bprime", 3)
    assert [row[3] for row in matrix.entries] == [F(0), F(9), F(6), F(-6)]


def test_so3_bprime_patterns_k10():
    k = 10
    matrix = build_matrix(SO3, "bprime", k)
    for j in range(k + 1):
        assert matrix.entries[j][j] == F(-j * (j + 1), 2)
        if j >= 2:
            assert matrix.entries[j - 1][j] == F(j * (j - 1))
        if j >= 3:
            assert matrix.entries[j - 2][j] == F(3 * j * (j - 1), 2)
    # constants only appear in the j=2 column; exact p_0 coordinate is 1
    first_row = [matrix.entries[0][j] for j in range(k + 1)]
    assert first_row == [F(0), F(0), F(1)] + [F(0)] * (k - 2)


def test_so3_btrace_patterns_k10():
    k = 10
    matrix = build_matrix(SO3, "btrace", k)
    first_row = [matrix.entries[0][m] for m in range(k + 1)]
    assert first_row == [F(m * (m - 1), 2) for m in range(k + 1)]
    for m in range(k + 1):
        assert matrix.entries[m][m] == F(-m * (m + 1), 2)
        for j in range(1, m):
            assert matrix.entries[j][m] == F(-m)


def test_so4_k4_matrix_verbatim():
    matrix = build_matrix(SO4, "so4", 4)
    assert [list(row) for row in matrix.entries] == [[F(v) for v in row] for row in SO4_K4_MATRIX]


def test_so4_k0_matrix_is_zero():
    matrix = build_matrix(SO4, "so4", 0)
    assert matrix.entries == ((F(0),),)


@pytest.mark.parametrize("k", range(9))
def test_block_triangularity_exact(k):
    matrix = build_matrix(SO4, "so4", k)
    for start, end, _ in matrix.basis.block_ranges():
        for i in range(end, matrix.dim):
            for j in range(start, end):
                assert matrix.entries[i][j] == 0


def _row_major_violation(entries, basis):
    """First nonzero below a diagonal block, block by block, row by row."""
    for start, end, _ in basis.block_ranges():
        for i in range(end, basis.dim):
            for j in range(start, end):
                if entries[i][j]:
                    return i, j
    return None


@pytest.mark.parametrize(
    "mode,basis_id,injections,expected",
    [
        # two hits under one block: the row scan meets (6,3) before (10,2)
        (GENERAL, "general", {2: 10, 3: 6}, (6, 3)),
        # hits under two blocks: the earlier block is reported, larger row or not
        (GENERAL, "general", {2: 10, 5: 7}, (10, 2)),
        (general_at(5), "general", {2: 10, 3: 6}, (6, 3)),
        (SO4, "so4", {2: 6, 3: 4}, (4, 3)),
    ],
)
def test_block_triangularity_violation_is_reported(monkeypatch, mode, basis_id, injections, expected):
    """Out-of-flag terms injected into the columns `lap_monomial` gives (column -> row) raise
    at the entry the row-major scan below each block meets first."""
    k = 4
    basis = basis_for(mode, basis_id, k)
    extra = {basis.elements[j]: basis.elements[i] for j, i in injections.items()}
    original = flagmatrix.lap_monomial

    def patched(part, mode):
        image = original(part, mode)
        if part in extra:
            image = image + TracePoly.monomial(extra[part], 1, mode)
        return image

    monkeypatch.setattr(flagmatrix, "lap_monomial", patched)
    with pytest.raises(ArithmeticError, match=rf"at entry \({expected[0]},{expected[1]}\);"):
        build_matrix(mode, basis_id, k)
    monkeypatch.undo()
    entries = [list(row) for row in build_matrix(mode, basis_id, k).entries]
    for j, i in injections.items():
        entries[i][j] = 1
    assert _row_major_violation(entries, basis) == expected


def _dense_columns(mode, basis_id, k):
    """The coordinate list of each basis element's image: the matrix columns,
    built densely.  A ``btrace`` element p_m is the SO(3) polynomial p_m in p_1."""
    basis = basis_for(mode, basis_id, k)
    if basis_id == "btrace":
        images = [lap(so3_pm_in_p1(e.degree)) for e in basis.elements]
    else:
        images = [laplacian.lap_monomial(e, mode) for e in basis.elements]
    return [coordinates(image, basis) for image in images]


@pytest.mark.parametrize(
    "mode,basis_id,kmax",
    [
        (GENERAL, "general", 10),
        (general_at(5), "general", 8),
        (SO4, "so4", 8),
        (SO3, "btrace", 10),
    ],
)
def test_row_filled_assembly_matches_dense_columns(mode, basis_id, kmax):
    """build_matrix writes each image's sparse coordinates into the rows; the
    dense route, one coordinate list per element, transposed, gives the same
    entries."""
    for k in range(kmax + 1):
        columns = _dense_columns(mode, basis_id, k)
        assert build_matrix(mode, basis_id, k).entries == tuple(zip(*columns)), k


@pytest.mark.parametrize(
    "mode,basis_id,kmax",
    [(SO3, "bprime", 8), (SO3, "btrace", 8), (SO4, "so4", 6), (GENERAL, "general", 8)],
)
def test_sparse_rows_read_as_the_dense_rows(mode, basis_id, kmax):
    """Each stored row reads as the dense tuple of the column images: the same
    values, indexing (negative too), slices, length, IndexError past the end,
    equality and hash; a matrix given those dense rows by hand equals and
    hashes as the built one."""
    for k in range(kmax + 1):
        matrix = build_matrix(mode, basis_id, k)
        dense = tuple(zip(*_dense_columns(mode, basis_id, k)))
        assert tuple(map(tuple, matrix.entries)) == dense, k
        for row, ref in zip(matrix.entries, dense):
            size = len(ref)
            assert len(row) == size
            assert (row[-1], row[-size], row[size - 1]) == (ref[-1], ref[0], ref[-1])
            assert row[1:3] == ref[1:3] and row[::-2] == ref[::-2] and row[5:] == ref[5:]
            for index in (size, -size - 1):
                with pytest.raises(IndexError):
                    row[index]
            assert row == ref and ref == row and list(row) == list(ref)
            assert hash(row) == hash(ref)
        by_hand = flagmatrix.FlagMatrix(matrix.basis, dense)
        assert matrix == by_hand and by_hand.entries == dense
        assert hash(matrix) == hash(by_hand)


@pytest.mark.parametrize(
    "cut,message",
    [("rows", "needs 4 rows, got 3"), ("row length", "row 0 of a dim-4 flag matrix has 3 entries")],
)
def test_mis_shaped_matrix_is_refused(cut, message):
    """Too few rows, or rows cut short, are refused on construction, naming
    the expected dimension, not left to fail with an IndexError later."""
    matrix = build_matrix(SO3, "bprime", 3)
    if cut == "rows":
        entries = matrix.entries[:3]
    else:
        entries = tuple(row[:3] for row in matrix.entries)
    with pytest.raises(ValueError, match=message):
        flagmatrix.FlagMatrix(matrix.basis, entries)


@pytest.mark.parametrize(
    "mode, basis_id, value, kind",
    [
        (SO3, "bprime", -1.0, "float"),
        (SO3, "bprime", 0.0, "float"),
        (SO3, "bprime", complex(-1, 0), "complex"),
        (SO3, "bprime", 0j, "complex"),
        (SO3, "bprime", True, "bool"),
        (SO3, "bprime", "-1", "str"),
        (GENERAL, "general", F(-1), "Fraction"),
        (GENERAL, "general", -1, "int"),
    ],
)
def test_inexact_entry_is_refused(mode, basis_id, value, kind):
    """An entry that is not exact for the mode is refused on construction,
    naming its row and column, not left to fail inside the spectrum or to
    print as a float; a zero is no exception."""
    matrix = build_matrix(mode, basis_id, 3)
    entries = [list(row) for row in matrix.entries]
    entries[1][2] = value
    with pytest.raises(TypeError, match=rf"^entry \(1,2\) of a {mode.tag} flag matrix is a {kind}, not "):
        flagmatrix.FlagMatrix(matrix.basis, entries)


def test_integer_entries_become_fractions():
    matrix = build_matrix(SO3, "bprime", 3)
    entries = [[int(v) if v.denominator == 1 else v for v in row] for row in matrix.entries]
    assert any(type(v) is int for row in entries for v in row)
    by_hand = flagmatrix.FlagMatrix(matrix.basis, entries)
    assert all(type(v) is F for row in by_hand.entries for v in row.terms.values())
    assert by_hand == matrix and matrix_to_json(by_hand) == matrix_to_json(matrix)
    assert eigenvalues_exact(by_hand) == eigenvalues_exact(matrix)
    assert match_characters(by_hand) == match_characters(matrix)


@pytest.mark.parametrize(
    "basis_mode, rows_mode, kind",
    [(general_at(4), GENERAL, "NPoly, not int or Fraction"), (GENERAL, general_at(4), "Fraction, not NPoly")],
    ids=["symbolic-rows-in-a-numeric-matrix", "numeric-rows-in-a-symbolic-matrix"],
)
def test_sparse_rows_of_another_mode_are_refused(basis_mode, rows_mode, kind):
    """Rows taken from another mode's matrix are checked like dense rows by
    hand, zeros included: refused naming the first cell, not left to fail
    inside the spectrum or to put Fractions into a symbolic matrix."""
    basis = build_matrix(basis_mode, "general", 2).basis
    rows = build_matrix(rows_mode, "general", 2).entries
    assert all(isinstance(row, flagmatrix._Row) for row in rows)
    with pytest.raises(TypeError, match=rf"^entry \(0,0\) of a general flag matrix is a {kind}$"):
        flagmatrix.FlagMatrix(basis, rows)


def test_general_build_holds_no_dense_copy():
    """Rows are held as their nonzero entries, so with the images cached the
    build's traced peak stays below half of one dense dim x dim array of
    8-byte pointers (0.21x at k = 14, dim 508; a build that held one dense
    copy of the rows read 1.24x)."""
    build_matrix(GENERAL, "general", 14)  # cache the lap_partition images
    tracemalloc.start()
    try:
        matrix = build_matrix(GENERAL, "general", 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * matrix.dim**2 * 8


@pytest.mark.parametrize(
    "mode,basis_id,kmax", [(SO3, "bprime", 8), (SO3, "btrace", 8), (SO4, "so4", 6)]
)
def test_flag_nesting(mode, basis_id, kmax):
    for k in range(kmax):
        small = build_matrix(mode, basis_id, k)
        large = build_matrix(mode, basis_id, k + 1)
        d = small.dim
        sub = tuple(tuple(large.entries[i][j] for j in range(d)) for i in range(d))
        assert sub == small.entries


def test_general_matrix_spanning_table():
    matrix = build_matrix(GENERAL, "general", 3)
    # column of the degree-2 pure trace: -(N-1) on itself, -1 on the split, 1 on p_0
    col = [row[2] for row in matrix.entries]
    n = NPoly.var()
    assert col[0] == NPoly(1)  # p_0 slot carries c/N
    assert col[2] == (n - 1) * Fraction(-1)
    assert col[3] == NPoly(-1)
    ev_error = pytest.raises(ValueError, eigenvalues_exact, matrix)
    assert ev_error


def test_general_matrix_eigenspaces():
    with pytest.raises(ValueError, match="fix N first"):
        eigenspace_exact(build_matrix(GENERAL, "general", 2), -4)
    matrix = build_matrix(general_at(5), "general", 2)
    assert eigenspace_exact(matrix, -5) == [[F(2), F(0), F(-5), F(-5)]]


def test_general_matrix_at_fixed_n():
    """At a fixed N the spanning set is certified like a reduced flag: each
    multiplicity is the dimension of the eigenspace one Fraction RREF of the
    whole matrix gives, and the labels of the weight-w block are the lam |- w,
    each matched with the universal character o_lam."""
    matrix = build_matrix(general_at(5), "general", 2)
    col = [row[2] for row in matrix.entries]
    assert col == [F(1), F(0), F(-4), F(-1)]
    for k in range(6):
        matrix = build_matrix(general_at(5), "general", k)
        entries = eigenvalues_exact(matrix)
        for entry in entries:
            assert entry.geometric_multiplicity == len(leading_kernel_reference(matrix, entry.eigenvalue))
        labels = sorted(label for entry in entries for label in entry.labels)
        assert labels == sorted(p.parts for p in enumerate_upto(k))
        for entry, character in match_characters(matrix):
            assert character.group == "general" and character.eigenvalue == entry.eigenvalue
            assert flagmatrix._casimir(5, character.label) == entry.eigenvalue


# ---------------------------------------------------------------------------
# spectra


def test_so3_eigenvalues_k15():
    for basis_id in ("bprime", "btrace"):
        matrix = build_matrix(SO3, basis_id, 15)
        entries = eigenvalues_exact(matrix)
        assert {e.eigenvalue for e in entries} == {F(-k * (k + 1), 2) for k in range(16)}
        assert all(e.geometric_multiplicity == 1 for e in entries)


def test_so4_eigenvalues_k4():
    matrix = build_matrix(SO4, "so4", 4)
    entries = eigenvalues_exact(matrix)
    assert {e.eigenvalue for e in entries} == {F(v) for v in SO4_K4_EIGENVALUES}
    assert len(entries) == 9


def test_so4_eigenvalues_k0():
    matrix = build_matrix(SO4, "so4", 0)
    entries = eigenvalues_exact(matrix)
    assert [e.eigenvalue for e in entries] == [F(0)]


def test_so4_labels_have_same_parity():
    matrix = build_matrix(SO4, "so4", 6)
    for entry in eigenvalues_exact(matrix):
        for k1, k2 in entry.labels:
            assert (k1 - k2) % 2 == 0


@pytest.mark.parametrize("k", range(9))
def test_so4_eigenvalues_within_closed_form(k):
    matrix = build_matrix(SO4, "so4", k)
    got = {e.eigenvalue for e in eigenvalues_exact(matrix)}
    closed = {e.eigenvalue for e in spectrum_closed("so4", 2 * k)}
    assert got <= closed


def test_eigenspace_printed_vectors_k4():
    matrix = build_matrix(SO4, "so4", 4)
    for eigval, printed in SO4_K4_EIGENVECTORS.items():
        space = eigenspace_exact(matrix, eigval)
        assert len(space) == 1
        assert colinear(space[0], [F(v) for v in printed])


def test_eigenspace_so3_chi2():
    matrix = build_matrix(SO3, "btrace", 2)
    space = eigenspace_exact(matrix, F(-3))
    assert len(space) == 1
    assert colinear(space[0], [F(-1, 3), F(1), F(1)])


def test_eigenspace_rejects_non_eigenvalue():
    matrix = build_matrix(SO4, "so4", 2)
    with pytest.raises(ArithmeticError):
        eigenspace_exact(matrix, F(17))


def test_spectrum_closed_so3():
    entries = spectrum_closed("so3", 4)
    assert [e.eigenvalue for e in entries] == [F(0), F(-1), F(-3), F(-6), F(-10)]


def test_spectrum_closed_sphere():
    entries = spectrum_closed("sphere", 3, n=4)
    assert [e.eigenvalue for e in entries] == [F(0), F(-3, 2), F(-4), F(-15, 2)]


@pytest.mark.parametrize("target", ["so3", "so4"])
def test_spectrum_closed_refuses_n_for_the_group_targets(target):
    """A group target fixes its dimension; an n used to be dropped silently."""
    with pytest.raises(ValueError, match="^n applies only to the sphere target"):
        spectrum_closed(target, 2, n=5)


def test_spectrum_closed_refuses_a_non_integer_dimension():
    """The sphere's n is an integer: 2.5 used to raise a TypeError deep in
    the Casimir sum; a numpy integer still works."""
    with pytest.raises(ValueError, match="^dimension 2.5 is not an integer"):
        spectrum_closed("sphere", 2, n=2.5)
    np = pytest.importorskip("numpy")
    assert spectrum_closed("sphere", 4, n=np.int64(5)) == spectrum_closed("sphere", 4, n=5)


def test_spectrum_closed_so4_unordered_labels():
    entries = {e.eigenvalue: e.labels for e in spectrum_closed("so4", 8)}
    assert set(entries[F(-12)]) == {(4, 4), (6, 0)}
    assert entries[F(-3, 2)] == ((1, 1),)
    # the order-4 matrix spectrum is contained in the closed family
    assert {F(v) for v in SO4_K4_EIGENVALUES} <= set(entries)


@pytest.mark.parametrize("mode", [SO3, SO4], ids=str)
def test_rank_rule_equals_the_frozen_per_group_rules(mode):
    """Candidates as conjugates of the reduced monomials, and the closed
    spectra read from them, equal the former SO(3)/SO(4) rules."""
    for weight in range(31):
        assert flagmatrix._closed_candidates(mode, weight) == closed_candidates_per_group(mode.tag, weight)
    for bound in range(31):
        got = [(e.eigenvalue, e.labels) for e in spectrum_closed(mode.tag, bound)]
        assert got == spectrum_closed_per_group(mode.tag, bound), bound


def test_reduced_monomial_bases_equal_the_frozen_orders():
    assert list(basis_for(SO3, "bprime", 30).elements) == [Partition((1,) * j) for j in range(31)]
    assert list(basis_for(SO4, "so4", 30).elements) == so4_basis_per_group(30)


@pytest.mark.parametrize("mode, basis_id", [(SO3, "bprime"), (SO3, "btrace"), (SO4, "so4")])
def test_every_block_has_as_many_distinct_candidates_as_rows(mode, basis_id):
    for start, end, weight in basis_for(mode, basis_id, 30).block_ranges():
        eigenvalues = {eig for eig, _ in flagmatrix._closed_candidates(mode, weight)}
        assert len(eigenvalues) == end - start, weight


# ---------------------------------------------------------------------------
# reduced SO(N), N >= 5


def test_so6_weight6_candidates_share_one_nullity(monkeypatch):
    """(4,1,1) and (3,3,0) both give -18 at SO(6) weight 6: the -18 entry
    carries both labels with multiplicity 2, and one rank check on the block
    covers the two characters."""
    flagmatrix._flag.cache_clear()
    checked = []
    rref = flagmatrix._rref

    def counting_rref(rows):
        checked.append(rows)
        return rref(rows)

    monkeypatch.setattr(flagmatrix, "_rref", counting_rref)
    matrix = build_matrix(so(6), "so6", 6)
    start, end, weight = matrix.basis.block_ranges()[-1]
    assert weight == 6 and end - start == 7
    candidates = flagmatrix._closed_candidates(so(6), 6)
    assert [label for eig, label in candidates if eig == -18] == [(4, 1, 1), (3, 3, 0)]
    entries = {entry.eigenvalue: entry for entry in eigenvalues_exact(matrix)}
    assert entries[F(-18)].labels == ((4, 1, 1), (3, 3, 0))
    assert entries[F(-18)].geometric_multiplicity == 2
    block = sorted(len(rows) for rows in checked if len(rows[0]) == end - start)
    assert block == [1] * 5 + [2]
    assert len(block) == len({eig for eig, _ in candidates}) == len(candidates) - 1
    assert sum(e.geometric_multiplicity for e in entries.values()) == matrix.dim


def test_characters_sharing_a_value_must_be_independent_on_their_block(monkeypatch):
    """Offering the character of (4,1,1) for (3,3,0) too passes every kernel
    check at -18, but leaves one vector short: the rank check refuses the
    block, and the block keeps nothing."""
    flagmatrix._flag.cache_clear()
    label_character = flagmatrix._label_character
    monkeypatch.setattr(
        flagmatrix,
        "_label_character",
        lambda mode, label: label_character(mode, (4, 1, 1) if label == (3, 3, 0) else label),
    )
    matrix = build_matrix(so(6), "so6", 6)
    with pytest.raises(
        ArithmeticError,
        match=r"^weight-6 block: the characters of \[\(4, 1, 1\), \(3, 3, 0\)\] at -18 are dependent$",
    ):
        eigenvalues_exact(matrix)
    assert 6 not in matrix.flag
    flagmatrix._flag.cache_clear()


@pytest.mark.parametrize("n, k, count", [(5, 10, 36), (6, 8, 41), (7, 8, 41), (8, 8, 53)])
def test_son_flag_spectrum_and_characters(n, k, count):
    """The flag matrix is block triangular, the merged candidates exhaust
    every block, and each label's Koike-Terada character lies in its
    eigenspace: as many characters as the flag has dimensions."""
    mode = so(n)
    matrix = build_matrix(mode, mode.tag, k)
    entries = eigenvalues_exact(matrix)
    assert sum(e.geometric_multiplicity for e in entries) == matrix.dim
    assert all(len(e.labels) == e.geometric_multiplicity for e in entries)
    matches = match_characters(matrix)
    assert len(matches) == matrix.dim == count
    for entry, character in matches:
        assert character.group == mode.tag and len(character.label) == n // 2
        assert character.eigenvalue == entry.eigenvalue


def test_universal_symmetric_functions_and_characters_specialise_to_every_so_n():
    """Reducing the free-p_m h_k, e_k and o_lam of general_at(N) onto so(N)
    gives the reduced tables' h_k and e_k and the reduced determinant's o_lam,
    zeros of ``lam`` included: 176 h/e and 112 character cases."""
    for n in range(3, 11):
        for sign in (1, -1):
            for k in range(11):
                universal = tracepoly._symmetric(general_at(n), sign, k)
                assert universal.reduce(so(n)) == tracepoly._symmetric(so(n), sign, k), (n, sign, k)
    for n in range(3, 9):
        rank = n // 2
        for part in enumerate_upto(6):
            if len(part) > rank:
                continue
            universal, _ = flagmatrix._orthogonal_character(general_at(n), part.parts)
            lam = part.parts + (0,) * (rank - len(part))
            assert universal.reduce(so(n)) == flagmatrix._orthogonal_character(so(n), lam)[0], (n, lam)


def test_orthogonal_character_determinant_keeps_the_small_ranks():
    """The r x r determinant gives the SO(3) and SO(4) characters the 1 x 1 and
    2 x 2 cases gave, and at SO(7) o_(1,0,0) is p_1, o_(1,1,0) is e_2."""
    for k in range(8):
        rows = [[tracepoly._symmetric(SO3, 1, k) - tracepoly._symmetric(SO3, 1, k - 2)]]
        assert flagmatrix._orthogonal_character(SO3, (k,))[0] == rows[0][0]
    for lam in ((0, 0), (2, 1), (3, 3), (4, 0)):
        h = [
            [tracepoly._symmetric(SO4, 1, lam[i] - i + j) - tracepoly._symmetric(SO4, 1, lam[i] - i - j - 2)
             for j in range(2)]
            for i in range(2)
        ]
        expected = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        assert flagmatrix._orthogonal_character(SO4, lam)[0] == expected
    p1 = TracePoly.power_sum(1, so(7))
    p2 = TracePoly.power_sum(2, so(7))
    assert flagmatrix._orthogonal_character(so(7), (1, 0, 0))[0] == p1
    assert flagmatrix._orthogonal_character(so(7), (1, 1, 0))[0] == (p1 * p1 - p2) * F(1, 2)


@pytest.mark.parametrize(
    "mode, lam, size",
    [
        (SO3, (0,), 0), (SO3, (1,), 1), (SO3, (5,), 1),
        (SO4, (1, 1), 1), (SO4, (1, 0), 1), (SO4, (2, 1), 2), (SO4, (2, 2), 2), (SO4, (4, 3), 2),
        (so(8), (1, 1, 1, 1), 1), (so(8), (2, 2, 1, 0), 2), (so(8), (3, 1, 1, 0), 3),
        (general_at(4), (), 0), (general_at(4), (1,) * 6, 1), (general_at(4), (2, 2, 2), 2),
        (general_at(4), (3, 3, 3), 3), (general_at(4), (4, 1), 2),
    ],
)
def test_orthogonal_character_builds_the_smaller_determinant(monkeypatch, mode, lam, size):
    """The l(lam)-row h-form or the lam_1-row e-form, whichever is smaller, the
    h-form on a tie: of the reduced labels up to SO(4) only (1, 1), the SO(4)
    spin pair (1, 0), takes the e-form.  The empty lam needs no determinant."""
    sizes = []
    determinant = flagmatrix._determinant

    def recording(rows):
        sizes.append(len(rows))
        return determinant(rows)

    monkeypatch.setattr(flagmatrix, "_determinant", recording)
    flagmatrix._orthogonal_character(mode, lam)
    assert sizes[:1] == ([size] if size else [])


def test_orthogonal_character_leading_minor_equals_the_full_determinant():
    """The chosen form gives the r x r determinant for every lam |- w <= 8
    with at most r parts in SO(5)-SO(10): the l(lam)-row h-form term order
    included, the lam_1-row e-form (chosen where lam_1 < l(lam)) as a poly."""
    labels, e_forms = 0, 0
    for n in range(5, 11):
        mode = so(n)
        for weight in range(9):
            for _, lam in flagmatrix._closed_candidates(mode, weight):
                poly = flagmatrix._orthogonal_character(mode, lam)[0]
                full = orthogonal_character_full(mode, lam)
                assert poly == full, (n, lam)
                if lam[0] < sum(part > 0 for part in lam):
                    e_forms += 1
                else:
                    assert list(poly._terms.items()) == list(full._terms.items()), (n, lam)
                labels += 1
    assert labels == 273
    assert e_forms == 60


@pytest.mark.parametrize("n", [2, 3, 6])
def test_universal_character_equals_its_h_form_in_general_mode(n):
    """In fixed-N general mode the chosen determinant over Newton's h_k or
    e_k equals the l(lam)-row h-form over h_k summed by cycle type, for every
    lam with |lam| <= 6, and its eigenvalue is the Casimir value at N."""
    mode = general_at(n)
    for p in enumerate_upto(6):
        lam = p.parts
        poly, eigenvalue = flagmatrix._orthogonal_character(mode, lam)
        assert poly == universal_character_h_form(mode, lam), lam
        assert eigenvalue == flagmatrix._casimir(n, lam)


# ---------------------------------------------------------------------------
# characters


def test_character_so3_k0_k1():
    chi0 = character_so3(0)
    assert chi0.poly == TracePoly.constant(1, SO3)
    chi1 = character_so3(1)
    assert chi1.poly == TracePoly.monomial(Partition.of(1), 1, SO3)
    assert chi1.alt == TracePoly.monomial(Partition.of(1), 1, general_at(3))


def test_character_so3_k2():
    chi2 = character_so3(2)
    p1 = TracePoly.power_sum(1, SO3)
    assert chi2.poly == p1 * p1 - p1 - 1
    assert chi2.eigenvalue == F(-3)


@pytest.mark.parametrize("k", range(16))
def test_character_so3_two_forms_and_eigen_equation(k):
    chi = character_so3(k)
    assert chi.alt.reduce(SO3) == chi.poly
    assert lap(chi.poly) == chi.poly * chi.eigenvalue


@pytest.mark.parametrize("k", range(1, 9))
def test_character_so3_dirichlet_kernel_values(k):
    chi = character_so3(k)
    rng = random.Random(55 + k)
    for _ in range(20):
        angle = rng.uniform(0.3, 2 * math.pi - 0.3)
        rotation = rotation_from_angles(3, angle)
        got = exact_value(chi.poly, rotation)
        want = math.sin((k + 0.5) * angle) / math.sin(angle / 2)
        assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("label", sorted(SO4_CHARACTER_TABLE, key=str))
def test_character_so4_table(label):
    eigval, monomials = SO4_CHARACTER_TABLE[label]
    chi = character_so4(*label)
    assert chi.eigenvalue == eigval
    printed = so4_poly(monomials)
    if label == (F(0), F(0)):
        # the closed expansion gives the constant 2; the table shows the
        # eigenvector p_0 = 4, exactly twice the expansion
        assert printed == chi.poly * 2
    else:
        assert chi.poly == printed


def cheb_second(m, theta):
    return math.sin((m + 1) * theta) / math.sin(theta)


@pytest.mark.parametrize("label", sorted(SO4_CHARACTER_TABLE, key=str))
def test_character_so4_angle_values(label):
    # product of second-kind Chebyshev values in the half-angle sums,
    # symmetrized over the mirror label
    j1, j2 = label
    ka, kb = int(2 * j1), int(2 * j2)
    chi = character_so4(j1, j2)
    rng = random.Random(hash(label) % 100000)
    for _ in range(20):
        a = rng.uniform(0.2, 2.8)
        b = rng.uniform(-2.8, -0.2)
        rotation = rotation_from_angles(4, (a, b))
        got = exact_value(chi.poly, rotation)
        tplus, tminus = (a + b) / 2, (a - b) / 2
        want = cheb_second(ka, tplus) * cheb_second(kb, tminus) + cheb_second(
            kb, tplus
        ) * cheb_second(ka, tminus)
        assert abs(got - want) <= 1e-9


def test_character_so4_eigen_equation_through_k8():
    for k1 in range(9):
        for k2 in range(k1 % 2, k1 + 1, 2):
            chi = character_so4(F(k1, 2), F(k2, 2))
            assert lap(chi.poly) == chi.poly * chi.eigenvalue
            assert chi.poly.degree == k1


@pytest.mark.parametrize("k", range(31))
def test_character_so3_equals_the_double_binomial_form(k):
    assert character_so3(k).poly == so3_character_double_binomial(k)


@pytest.mark.parametrize(
    "k1, k2",
    [(k1, k2) for k1 in range(17) for k2 in range(k1 % 2, k1 + 1, 2)] + [(30, 30)],
)
def test_character_so4_equals_the_chebyshev_form(k1, k2):
    assert character_so4(F(k1, 2), F(k2, 2)).poly == so4_character_chebyshev(k1, k2)


def test_casimir_gives_every_closed_family():
    for k in range(12):
        assert flagmatrix._casimir(3, (k,)) == F(-k * (k + 1), 2)
        for n in range(2, 8):
            assert flagmatrix._casimir(n, (k,)) == F(-k * (k + n - 2), 2)
        for k2 in range(k % 2, k + 1, 2):
            expected = -F(k * (k + 2) + k2 * (k2 + 2), 4)
            assert flagmatrix._casimir(4, flagmatrix._so4_weight(k, k2)) == expected


def test_character_so4_parity_rejected():
    with pytest.raises(ValueError):
        character_so4(F(1, 2), 1)
    with pytest.raises(ValueError):
        character_so4(-1, 1)


def test_character_so4_label_symmetry():
    # the trace polynomial covers the unordered spin pair
    for j1, j2 in [(2, 0), (F(3, 2), F(1, 2)), (3, 1)]:
        a = character_so4(j1, j2)
        b = character_so4(j2, j1)
        assert a.poly == b.poly
        assert a.label == b.label


# ---------------------------------------------------------------------------
# matching


def test_match_characters_so4_k4_one_to_one():
    matrix = build_matrix(SO4, "so4", 4)
    pairs = match_characters(matrix)
    assert len(pairs) == 9
    matched = {(entry.eigenvalue, char.label) for entry, char in pairs}
    assert len(matched) == 9
    assert all(entry.geometric_multiplicity == 1 for entry, _ in pairs)


def test_match_characters_so3_k5():
    matrix = build_matrix(SO3, "btrace", 5)
    pairs = match_characters(matrix)
    assert [char.label for _, char in pairs] == [(k,) for k in range(6)]
    assert all(entry.geometric_multiplicity == 1 for entry, _ in pairs)


def test_match_characters_multiplicity_probe_k6():
    matrix = build_matrix(SO4, "so4", 6)
    pairs = match_characters(matrix)
    at_minus12 = [(entry, char) for entry, char in pairs if entry.eigenvalue == F(-12)]
    labels = {char.label for _, char in at_minus12}
    assert labels == {(4, 4), (6, 0)}
    assert all(entry.geometric_multiplicity >= 2 for entry, _ in at_minus12)
    assert len(eigenspace_exact(matrix, F(-12))) >= 2


@pytest.mark.parametrize(
    "mode, basis_id, ks",
    [(SO3, "bprime", range(13)), (SO3, "btrace", range(13)), (SO4, "so4", range(9))],
    ids=["so3-bprime", "so3-btrace", "so4"],
)
def test_match_characters_equal_the_candidate_search(mode, basis_id, ks):
    """The characters named by the spectrum labels are the ones the former
    search over every weight <= k found, in the same order."""
    for k in ks:
        matrix = build_matrix(mode, basis_id, k)
        expected = [
            (entry.eigenvalue, character.label)
            for entry in eigenvalues_exact(matrix)
            for character in candidate_characters(matrix.basis, entry.eigenvalue)
        ]
        got = [(entry.eigenvalue, character.label) for entry, character in match_characters(matrix)]
        assert got == expected


def test_match_characters_rejects_a_character_outside_its_eigenspace(monkeypatch):
    """From an empty flag store the certificate meets the wrong character in
    the first block, and a block that fails keeps nothing."""
    flagmatrix._flag.cache_clear()
    matrix = build_matrix(SO3, "btrace", 3)
    # offer chi_1 (eigenvalue -1) as the character of every eigenvalue
    monkeypatch.setattr(flagmatrix, "_label_character", lambda mode, label: character_so3(1))
    with pytest.raises(
        ArithmeticError, match="^weight-0 block: the character of 0 escaped the eigenspace of 0$"
    ):
        match_characters(matrix)
    assert not matrix.flag


def test_characters_are_built_once_per_label(monkeypatch):
    """The SO(3) bprime and btrace matrices share their labels, so each
    character's eigen-equation is checked once over all of them."""
    flagmatrix._label_character.cache_clear()
    built = []
    orthogonal = flagmatrix._orthogonal_character

    def counting(mode, lam):
        built.append(lam)
        return orthogonal(mode, lam)

    monkeypatch.setattr(flagmatrix, "_orthogonal_character", counting)
    for basis_id in ("bprime", "btrace"):
        for k in range(9):
            match_characters(build_matrix(SO3, basis_id, k))
    assert sorted(built) == [(k,) for k in range(9)]


def test_cached_characters_are_still_checked_against_every_matrix():
    """A warm cache skips the construction, never the per-matrix check: a
    matrix with the same eigenvalues but other eigenvectors lets a character
    escape, and its spectrum is refused."""
    matrix = build_matrix(SO3, "btrace", 3)
    match_characters(matrix)
    entries = [list(row) for row in matrix.entries]
    entries[1][3] += F(1, 7)  # above the diagonal: the eigenvalues stay, chi_3 moves
    perturbed = flagmatrix.FlagMatrix(matrix.basis, tuple(map(tuple, entries)))
    misses = flagmatrix._label_character.cache_info().misses
    for call in (eigenvalues_exact, match_characters):
        with pytest.raises(
            ArithmeticError, match="^weight-3 block: the character of 3 escaped the eigenspace of -6$"
        ):
            call(perturbed)
    assert flagmatrix._label_character.cache_info().misses == misses


# ---------------------------------------------------------------------------
# eigenspace extraction


def full_matrix_eigenspace(matrix, eigenvalue):
    """Reference: dense Gauss-Jordan elimination of the whole shifted matrix."""
    dim = matrix.dim
    mat = [
        [matrix.entries[i][j] - (eigenvalue if i == j else 0) for j in range(dim)]
        for i in range(dim)
    ]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        pivot_row = next((i for i in range(r, dim) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(dim):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        vec = [F(0)] * dim
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(flagmatrix._primitive(vec))
    return basis


@pytest.mark.parametrize(
    "mode, basis_id, ks",
    [(SO3, "bprime", range(13)), (SO3, "btrace", range(13)), (SO4, "so4", range(11))],
    ids=["so3-bprime", "so3-btrace", "so4"],
)
def test_leading_block_eigenspaces_equal_full_matrix_ones(mode, basis_id, ks):
    for k in ks:
        matrix = build_matrix(mode, basis_id, k)
        for entry in eigenvalues_exact(matrix):
            reference = full_matrix_eigenspace(matrix, entry.eigenvalue)
            assert eigenspace_exact(matrix, entry.eigenvalue) == reference
            assert entry.geometric_multiplicity == len(reference)
    if basis_id == "so4":
        assert len(full_matrix_eigenspace(build_matrix(SO4, "so4", 6), F(-12))) == 2


def test_eigenspaces_solved_once_per_matrix(monkeypatch):
    """Each label's character is checked once, however many queries follow;
    every elimination has at most as many rows as a diagonal block: one rank
    check per distinct value per block, and one per eigenspace query.  A
    value outside the spectrum is refused with no elimination.  The count
    starts from an empty flag store."""
    flagmatrix._flag.cache_clear()
    checks = []
    rows = []
    in_kernel = flagmatrix._in_kernel
    rref = flagmatrix._rref

    def counting_check(matrix, eigenvalue, vec):
        checks.append(eigenvalue)
        return in_kernel(matrix, eigenvalue, vec)

    def counting_rref(block_rows):
        rows.append(len(block_rows))
        return rref(block_rows)

    monkeypatch.setattr(flagmatrix, "_in_kernel", counting_check)
    monkeypatch.setattr(flagmatrix, "_rref", counting_rref)
    matrix = build_matrix(SO4, "so4", 6)
    entries = eigenvalues_exact(matrix)
    for entry in entries:
        eigenspace_exact(matrix, entry.eigenvalue)
    match_characters(matrix)
    eigenvalues_exact(matrix)
    eliminations = len(rows)
    with pytest.raises(ArithmeticError, match="not an eigenvalue"):
        eigenspace_exact(matrix, 17)
    assert len(rows) == eliminations  # refused with no elimination
    blocks = matrix.basis.block_ranges()
    assert max(rows) <= max(end - start for start, end, _ in blocks) == 4
    # one kernel check per closed-form candidate per block, however many queries follow
    assert len(checks) == sum(len(flagmatrix._closed_candidates(SO4, w)) for _, _, w in blocks) == matrix.dim
    values = sum(len({eig for eig, _ in flagmatrix._closed_candidates(SO4, w)}) for _, _, w in blocks)
    assert eliminations == values + len(entries)


@pytest.mark.parametrize(
    "mode, basis_id, k", [(SO3, "bprime", 12), (SO4, "so4", 8)], ids=["so3-bprime", "so4"]
)
def test_eigenvalues_exact_reads_multiplicities_without_eigenspace_calls(monkeypatch, mode, basis_id, k):
    """The spectrum reads each multiplicity from the flag store's kernel, not
    from a padded eigenspace copy, and keeps the multiplicities those give."""
    flagmatrix._flag.cache_clear()
    calls = []
    eigenspace = flagmatrix.eigenspace_exact
    monkeypatch.setattr(
        flagmatrix, "eigenspace_exact", lambda *args: calls.append(args) or eigenspace(*args)
    )
    matrix = build_matrix(mode, basis_id, k)
    entries = eigenvalues_exact(matrix)
    assert calls == []
    fresh = flagmatrix.FlagMatrix(matrix.basis, matrix.entries)  # a store of its own
    assert [e.geometric_multiplicity for e in entries] == [
        len(eigenspace(fresh, e.eigenvalue)) for e in entries
    ]


@pytest.mark.parametrize(
    "mode, basis_id, ks",
    [
        (SO3, "bprime", range(25)),
        (SO3, "btrace", range(25)),
        (SO4, "so4", range(13)),
        (so(5), "so5", range(9)),
        (so(6), "so6", range(9)),
    ],
    ids=["so3-bprime", "so3-btrace", "so4", "so5", "so6"],
)
def test_back_substitution_equals_the_leading_submatrix_solve(mode, basis_id, ks):
    """The certified character spans, put in normal form, are the primitive
    basis that one RREF of the leading principal submatrix gave, vector for
    vector; every closed-form value of a block is an eigenvalue."""
    for k in ks:
        matrix = build_matrix(mode, basis_id, k)
        spans = {}
        for _, end, weight in matrix.basis.block_ranges():
            for eigenvalue in block_values_reference(mode.n, weight):
                spans[eigenvalue] = spans.get(eigenvalue, 0) + 1
        for eigenvalue in spans:
            expected = leading_kernel_reference(matrix, eigenvalue)
            assert eigenspace_exact(matrix, eigenvalue) == expected, (k, eigenvalue)
    if mode == SO4:
        # eigenvalues that are roots of several diagonal blocks take the same path
        assert sum(span > 1 for span in spans.values()) >= 3
    if mode == so(6):
        # -18 is a value shared by two labels of the weight-6 block
        assert len(eigenspace_exact(matrix, F(-18))) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_back_substitution_equals_the_leading_submatrix_solve_in_general_mode(n):
    """The certified universal-character spans of a fixed-N spanning-set
    matrix, put in normal form, are the primitive basis one RREF of the whole
    matrix gives.  Every Casimir value of a partition of weight <= k is tried;
    together their eigenspaces fill the space, and a value that is no
    eigenvalue is refused by both."""
    for k in range(6):
        matrix = build_matrix(general_at(n), "general", k)
        found = 0
        candidates = {flagmatrix._casimir(n, p.parts) for p in enumerate_upto(k)}
        for eigenvalue in sorted(candidates) + [F(17)]:
            try:
                expected = leading_kernel_reference(matrix, eigenvalue)
            except ArithmeticError:
                with pytest.raises(ArithmeticError, match="not an eigenvalue"):
                    eigenspace_exact(matrix, eigenvalue)
                continue
            assert eigenspace_exact(matrix, eigenvalue) == expected, (k, eigenvalue)
            found += len(expected)
        assert found == matrix.dim


def test_eigenspace_returns_fresh_lists():
    matrix = build_matrix(SO4, "so4", 6)
    first = eigenspace_exact(matrix, F(-12))
    expected = [list(v) for v in first]
    first[0][0] = F(999)
    first.append([F(1)] * matrix.dim)
    assert eigenspace_exact(matrix, -12) == expected


def test_eigenspace_rejects_non_eigenvalue_on_every_call():
    matrix = build_matrix(SO4, "so4", 4)
    for _ in range(3):
        with pytest.raises(ArithmeticError, match="not an eigenvalue"):
            eigenspace_exact(matrix, 17)


# ---------------------------------------------------------------------------
# one store per flag


def flag_digest(matrix):
    """Spectrum, eigenspace bases and matched characters, term order included."""
    spectrum = eigenvalues_exact(matrix)
    spaces = [eigenspace_exact(matrix, entry.eigenvalue) for entry in spectrum]
    matches = [
        (entry, character.label, list(character.poly._terms.items()))
        for entry, character in match_characters(matrix)
    ]
    return spectrum, spaces, matches


def general_digest(matrix):
    """Eigenspace bases of every Casimir value of weight <= k that is an eigenvalue."""
    n = matrix.basis.mode.n
    spaces = []
    for eigenvalue in sorted({flagmatrix._casimir(n, p.parts) for p in enumerate_upto(matrix.basis.k)}):
        try:
            spaces.append((eigenvalue, eigenspace_exact(matrix, eigenvalue)))
        except ArithmeticError:
            continue  # not an eigenvalue of this order
    return spaces


@pytest.mark.parametrize(
    "mode, basis_id, top",
    [(SO3, "bprime", 24), (SO3, "btrace", 24), (SO4, "so4", 12), (general_at(5), "general", 5)],
    ids=["so3-bprime", "so3-btrace", "so4", "general-5"],
)
def test_flag_results_do_not_depend_on_the_order_of_the_walk(mode, basis_id, top):
    """A store shared by every order of a flag gives what a fresh store per
    matrix gives, whichever order the flag is walked in."""
    digest = general_digest if basis_id == "general" else flag_digest
    cold = {}
    for k in range(top + 1):
        matrix = build_matrix(mode, basis_id, k)
        cold[k] = digest(flagmatrix.FlagMatrix(matrix.basis, matrix.entries))
    shuffled = list(range(top + 1))
    random.Random(12).shuffle(shuffled)
    for order in (range(top + 1), range(top, -1, -1), shuffled):
        flagmatrix._flag.cache_clear()
        warm = {k: digest(build_matrix(mode, basis_id, k)) for k in order}
        assert warm == cold, list(order)


@pytest.mark.parametrize(
    "mode, basis_id, top",
    [(SO3, "bprime", 12), (SO3, "btrace", 12), (SO4, "so4", 8)],
    ids=["so3-bprime", "so3-btrace", "so4"],
)
def test_each_flag_block_is_solved_once(monkeypatch, mode, basis_id, top):
    """Walking k = 0..top of one flag from an empty store certifies each
    block once: each label's character is located and checked once, and each
    distinct value of a block gets one rank check and one eigenspace
    elimination, made at the first order whose last labels of the value are
    that block's; later orders and repeat queries eliminate nothing."""
    flagmatrix._flag.cache_clear()
    matrices = [build_matrix(mode, basis_id, k) for k in range(top + 1)]
    checks, ranks, located = [], [], []
    in_kernel = flagmatrix._in_kernel
    rref = flagmatrix._rref
    coordinates_of = flagmatrix.coordinates

    def counting_check(matrix, eigenvalue, vec):
        checks.append(eigenvalue)
        return in_kernel(matrix, eigenvalue, vec)

    def counting_rref(rows):
        ranks.append(len(rows))
        return rref(rows)

    def counting_coordinates(poly, basis):
        located.append(poly)
        return coordinates_of(poly, basis)

    monkeypatch.setattr(flagmatrix, "_in_kernel", counting_check)
    monkeypatch.setattr(flagmatrix, "_rref", counting_rref)
    monkeypatch.setattr(flagmatrix, "coordinates", counting_coordinates)
    labels = set()
    queries = 0
    for matrix in matrices:
        for entry in eigenvalues_exact(matrix):
            eigenspace_exact(matrix, entry.eigenvalue)
            labels.update(entry.labels)
            queries += 1
        match_characters(matrix)
    candidates = [flagmatrix._closed_candidates(mode, w) for w in range(top + 1)]
    assert len(checks) == sum(map(len, candidates)) == len(labels)
    assert sorted(matrices[0].flag) == list(range(top + 1))
    assert len(located) == len(labels) == len({id(poly) for poly in located})
    # one rank check and one eigenspace elimination per distinct value of each block
    values = sum(len({eig for eig, _ in block}) for block in candidates)
    assert len(ranks) == 2 * values < values + queries
    for matrix in reversed(matrices):
        for entry in eigenvalues_exact(matrix):
            eigenspace_exact(matrix, entry.eigenvalue)
    assert len(ranks) == 2 * values  # a repeat query eliminates nothing


@pytest.mark.parametrize(
    "mode, basis_id, top",
    [
        (SO3, "bprime", 24),
        (SO3, "btrace", 24),
        (SO4, "so4", 16),
        (so(6), "so6", 10),
        (general_at(4), "general", 8),
    ],
    ids=["so3-bprime", "so3-btrace", "so4", "so6", "general-4"],
)
def test_every_eigenspace_is_the_frozen_elimination(mode, basis_id, top):
    """Every eigenspace at every order is the per-query elimination, on the
    first query and on a repeat, whichever way the flag is walked; -18
    repeats inside the weight-6 block of SO(6).  Editing a returned basis,
    its vectors included, never reaches the store."""
    expected = {k: eigenspaces_by_elimination(build_matrix(mode, basis_id, k)) for k in range(top + 1)}
    shuffled = list(range(top + 1))
    random.Random(34).shuffle(shuffled)
    for order in (range(top + 1), range(top, -1, -1), shuffled):
        flagmatrix._flag.cache_clear()
        for k in order:
            matrix = build_matrix(mode, basis_id, k)
            assert [e.eigenvalue for e in eigenvalues_exact(matrix)] == sorted(expected[k], reverse=True)
            for eigenvalue, basis in expected[k].items():
                space = eigenspace_exact(matrix, eigenvalue)
                assert space == basis, (list(order), k, eigenvalue)
                space[0][-1] += 1
                space[-1].append(F(1))
                space.append(list(basis[0]))
                assert eigenspace_exact(matrix, eigenvalue) == basis, (list(order), k, eigenvalue)


def test_flag_store_hands_out_copies_and_keeps_hand_built_matrices_apart():
    """-12 is a root of the weight-4 and weight-6 blocks of SO(4), so the
    orders 6 and 8 share its characters; neither a caller's edits nor a
    hand-built matrix reach the shared store."""
    flagmatrix._flag.cache_clear()
    small, large = build_matrix(SO4, "so4", 6), build_matrix(SO4, "so4", 8)
    assert small.flag is large.flag
    first = eigenspace_exact(small, F(-12))
    expected = [list(v) for v in first]
    first[0][0] = F(999)
    first[1].append(F(1))
    first.append([F(1)] * small.dim)
    assert eigenspace_exact(small, F(-12)) == expected
    assert sorted(small.flag) == list(range(7))
    pad = [F(0)] * (large.dim - small.dim)
    assert eigenspace_exact(large, F(-12)) == [v + pad for v in expected]
    assert sorted(small.flag) == list(range(9))
    copy = flagmatrix.FlagMatrix(small.basis, small.entries)
    assert copy == small and copy.flag is not small.flag
    assert not copy.flag
    assert eigenspace_exact(copy, F(-12)) == expected
    assert sorted(copy.flag) == list(range(7))
    assert sorted(small.flag) == list(range(9))


@pytest.mark.parametrize("mode, basis_id, k", [(SO4, "so4", 8), (SO3, "btrace", 16)])
def test_every_elimination_sees_integer_rows(monkeypatch, mode, basis_id, k):
    """Matrix rows and character coordinates become integers once; every
    rank check and row reduction behind the spectrum, the eigenspaces and
    the character match hands ``_rref`` integer rows, never a Fraction.  The
    flag store starts empty, so every elimination runs."""
    flagmatrix._flag.cache_clear()
    rref = flagmatrix._rref
    eliminations = []

    def checking_rref(rows):
        assert all(type(v) is int for row in rows for v in row)
        eliminations.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(flagmatrix, "_rref", checking_rref)
    matrix = build_matrix(mode, basis_id, k)
    for entry in eigenvalues_exact(matrix):
        eigenspace_exact(matrix, entry.eigenvalue)
    match_characters(matrix)
    assert eliminations


@pytest.mark.parametrize(
    "mode, basis_id, k",
    [(SO3, "bprime", 16), (SO3, "btrace", 16), (SO4, "so4", 10), (so(6), "so6", 8)],
)
def test_block_nullities_agree_with_the_characteristic_polynomial(mode, basis_id, k):
    """No elimination is needed for a block's spectrum: each block's
    characteristic polynomial is prod (x - c_lam) over the block's labels,
    and the certified multiplicity of each value is its number of roots over
    all blocks.  The order-k matrix holds every block of the lower orders as
    a diagonal block; so(6) has the value -18 twice in its weight-6 block."""
    matrix = build_matrix(mode, basis_id, k)
    roots = {}
    for start, end, weight in matrix.basis.block_ranges():
        block = [row[start:end] for row in matrix.entries[start:end]]
        candidates = [eig for eig, _ in flagmatrix._closed_candidates(mode, weight)]
        if mode in (SO3, SO4):
            assert len(set(candidates)) == len(candidates), weight
        product = [F(1)]
        for eig in candidates:
            product = [a - eig * b for a, b in zip(product + [F(0)], [F(0)] + product)]
            roots[eig] = roots.get(eig, 0) + 1
        assert product == char_poly(block), weight
    assert {e.eigenvalue: e.geometric_multiplicity for e in eigenvalues_exact(matrix)} == roots
    if mode == so(6):
        assert roots[F(-18)] == 2


@pytest.mark.parametrize(
    "mode, basis_id, k", [(SO4, "so4", 6), (SO3, "bprime", 5), (SO3, "btrace", 5)]
)
def test_eigenvalues_exact_names_a_block_outside_the_closed_family(mode, basis_id, k):
    """Perturbing one diagonal entry moves the block's trace, so the closed
    candidates are not its eigenvalues any more: a character of the block
    leaves its eigenspace, and the certificate names the block."""
    matrix = build_matrix(mode, basis_id, k)
    for start, end, weight in matrix.basis.block_ranges():
        entries = [list(row) for row in matrix.entries]
        entries[end - 1][end - 1] += F(1, 7)
        perturbed = flagmatrix.FlagMatrix(matrix.basis, tuple(map(tuple, entries)))
        with pytest.raises(ArithmeticError, match=rf"^weight-{weight} block: the character of .* escaped"):
            eigenvalues_exact(perturbed)


def test_eigenvalues_exact_names_an_eigenvalue_short_of_its_block_nullities():
    """-12 is a root of the weight-4 and the weight-6 block of SO(4) k=6.
    Any change to an entry coupling the two leaves the block spectra as they
    are but makes M defective there (its kernel drops to dimension 1), and
    moves every character of the weight-6 block that is nonzero in the
    changed column: the certificate refuses the weight-6 block."""
    matrix = build_matrix(SO4, "so4", 6)
    ranges = {weight: (start, end) for start, end, weight in matrix.basis.block_ranges()}
    rows, cols = range(*ranges[4]), range(*ranges[6])
    assert (len(rows), len(cols)) == (3, 4)
    for i in rows:
        for j in cols:
            entries = [list(row) for row in matrix.entries]
            entries[i][j] += F(1, 7)
            perturbed = flagmatrix.FlagMatrix(matrix.basis, tuple(map(tuple, entries)))
            assert len(full_matrix_eigenspace(perturbed, F(-12))) == 1
            with pytest.raises(ArithmeticError, match="^weight-6 block: the character of .* escaped"):
                eigenvalues_exact(perturbed)


# ---------------------------------------------------------------------------
# exports


def test_matrix_json_header_and_rationals():
    import json

    matrix = build_matrix(SO4, "so4", 3)
    obj = json.loads(matrix_to_json(matrix))
    assert obj["mode"] == "so4" and obj["basis_id"] == "so4" and obj["k"] == 3
    assert obj["basis"][0] == "p_0"
    assert obj["entries"][1][1] == "-3/2"


def test_matrix_csv_sidecar():
    matrix = build_matrix(SO3, "bprime", 2)
    text = matrix_to_csv(matrix)
    lines = text.splitlines()
    assert lines[0].startswith("# mode=so3")
    assert lines[2] == "row,col,value,exact"
    assert any(line.endswith(",-3") for line in lines)


def test_matrix_latex_fractions():
    matrix = build_matrix(SO4, "so4", 4)
    text = matrix_to_latex(matrix)
    assert "-\\frac{15}{2}" in text
    assert "\\Delta p_1^2 p_2" in text
