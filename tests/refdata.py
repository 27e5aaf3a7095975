"""Frozen reference values shared by the unit and acceptance tests.

The symbolic Laplacian table covers every monomial of degree <= 4; the SO(4)
order-4 matrix, its eigenvector list and the character table are the known
closed-form results this package must reproduce exactly.  The plain
product rule, term by term over the factors, is the independent route the
grouped ``lap_partition`` is checked against; it reads D p_m and
<grad p_m, grad p_m'> as ``lap_pm`` and ``grad_inner_pm`` built them in
NPoly arithmetic before they printed the doubled integer table that
``lap_partition`` reads, frozen here as well.  The three-case monomial
Laplacian is the assembly ``lap_partition`` used before the grouped product
rule, and it reads the closed form of D p_1^q that ``lap_p1_pow`` held
before it became the product rule at (1^q).  The hand-derived SO(3) p_1^j
and SO(4) p_1^l p_2^m Laplacians and the so(N) column as the reduced
general image, which the one reduced product rule replaced, are frozen next
to it.  The character
enumeration is the candidate search
``match_characters`` used before it read the spectrum's labels.  The
hand-derived SO(3)/SO(4) constructions that the elementary-symmetric ones
replaced -- the double-binomial SO(3) character, the symmetrized Chebyshev
SO(4) character and the SO(4) Cayley-Hamilton recurrence with its p_3 seed --
are frozen here too, as are the Faddeev-LeVerrier characteristic polynomial
that the spectra were deflated from before the block nullity check, the
eigenspace solve by one Fraction RREF of a leading principal submatrix that
block back-substitution and then the character certificate replaced, the
per-query row reduction of the certified character coordinates that the
flag store's kept normal forms replaced, and the full r x r Koike-Terada
determinant that the leading l(lam) minor replaced.  The universal
character's h-form over h_k summed by cycle type is the reference for the
Newton-built determinants of fixed-N general mode.  The per-group rules
that the rank rule r = N // 2 replaced -- the SO(3)/SO(4) block
candidates, the ``so4`` basis order and the ``spectrum_closed``
enumerations -- are frozen as well, and so is the recursive generator
chain that enumerated partitions before the in-place next-partition step.
All of them serve as exact references.
``TracePoly.reduce`` as it stood before it read cached reduced monomials --
one product ``constant(coeff) * p_{m_1} * p_{m_2} * ...`` of p_m table
entries per term, summed -- and the term printer as it stood before it read
signs and magnitudes off the coefficients' digits are frozen too; the
current ones must equal them term for term and byte for byte.  Numeric
sums, products, ``reduce`` and ``lap`` as they ran before the fraction-free
kernel -- one Fraction product and sum per term -- ``NPoly.subs`` and
``substitute_n`` as they ran before the integer evaluation, and ``pretty``,
``to_json_obj`` and ``monomial_label`` as they printed before their text
was cached are frozen with them.
The numeric identity suite as it stood before its finite differences shared
one sweep -- each monomial's powers formed afresh for every value and
gradient, with hand-written error maxima -- is frozen at the end; its
reports must match the current ones float for float.  So are the
per-sample Haar draw, dense Laplacian contraction, sphere Laplacian and
tangential projection that the suites' stacked sample chunks replaced, and
the suites themselves run one sample at a time on them, as are the
per-term monomial sums and polynomial evaluation that the index plans
replaced.  ``exact_value``,
a trace polynomial's value summed in Fraction over the rationalized traces,
is the exact reference the float evaluation is compared against, and
``tracepoly_from_json`` reads back the JSON of ``TracePoly.to_json_obj``.
"""

import math
from fractions import Fraction
from math import comb

import numpy as np

from sonlap import (
    GENERAL,
    SO3,
    SO4,
    NPoly,
    Partition,
    TracePoly,
    character_so3,
    character_so4,
    lap_partition,
)
from sonlap.flagmatrix import FlagMatrix

F = Fraction


def lin(c0, c1=0) -> NPoly:
    """Affine polynomial c0 + c1*N."""
    return NPoly({0: F(c0), 1: F(c1)})


# Laplacian of every trace monomial of degree <= 4, symbolic in N.
# partition -> {partition: coefficient}
WORKED_LAPLACIANS = {
    (): {},
    (1,): {(1,): lin(F(1, 2), F(-1, 2))},
    (2,): {(2,): lin(1, -1), (1, 1): lin(-1), (): lin(0, 1)},
    (1, 1): {(2,): lin(-1), (1, 1): lin(1, -1), (): lin(0, 1)},
    (3,): {(3,): lin(F(3, 2), F(-3, 2)), (2, 1): lin(-3), (1,): lin(3)},
    (2, 1): {
        (3,): lin(-2),
        (2, 1): lin(F(3, 2), F(-3, 2)),
        (1, 1, 1): lin(-1),
        (1,): lin(2, 1),
    },
    (1, 1, 1): {(2, 1): lin(-3), (1, 1, 1): lin(F(3, 2), F(-3, 2)), (1,): lin(0, 3)},
    (4,): {
        (4,): lin(2, -2),
        (3, 1): lin(-4),
        (2, 2): lin(-2),
        (2,): lin(4),
        (): lin(0, 2),
    },
    (3, 1): {
        (4,): lin(-3),
        (3, 1): lin(2, -2),
        (2, 1, 1): lin(-3),
        (2,): lin(3),
        (1, 1): lin(3),
    },
    (2, 2): {
        (4,): lin(-4),
        (2, 2): lin(2, -2),
        (2, 1, 1): lin(-2),
        (2,): lin(0, 2),
        (): lin(0, 4),
    },
    (2, 1, 1): {
        (3, 1): lin(-4),
        (2, 2): lin(-1),
        (2, 1, 1): lin(2, -2),
        (1, 1, 1, 1): lin(-1),
        (2,): lin(0, 1),
        (1, 1): lin(4, 1),
    },
    (1, 1, 1, 1): {
        (2, 1, 1): lin(-6),
        (1, 1, 1, 1): lin(2, -2),
        (1, 1): lin(0, 6),
    },
}

# SO(4) order-4 basis in order: p_1^l p_2^m as the partition (2^m, 1^l).
SO4_K4_BASIS = [
    Partition(parts)
    for parts in [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 1, 1), (2, 2)]
]

# Rows of the order-4 SO(4) flag matrix.
SO4_K4_MATRIX = [
    [0, 0, 1, 1, 0, 0, 0, 0, 8],
    [0, F(-3, 2), 0, 0, 12, 0, 0, 0, 0],
    [0, 0, -3, -1, 0, 0, 24, -4, -16],
    [0, 0, -1, -3, 0, 0, 0, 4, 8],
    [0, 0, 0, 0, F(-9, 2), 0, 0, 0, 0],
    [0, 0, 0, 0, -3, F(-15, 2), 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -6, 1, 2],
    [0, 0, 0, 0, 0, 0, -6, -12, -6],
    [0, 0, 0, 0, 0, 0, 0, -1, -8],
]

SO4_K4_EIGENVALUES = [0, F(-3, 2), -2, -4, F(-9, 2), F(-15, 2), -6, -8, -12]

# eigenvalue -> published eigenvector coordinates in the order-4 basis
SO4_K4_EIGENVECTORS = {
    F(0): [1, 0, 0, 0, 0, 0, 0, 0, 0],
    F(-3, 2): [0, 2, 0, 0, 0, 0, 0, 0, 0],
    F(-2): [0, 0, F(1, 2), F(-1, 2), 0, 0, 0, 0, 0],
    F(-4): [F(-1, 2), 0, 1, 1, 0, 0, 0, 0, 0],
    F(-9, 2): [0, -2, 0, 0, F(1, 2), F(-1, 2), 0, 0, 0],
    F(-15, 2): [0, 0, 0, 0, 0, 2, 0, 0, 0],
    F(-6): [0, 0, F(-3, 2), F(-1, 2), 0, 0, F(1, 4), F(-1, 2), F(1, 4)],
    F(-8): [F(1, 2), 0, -2, 0, 0, 0, F(1, 4), 0, F(-1, 4)],
    F(-12): [F(-1, 2), 0, 3, -1, 0, 0, F(-1, 2), 2, F(1, 2)],
}

# spin label -> (eigenvalue, {(l, m): coefficient of p_1^l p_2^m, (0,0) = 1})
SO4_CHARACTER_TABLE = {
    (F(0), F(0)): (F(0), {(0, 0): 4}),
    (F(1, 2), F(1, 2)): (F(-3, 2), {(1, 0): 2}),
    (F(1), F(0)): (F(-2), {(2, 0): F(1, 2), (0, 1): F(-1, 2)}),
    (F(1), F(1)): (F(-4), {(0, 0): -2, (2, 0): 1, (0, 1): 1}),
    (F(3, 2), F(1, 2)): (F(-9, 2), {(1, 0): -2, (3, 0): F(1, 2), (1, 1): F(-1, 2)}),
    (F(3, 2), F(3, 2)): (F(-15, 2), {(1, 1): 2}),
    (F(2), F(0)): (
        F(-6),
        {(2, 0): F(-3, 2), (0, 1): F(-1, 2), (4, 0): F(1, 4), (2, 1): F(-1, 2), (0, 2): F(1, 4)},
    ),
    (F(2), F(1)): (
        F(-8),
        {(0, 0): 2, (2, 0): -2, (4, 0): F(1, 4), (0, 2): F(-1, 4)},
    ),
    (F(2), F(2)): (
        F(-12),
        {(0, 0): -2, (2, 0): 3, (0, 1): -1, (4, 0): F(-1, 2), (2, 1): 2, (0, 2): F(1, 2)},
    ),
}


def tracepoly_from_json(obj: list, mode) -> TracePoly:
    """The trace polynomial whose ``to_json_obj`` is ``obj``: the reader of
    the JSON the ``lap`` command prints."""
    terms = {}
    for rec in obj:
        coeff = NPoly({int(e): F(v) for e, v in rec["coeff"].items()})
        terms[Partition.of(*rec["partition"])] = coeff if mode.symbolic else coeff.constant_value
    return TracePoly(terms, mode)


def part_of(parts) -> Partition:
    return Partition.of(*parts)


def descending_recursive(total: int, max_part: int):
    """Partitions of ``total`` with parts <= ``max_part``, descending-lex,
    by the recursive generator chain the in-place next-partition step replaced."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in descending_recursive(total - first, first):
            yield (first,) + rest


def so4_monomial_partition(l: int, m: int) -> Partition:
    return Partition.of(*([2] * m + [1] * l))


def lap_pm_npoly(m: int) -> TracePoly:
    """D p_m built term by term in :class:`NPoly`, as ``lap_pm`` built it
    before it printed the doubled integer table of the product-rule pieces."""
    n = NPoly.var()
    if m == 0:
        return TracePoly.zero(GENERAL)
    if m == 1:
        return TracePoly.monomial(Partition((1,)), (n - 1) * F(-1, 2), GENERAL)
    terms: dict = {}

    def add(part: Partition, coeff) -> None:
        terms[part] = terms.get(part, NPoly(0)) + coeff

    add(Partition.of(), n * F(m * (1 + (-1) ** m), 4))
    for i in range((m - 1) // 2 + 1):
        add(Partition((m - 2 * i,)), NPoly(m))
    add(Partition((m,)), (n + 1) * F(-m, 2))
    for j in range(1, m):
        add(Partition.of(j, m - j), NPoly(F(-m, 2)))
    return TracePoly(terms, GENERAL)


def grad_inner_pm_npoly(m: int, mp: int) -> TracePoly:
    """<grad p_m, grad p_m'> built in :class:`NPoly`, as ``grad_inner_pm``
    built it before it printed the doubled integer table."""
    if m < mp:
        m, mp = mp, m
    if mp == 0:
        return TracePoly.zero(GENERAL)
    half = F(m * mp, 2)
    terms = {}
    if m == mp:
        terms[Partition.of()] = NPoly.var() * half
    else:
        terms[Partition((m - mp,))] = NPoly(half)
    terms[Partition((m + mp,))] = NPoly(-half)
    return TracePoly(terms, GENERAL)


def lap_partition_product_rule(partition: Partition) -> TracePoly:
    """Laplacian of a trace monomial assembled term by term from the plain
    product rule over the factors p_{m_i}: the independent route that the
    grouped assembly of ``lap_partition`` is cross-checked against."""
    parts = partition.parts
    out = TracePoly.zero(GENERAL)
    for i, mi in enumerate(parts):
        rest = Partition.of(*(parts[:i] + parts[i + 1:]))
        out = out + TracePoly.monomial(rest, 1, GENERAL) * lap_pm_npoly(mi)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            rest = Partition.of(*(parts[:i] + parts[i + 1:j] + parts[j + 1:]))
            out = out + TracePoly.monomial(rest, 2, GENERAL) * grad_inner_pm_npoly(parts[i], parts[j])
    return out


def lap_p1_pow_closed_form(q: int) -> TracePoly:
    """Laplacian of p_1^q by its former closed form
    -((N-1) q p_1^q + q(q-1)(p_2 - N) p_1^{q-2}) / 2, which ``lap_p1_pow``
    read before it became the product rule at (1^q)."""
    if q == 0:
        return TracePoly.zero(GENERAL)
    if q == 1:
        return lap_pm_npoly(1)
    terms = {
        Partition((1,) * q): lin(F(q, 2), F(-q, 2)),
        Partition.of(2, *(1,) * (q - 2)): lin(F(-q * (q - 1), 2)),
        Partition.of(*(1,) * (q - 2)): lin(0, F(q * (q - 1), 2)),
    }
    return TracePoly(terms, GENERAL)


def lap_partition_three_case(partition: Partition) -> TracePoly:
    """Laplacian of a trace monomial by the former three-case assembly.

    All parts >= 2: the plain product rule.  All parts 1: the p_1-power
    formula.  Mixed: the p_1-power factor p_1^q is peeled off, and the cross
    term pairs each p_{m_i} with it as m_i q p_1^{q-1} (p_{m_i-1} - p_{m_i+1}).
    """
    parts = partition.parts
    s = len(parts)
    if s == 0:
        return TracePoly.zero(GENERAL)
    r = sum(1 for p in parts if p >= 2)
    if r == 0:
        return lap_p1_pow_closed_form(s)
    if r == s:
        return lap_partition_product_rule(partition)
    big = parts[:r]
    q = s - r

    def mono(*factors) -> TracePoly:
        return TracePoly.monomial(Partition.of(*factors), 1, GENERAL)

    out = (
        lap_partition_product_rule(Partition(big)) * mono(*(1,) * q)
        + mono(*big) * lap_p1_pow_closed_form(q)
    )
    for i, mi in enumerate(big):
        rest = mono(*(big[:i] + big[i + 1:]))
        bracket = TracePoly.power_sum(mi - 1, GENERAL) - TracePoly.power_sum(mi + 1, GENERAL)
        out = out + rest * mono(*(1,) * (q - 1)) * bracket * F(mi * q)
    return out


def so3_lap_power_hand(j: int) -> TracePoly:
    """Laplacian of p_1^j on SO(3) by the former hand-derived closed form
    -(j(j+1)/2) p_1^j + j(j-1) p_1^{j-1} + (3/2) j(j-1) p_1^{j-2}."""
    if j == 0:
        return TracePoly.zero(SO3)
    if j == 1:
        return TracePoly.monomial(Partition((1,)), -1, SO3)
    return TracePoly(
        {
            Partition((1,) * j): F(-j * (j + 1), 2),
            Partition((1,) * (j - 1)): F(j * (j - 1)),
            Partition((1,) * (j - 2)): F(3 * j * (j - 1), 2),
        },
        SO3,
    )


def so4_lap_monomial_hand(l: int, m: int) -> TracePoly:
    """Laplacian of p_1^l p_2^m on SO(4) by the former hand-derived closed form
    in p_1, p_2, whose vanishing prefactors guard the small l, m cases."""
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)

    def mono(a: int, b: int) -> TracePoly:
        return TracePoly.monomial(so4_monomial_partition(a, b), 1, SO4)

    out = TracePoly.zero(SO4)
    if m >= 2:
        square = p1 * p1 - 4
        out = out + mono(l, m - 2) * square * square * (m * (m - 1))
    if m >= 1:
        out = out + mono(l, m - 1) * (p1 * p1 * (l - 2 * m + 1) + (4 - 4 * l)) * m
    if l >= 2:
        out = out + mono(l - 2, m) * (p2 - 4) * F(-l * (l - 1), 2)
    return out + mono(l, m) * F(-(6 * m * l + 2 * m * m + 3 * l + 4 * m), 2)


def reduced_column_via_general(partition: Partition, mode) -> TracePoly:
    """Laplacian of p_partition in ``so(N)`` by the former route: the whole
    general image, substituted at N and reduced onto p_1, ..., p_{N // 2}."""
    return lap_partition(partition).substitute_n(mode.n).reduce(mode)


def candidate_characters(basis, eigenvalue: F) -> list:
    """Every character of weight <= k with the given eigenvalue, by the former
    search over all SO(3) weights or SO(4) same-parity pairs k2 <= k1 <= k."""
    out = []
    if basis.mode.tag == "so3":
        for k in range(basis.k + 1):
            if F(-k * (k + 1), 2) == eigenvalue:
                out.append(character_so3(k))
    else:
        for k1 in range(basis.k + 1):
            for k2 in range(k1 % 2, k1 + 1, 2):
                if -F(k1 * (k1 + 2) + k2 * (k2 + 2), 4) == eigenvalue:
                    out.append(character_so4(F(k1, 2), F(k2, 2)))
    return out


def closed_candidates_per_group(tag: str, weight: int) -> list:
    """The former per-group block candidates: (eigenvalue, label) for the SO(3)
    weight k, or for the SO(4) pairs (weight, k2), k2 of the weight's parity."""
    if tag == "so3":
        return [(F(-weight * (weight + 1), 2), weight)]
    return [
        (-F(weight * (weight + 2) + k2 * (k2 + 2), 4), (weight, k2))
        for k2 in range(weight % 2, weight + 1, 2)
    ]


def so4_basis_per_group(k: int) -> list:
    """The former ``so4`` basis: p_0 then p_1^l p_2^m by weight, ties by increasing m."""
    return [part_of((2,) * m + (1,) * (w - 2 * m)) for w in range(k + 1) for m in range(w // 2 + 1)]


def spectrum_closed_per_group(tag: str, bound: int) -> list:
    """The former SO(3)/SO(4) ``spectrum_closed`` enumeration, as (eigenvalue, labels)."""
    found = {}
    if tag == "so3":
        for k in range(bound + 1):
            found.setdefault(F(-k * (k + 1), 2), []).append(k)
    else:
        for k1 in range(bound + 1):
            for k2 in range(k1 % 2, min(k1, bound - k1) + 1, 2):
                found.setdefault(-F(k1 * (k1 + 2) + k2 * (k2 + 2), 4), []).append((k1, k2))
    return [(eig, tuple(found[eig])) for eig in sorted(found, reverse=True)]


def so3_character_double_binomial(k: int) -> TracePoly:
    """Weight-k SO(3) character in powers of p_1, with the former
    double-binomial coefficients sum_l (-1)^(k-l) C(k+l, 2l) C(l, j) on p_1^j."""
    terms = {}
    for j in range(k + 1):
        terms[Partition((1,) * j)] = sum(
            (-1) ** (k - l) * comb(k + l, 2 * l) * comb(l, j) for l in range(j, k + 1)
        )
    return TracePoly(terms, SO3)


def cheb2_coeff(m: int, s: int) -> F:
    """Coefficient of x^(m-2s) in the Chebyshev polynomial of the second kind."""
    return F((-1) ** s * comb(m - s, s) * 2 ** (m - 2 * s))


def sym_power_pair(a: int, b: int) -> TracePoly:
    """X^a Y^b + X^b Y^a in p_1, p_2, for X = cos((alpha+beta)/2) etc.

    Uses XY = p_1/4, X^2+Y^2 = (p_1^2-p_2+4)/8, X^2 Y^2 = p_1^2/16 and the
    Newton recurrence for the symmetric power sums of X^2, Y^2.
    """
    p1 = TracePoly.power_sum(1, SO4)
    xy = p1 * F(1, 4)
    e1 = (p1 * p1 - TracePoly.power_sum(2, SO4) + 4) * F(1, 8)
    e2 = p1 * p1 * F(1, 16)
    d = abs(a - b) // 2
    s_prev = TracePoly.constant(2, SO4)
    s_cur = e1
    if d == 0:
        power_sum = s_prev
    else:
        for _ in range(d - 1):
            s_prev, s_cur = s_cur, e1 * s_cur - e2 * s_prev
        power_sum = s_cur
    return xy ** min(a, b) * power_sum


def so4_character_chebyshev(ka: int, kb: int) -> TracePoly:
    """SO(4) character of the spin pair (ka/2, kb/2) as the former symmetrized
    product of second-kind Chebyshev expansions."""
    poly = TracePoly.zero(SO4)
    for q in range(ka // 2 + 1):
        for r in range(kb // 2 + 1):
            coeff = cheb2_coeff(ka, q) * cheb2_coeff(kb, r)
            poly = poly + sym_power_pair(ka - 2 * q, kb - 2 * r) * coeff
    return poly


def so4_pm_hand_recurrence(top: int) -> list:
    """[p_0, ..., p_top] on SO(4) by the former Cayley-Hamilton recurrence

    p_{s+1} = p_1 p_s - (p_1^2 - p_2)/2 p_{s-1} + p_1 p_{s-2} - p_{s-3},

    seeded with p_0 = 4, p_1, p_2 and p_3 = -p_1^3/2 + 3 p_1 p_2 / 2 + 3 p_1.
    """
    p1 = TracePoly.power_sum(1, SO4)
    p2 = TracePoly.power_sum(2, SO4)
    table = [
        TracePoly.constant(4, SO4),
        p1,
        p2,
        p1 * p1 * p1 * F(-1, 2) + p1 * p2 * F(3, 2) + p1 * 3,
    ]
    half_q = (p1 * p1 - p2) * F(1, 2)
    for m in range(4, top + 1):
        table.append(
            p1 * table[m - 1] - half_q * table[m - 2] + p1 * table[m - 3] - table[m - 4]
        )
    return table[: top + 1]


def matmul(a: list, b: list) -> list:
    """Product of two square Fraction matrices."""
    size = len(a)
    return [
        [sum((a[i][t] * b[t][j] for t in range(size)), F(0)) for j in range(size)]
        for i in range(size)
    ]


def char_poly(block: list) -> list:
    """Monic characteristic polynomial of a small exact matrix (descending),
    by the former Faddeev-LeVerrier recursion."""
    size = len(block)
    coeffs = [F(1)]
    work = [list(row) for row in block]
    for k in range(1, size + 1):
        ck = -sum(work[i][i] for i in range(size)) / k
        coeffs.append(ck)
        if k == size:
            break
        for i in range(size):
            work[i][i] += ck
        work = matmul(block, work)
    return coeffs


def _rref_fraction(rows: list) -> tuple:
    """Gauss-Jordan elimination over Fraction, as the eigenspaces used it."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _primitive_fraction(vec: list) -> list:
    denom = math.lcm(*(v.denominator for v in vec)) if vec else 1
    ints = [v * denom for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v.numerator))
    if g:
        ints = [v / g for v in ints]
    lead = next((v for v in ints if v), F(0))
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def block_values_reference(n: int, weight: int) -> set:
    """Casimir values -sum_i lam_i(lam_i + n - 2i)/2 of the highest weights
    lam |- weight with at most n // 2 parts: the closed-form eigenvalues of
    the weight block of SO(n)."""
    return {
        -F(sum(part * (part + n - 2 * i) for i, part in enumerate(lam, 1)), 2)
        for lam in descending_recursive(weight, weight)
        if len(lam) <= n // 2
    }


def leading_kernel_reference(matrix, eigenvalue: F) -> list:
    """Primitive kernel basis of M - eigenvalue I by the former solve: one
    Fraction RREF of the leading principal submatrix that ends with the last
    diagonal block whose closed-form values take the eigenvalue (the whole
    matrix in fixed-N general mode), zero-padded past it."""
    mode = matrix.basis.mode
    if mode.tag == "general":
        end = matrix.dim
    else:
        ends = [
            end
            for _, end, weight in matrix.basis.block_ranges()
            if eigenvalue in block_values_reference(mode.n, weight)
        ]
        end = ends[-1] if ends else 0
    shifted = [
        [matrix.entries[i][j] - (eigenvalue if i == j else 0) for j in range(end)]
        for i in range(end)
    ]
    mat, pivots = _rref_fraction(shifted)
    kernel = []
    for fc in (c for c in range(end) if c not in pivots):
        vec = [F(0)] * end
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        kernel.append(vec)
    if not kernel:
        raise ArithmeticError(f"{eigenvalue} has an empty eigenspace; not an eigenvalue")
    pad = [F(0)] * (matrix.dim - end)
    return [_primitive_fraction(v + pad) for v in kernel]


def _content_free_ints(ints: list) -> list:
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _rref_integer(rows: list) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, each kept
    primitive, as the eigenspaces ran it on every query."""
    mat = [_content_free_ints(row) for row in rows]
    nrows = len(mat)
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                g = math.gcd(top[c], mat[i][c])
                s, t = top[c] // g, mat[i][c] // g
                mat[i] = _content_free_ints([s * a - t * b for a, b in zip(mat[i], top)])
        r += 1
        if r == nrows:
            break
    return mat


def _cleared_ints(vec: list) -> list:
    denom = math.lcm(*(v.denominator for v in vec))
    return [v.numerator * (denom // v.denominator) for v in vec]


def eigenspaces_by_elimination(matrix) -> dict:
    """{eigenvalue: basis} of every eigenvalue, each basis made as
    ``eigenspace_exact`` made it on every query before the flag store kept
    the normal forms: the certified character coordinates of the value's
    labels, read from a copy of the matrix with a store of its own, are
    flipped, row reduced from the right, made primitive with a positive
    leading entry and zero-padded to the matrix."""
    fresh = FlagMatrix(matrix.basis, matrix.entries)
    out = {}
    for eigenvalue, pairs in fresh._eigenblocks.items():
        end = len(pairs[-1][1])
        flipped = [[0] * (end - len(coords)) + _cleared_ints(coords)[::-1] for _, coords in pairs]
        basis = []
        for row in reversed(_rref_integer(flipped)):
            ints = _content_free_ints(row[::-1])
            if next(v for v in ints if v) < 0:
                ints = [-v for v in ints]
            basis.append([F(v) for v in ints] + [F(0)] * (matrix.dim - end))
        out[eigenvalue] = basis
    return out


def orthogonal_character_full(mode, lam: tuple) -> TracePoly:
    """Koike-Terada o_lam as the full r x r determinant, r = N // 2, zeros of
    ``lam`` included: the form before the cut to the leading l(lam) minor."""
    from sonlap.flagmatrix import _determinant
    from sonlap.tracepoly import _symmetric

    size = range(len(lam))
    rows = [
        [_symmetric(mode, 1, lam[i] - i + j) - _symmetric(mode, 1, lam[i] - i - j - 2) for j in size]
        for i in size
    ]
    return _determinant(rows)


def complete_by_cycle_types(mode, k: int) -> TracePoly:
    """h_k = sum over mu |- k of p_mu / z_mu, z_mu = prod_i i^{m_i} m_i! (m_i the
    number of parts i): the complete symmetric function in free power sums."""
    if k < 0:
        return TracePoly.zero(mode)
    terms = {}
    for mu in descending_recursive(k, k):
        z = 1
        for part in set(mu):
            count = mu.count(part)
            z *= part**count * math.factorial(count)
        terms[Partition.of(*mu)] = F(1, z)
    return TracePoly(terms, mode)


def universal_character_h_form(mode, lam: tuple) -> TracePoly:
    """The universal o_lam in general mode as the l(lam)-row Koike-Terada
    h-form, each h_k summed over cycle types (1 for the empty lam)."""
    from sonlap.flagmatrix import _determinant

    size = range(len(lam))
    rows = [
        [
            complete_by_cycle_types(mode, lam[i] - i + j) - complete_by_cycle_types(mode, lam[i] - i - j - 2)
            for j in size
        ]
        for i in size
    ]
    return _determinant(rows) if rows else TracePoly.constant(1, mode)


# ---------------------------------------------------------------------------
# the numeric identity suite before the shared finite-difference sweep


def _powers_ref(u, top):
    out = [np.eye(u.shape[0])]
    for _ in range(top):
        out.append(out[-1] @ u)
    return out


def _rest_product_ref(values, skip):
    prod = 1.0
    for idx, val in enumerate(values):
        if idx not in skip:
            prod *= val
    return prod


def _value_ref(partition, u):
    pows = _powers_ref(np.asarray(u, dtype=float), max(partition.parts, default=0))
    out = 1.0
    for m in partition:
        out *= float(np.trace(pows[m]))
    return out


def _gradient_ref(partition, u):
    u = np.asarray(u, dtype=float)
    parts = partition.parts
    pows = _powers_ref(u, max(parts, default=0))
    values = [float(np.trace(pows[m])) for m in parts]
    grad = np.zeros(u.shape)
    for i, m in enumerate(parts):
        grad += _rest_product_ref(values, (i,)) * (m * pows[m - 1].T)
    return grad


def _dense_derivatives_ref(partition, u):
    from sonlap.numeric import commutation_matrix

    n = u.shape[0]
    parts = partition.parts
    pows = _powers_ref(u, max(parts, default=0))
    pows_t = [p.T for p in pows]
    k_comm = commutation_matrix(n)
    values = [float(np.trace(pows[m])) for m in parts]
    grads = [m * pows_t[m - 1] for m in parts]
    hess = np.zeros((n * n, n * n))
    for i, m in enumerate(parts):
        if m >= 2:
            acc = np.zeros((n * n, n * n))
            for r in range(m - 1):
                acc += np.kron(pows_t[r], pows[m - 2 - r])
            hess += _rest_product_ref(values, (i,)) * (m * (k_comm @ acc))
    for i in range(len(parts)):
        for j in range(len(parts)):
            if i != j:
                hess += _rest_product_ref(values, (i, j)) * np.outer(
                    grads[i].flatten(order="F"), grads[j].flatten(order="F")
                )
    return _gradient_ref(partition, u), hess


def _fd_gradient_ref(value_fn, u, step=1e-5):
    n = u.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            bump = np.zeros((n, n))
            bump[i, j] = step
            out[i, j] = (value_fn(u + bump) - value_fn(u - bump)) / (2 * step)
    return out


def _fd_hessian_ref(grad_fn, u, step=1e-5):
    n = u.shape[0]
    out = np.zeros((n * n, n * n))
    for j in range(n):
        for i in range(n):
            bump = np.zeros((n, n))
            bump[i, j] = step
            column = (grad_fn(u + bump) - grad_fn(u - bump)) / (2 * step)
            out[:, j * n + i] = column.flatten(order="F")
    return out


def exact_value(poly: TracePoly, u) -> float:
    """Value of a trace polynomial at a matrix or rotation sample, summed in
    Fraction over the rationalized traces of the matrix powers, as the exact
    fallback of ``eval_tracepoly`` sums it."""
    u = np.asarray(getattr(u, "matrix", u), dtype=float)
    top = max((max(part.parts, default=0) for part in poly.terms), default=0)
    rational = [Fraction(float(np.trace(p))) for p in _powers_ref(u, top)]
    terms = poly.terms.items()
    return float(sum(math.prod((rational[m] for m in part), start=c) for part, c in terms))


def random_son_reference(n, seed):
    """The per-sample Haar draw: its own QR, sign fix and determinant."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        gauss = rng.standard_normal((n, n))
        q, r = np.linalg.qr(gauss)
        diag = np.diagonal(r)
        if np.any(diag == 0.0):
            continue
        q = q * np.sign(diag)
        if np.linalg.det(q) < 0:
            q[:, -1] = -q[:, -1]
        return q
    raise RuntimeError("degenerate Gaussian draws persisted")


def _sample_ref(n, seed):
    from sonlap.numeric import RotationSample

    return RotationSample(n, random_son_reference(n, seed))


def _sphere_test_h_ref(y):
    value = y[0] * y[1] + y[0] ** 3
    grad = np.zeros_like(y)
    grad[0] = y[1] + 3 * y[0] ** 2
    grad[1] = y[0]
    hess = np.zeros((y.size, y.size))
    hess[0, 0] = 6 * y[0]
    hess[0, 1] = hess[1, 0] = 1.0
    return value, grad, hess


def _dense_laplacian_ref(u, grad, hess):
    n = u.shape[0]
    hess4 = hess.reshape(n, n, n, n)
    radial = float(np.sum(u * grad))
    curved = float(np.einsum("bkai,ib,ka->", hess4, u, u))
    return 0.5 * float(np.trace(hess)) - 0.5 * (n - 1) * radial - 0.5 * curved


def _sphere_lap_ref(grad, hess, x, radius):
    n = x.size
    euclid_lap = float(np.trace(hess))
    second = float(x @ hess @ x)
    first = float(x @ grad)
    return euclid_lap - second / radius**2 - (n - 1) * first / radius**2


def _tangential_ref(euclid_grad, u):
    return 0.5 * (euclid_grad - u @ euclid_grad.T @ u)


def _err_update_ref(errs, got, ref):
    abs_err = abs(got - ref)
    rel_err = abs_err / max(1.0, abs(ref))
    return max(errs[0], abs_err), max(errs[1], rel_err)


def verify_identities_reference(n, samples=20, seed=None, tol=None):
    """The identity suite with a separate finite-difference sweep for the
    gradient and for the Hessian, each recomputing the monomial's powers at
    every displaced point, and array errors kept by hand."""
    from sonlap.numeric import (
        _FD_PARTITIONS,
        _IDENTITY_TOLS,
        DEFAULT_SEED,
        VerifyReport,
        _sample_streams,
        structure_matrices,
    )

    seed = DEFAULT_SEED if seed is None else seed
    errs = {name: (0.0, 0.0) for name in _IDENTITY_TOLS}
    for stream in _sample_streams(seed, samples):
        rotation_stream, aux_stream = stream.spawn(2)
        sample = _sample_ref(n, rotation_stream)
        rng = np.random.default_rng(aux_stream)
        u = sample.matrix
        k_comm, lam = structure_matrices(sample)

        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        got = float(np.trace(k_comm @ np.kron(a, b)))
        ref = float(np.trace(a @ b))
        errs["commutation-trace"] = _err_update_ref(errs["commutation-trace"], got, ref)

        for lhs, rhs in (
            (lam @ k_comm, np.kron(u.T, u)),
            (k_comm @ lam, np.kron(u, u.T)),
        ):
            diff = float(np.max(np.abs(lhs - rhs)))
            scale = max(1.0, float(np.max(np.abs(rhs))))
            cur = errs["lambda-commutation"]
            errs["lambda-commutation"] = (max(cur[0], diff), max(cur[1], diff / scale))

        for parts in _FD_PARTITIONS:
            partition = Partition.of(*parts)
            grad, hess = _dense_derivatives_ref(partition, u)

            def value_fn(mat, _p=partition):
                return _value_ref(_p, mat)

            def grad_fn(mat, _p=partition):
                return _gradient_ref(_p, mat)

            fd_g = _fd_gradient_ref(value_fn, u)
            dg = float(np.max(np.abs(grad - fd_g)))
            scale = max(1.0, float(np.max(np.abs(grad))))
            cur = errs["gradient-fd"]
            errs["gradient-fd"] = (max(cur[0], dg), max(cur[1], dg / scale))

            fd_h = _fd_hessian_ref(grad_fn, u)
            dh = float(np.max(np.abs(hess - fd_h)))
            scale = max(1.0, float(np.max(np.abs(hess))))
            cur = errs["hessian-fd"]
            errs["hessian-fd"] = (max(cur[0], dh), max(cur[1], dh / scale))

        pows = _powers_ref(u, 10)
        pows_t = [p.T for p in pows]
        traces = [float(np.trace(p)) for p in pows]
        p1 = traces[1]
        for q in range(5 + 1):
            got_m = _tangential_ref(_gradient_ref(Partition((1,) * q), u), u)
            ref_m = 0.5 * q * p1 ** (q - 1) * (np.eye(n) - pows[2]) if q else np.zeros((n, n))
            diff = float(np.max(np.abs(got_m - ref_m)))
            scale = max(1.0, float(np.max(np.abs(ref_m))) if q else 1.0)
            cur = errs["tangential-gradient"]
            errs["tangential-gradient"] = (max(cur[0], diff), max(cur[1], diff / scale))
        for m in range(1, 6):
            got_m = _tangential_ref(_gradient_ref(Partition((m,)), u), u)
            ref_m = 0.5 * m * (pows_t[m - 1] - pows[m + 1])
            diff = float(np.max(np.abs(got_m - ref_m)))
            scale = max(1.0, float(np.max(np.abs(ref_m))))
            cur = errs["tangential-gradient"]
            errs["tangential-gradient"] = (max(cur[0], diff), max(cur[1], diff / scale))

        for m in range(1, 6):
            gm = _tangential_ref(_gradient_ref(Partition((m,)), u), u)
            for mp in range(1, m + 1):
                gmp = _tangential_ref(_gradient_ref(Partition((mp,)), u), u)
                got = 2 * float(np.sum(gm * gmp))
                base = traces[m - mp] if m != mp else float(n)
                ref = m * mp * (base - traces[m + mp])
                errs["gradient-inner"] = _err_update_ref(errs["gradient-inner"], got, ref)

        y = math.sqrt(2.0) * u[:, -1]
        _, h_grad, h_hess = _sphere_test_h_ref(y)
        f_grad = np.zeros((n, n))
        f_grad[:, -1] = math.sqrt(2.0) * h_grad
        f_hess = np.zeros((n * n, n * n))
        f_hess[(n - 1) * n:, (n - 1) * n:] = 2.0 * h_hess
        got = _dense_laplacian_ref(u, f_grad, f_hess)
        ref = _sphere_lap_ref(h_grad, h_hess, y, math.sqrt(2.0))
        errs["sphere-restriction"] = _err_update_ref(errs["sphere-restriction"], got, ref)

    reports = []
    for name, default_tol in _IDENTITY_TOLS.items():
        use_tol = default_tol if tol is None else tol
        max_abs, max_rel = errs[name]
        reports.append(
            VerifyReport(
                "identities", n, {"identity": name}, samples, seed, use_tol,
                max_abs, max_rel, max_rel <= use_tol,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# the laplacian and gegenbauer suites before the shared sample loop: one
# loop over the samples per family, each drawing its own rotations


def monomial_traces_reference(partition, frob, prod):
    """The matrix-free (tr(U^t grad), tr Hess, tr(Lambda Hess)) of a trace
    monomial as summed before the index plans: one rest product per term."""
    parts = partition.parts
    traces = [row[0] for row in prod]
    values = [traces[m] for m in parts]
    radial = tr_hess = tr_lam_hess = 0.0
    for i, m in enumerate(parts):
        rest = _rest_product_ref(values, (i,))
        radial += rest * m * values[i]
        tr_hess += rest * m * sum(frob[r][m - 2 - r] for r in range(m - 1))
        tr_lam_hess += rest * m * sum(traces[r + 1] * traces[m - 1 - r] for r in range(m - 1))
        for j, mp in enumerate(parts):
            if j != i:
                pair = _rest_product_ref(values, (i, j)) * m * mp
                tr_hess += pair * frob[m - 1][mp - 1]
                tr_lam_hess += pair * prod[m][mp]
    return radial, tr_hess, tr_lam_hess


def eval_traces_reference(poly: TracePoly, traces: list) -> float:
    """A trace polynomial's value from the traces of U's powers as evaluated
    before the plans: each coefficient floated per call, with the exact
    fallback where the float sum may cancel."""
    terms = poly.terms
    values = [math.prod((traces[m] for m in part), start=float(c)) for part, c in terms.items()]
    total = math.fsum(values)
    slack = math.fsum(map(abs, values)) * 2.0**-52 * (poly.degree + 2)
    if slack <= 1e-9 * max(1.0, abs(total)):
        return total
    rational = [F(t) for t in traces]
    return float(sum(math.prod((rational[m] for m in part), start=c) for part, c in terms.items()))


def verify_partition_reference(n, partition, samples=20, seed=None, tol=1e-8):
    from sonlap.numeric import (
        DEFAULT_SEED,
        VerifyReport,
        _sample_streams,
        eval_tracepoly,
        lap_numeric,
    )

    seed = DEFAULT_SEED if seed is None else seed
    streams = _sample_streams(seed, samples)
    symbolic = lap_partition(partition).substitute_n(n)
    errs = (0.0, 0.0)
    for stream in streams:
        sample = _sample_ref(n, stream)
        got = lap_numeric(partition, sample)
        ref = eval_tracepoly(symbolic, sample)
        errs = _err_update_ref(errs, got, ref)
    max_abs, max_rel = errs
    return VerifyReport(
        "laplacian", n, {"partition": partition.serialize()}, samples, seed, tol,
        max_abs, max_rel, max_rel <= tol,
    )


def verify_gegenbauer_reference(n, k, i, j, samples=20, seed=None, tol=1e-8):
    from sonlap.numeric import DEFAULT_SEED, VerifyReport, _sample_streams, gegenbauer

    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("entry indices out of range")
    if n < 3:
        raise ValueError("needs n >= 3")
    seed = DEFAULT_SEED if seed is None else seed
    alpha = (n - 2) / 2
    eigenvalue = -k * (k + n - 2) / 2
    row, col = i - 1, j - 1
    errs = (0.0, 0.0)
    for stream in _sample_streams(seed, samples):
        entry = float(random_son_reference(n, stream)[row, col])
        value, d1, d2 = gegenbauer(k, alpha, entry)
        got = 0.5 * d2 - 0.5 * (n - 1) * (entry * d1) - 0.5 * (entry * entry * d2)
        ref = eigenvalue * value
        errs = _err_update_ref(errs, got, ref)
    max_abs, max_rel = errs
    return VerifyReport(
        "gegenbauer", n, {"k": k, "i": i, "j": j}, samples, seed, tol,
        max_abs, max_rel, max_rel <= tol,
    )


# ---------------------------------------------------------------------------
# TracePoly.reduce and the term printer before the cached reduced monomials


def reduce_per_factor_reference(poly: TracePoly, mode) -> TracePoly:
    """``poly`` rewritten onto the generators of the reduced ``mode`` by one
    product of p_m table entries per term, as ``reduce`` did before."""
    from sonlap.tracepoly import _pm_table

    table = _pm_table(mode)
    factors = []
    for part, coeff in poly.terms.items():
        factor = TracePoly.constant(coeff, mode)
        for m in part:
            factor = factor * table(m)
        factors.append(factor)
    return TracePoly.sum(factors, mode)


def npoly_str_reference(poly: NPoly) -> str:
    """``str(NPoly)`` as printed before, from absolute values and comparisons."""
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    chunks = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        if e == 0:
            body = str(abs(c))
        else:
            var = "N" if e == 1 else f"N^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def npoly_subs_reference(poly: NPoly, n) -> Fraction:
    """``NPoly.subs`` as it was before the integer evaluation: a sum of
    Fraction terms c * n^e."""
    n = F(n)
    return sum((c * n**e for e, c in poly.coeffs.items()), F(0))


def substitute_n_reference(poly: TracePoly, n: int) -> TracePoly:
    """``poly.substitute_n(n)`` as it was before: every coefficient through
    :func:`npoly_subs_reference` and the validating constructor."""
    from sonlap import general_at

    return TracePoly({p: npoly_subs_reference(c, n) for p, c in poly.terms.items()}, general_at(n))


def coeff_chunk_reference(coeff, label):
    """The (sign, body) split of one printed term, as ``_coeff_chunk`` made it
    before, with ``npoly_str_reference`` for the NPoly magnitudes."""
    if isinstance(coeff, NPoly):
        items = coeff.coeffs
        if not items:
            return "+", "0"
        lead = items[max(items)]
        sign = "+" if lead > 0 else "-"
        mag = coeff if lead > 0 else -coeff
        text = npoly_str_reference(mag)
        body = text if len(items) == 1 else f"({text})"
        if label is None:
            return sign, body
        if mag == 1 and len(items) == 1:
            return sign, label
        return sign, f"{body}*{label}"
    coeff = Fraction(coeff)
    sign = "+" if coeff >= 0 else "-"
    mag = abs(coeff)
    if label is None:
        return sign, str(mag)
    if mag == 1:
        return sign, label
    return sign, f"{mag}*{label}"


# ---------------------------------------------------------------------------
# numeric TracePoly arithmetic and the renderers before the fraction-free
# kernel and the render caches


def _fraction_accumulate(out: dict, terms: dict, scale) -> None:
    """Add ``scale`` times ``terms`` into ``out``: one Fraction product and
    one Fraction sum per term, a sum that cancels leaving no entry."""
    for part, coeff in terms.items():
        s = out.get(part, F(0)) + coeff * scale
        if s:
            out[part] = s
        else:
            out.pop(part, None)


def fraction_sum(polys) -> dict:
    """The terms of the sum of numeric ``polys``, added term by term."""
    out = {}
    for poly in polys:
        _fraction_accumulate(out, poly.terms, 1)
    return out


def fraction_product(a: TracePoly, b: TracePoly) -> dict:
    """The terms of ``a * b``: every pair of terms multiplied and added in."""
    out = {}
    for p1, c1 in a.terms.items():
        _fraction_accumulate(out, {p1.concat(p2): c2 for p2, c2 in b.terms.items()}, c1)
    return out


def fraction_reduce(poly: TracePoly, mode) -> dict:
    """The terms of ``poly.reduce(mode)``: each coefficient times the reduced
    image of its monomial, added term by term."""
    from sonlap.tracepoly import _reduced_image

    out = {}
    for part, coeff in poly.terms.items():
        _fraction_accumulate(out, _reduced_image(mode, part).terms, coeff)
    return out


def fraction_lap(poly: TracePoly) -> dict:
    """The terms of ``lap(poly)``: each coefficient times the Laplacian of
    its monomial, added term by term."""
    from sonlap.laplacian import lap_monomial

    out = {}
    for part, coeff in poly.terms.items():
        _fraction_accumulate(out, lap_monomial(part, poly.mode).terms, coeff)
    return out


def monomial_label_reference(part: Partition, tag: str) -> str:
    """The printed name of ``p_part``, rebuilt on every call: the padded
    partition in general mode, powers by increasing trace in a reduced one."""
    if not part.parts:
        return "p_0"
    if tag == "general":
        if sum(part.parts) == 1:
            return "p_1"
        padded = list(part.parts) + [0] * (sum(part.parts) - len(part.parts))
        return "p_(" + ",".join(str(p) for p in padded) + ")"
    bits = []
    for value in sorted(set(part.parts)):
        power = part.parts.count(value)
        bits.append(f"p_{value}" if power == 1 else f"p_{value}^{power}")
    return " ".join(bits)


def pretty_reference(poly: TracePoly) -> str:
    """``TracePoly.pretty`` with nothing cached: highest degree first, then
    ascending-lex in a reduced mode and descending-lex in general mode, each
    term printed by ``coeff_chunk_reference``."""
    terms = poly.terms
    if not terms:
        return "0"
    reduced = poly.mode.tag != "general"
    items = sorted(
        terms.items(),
        key=lambda kv: (-sum(kv[0].parts), kv[0].parts if reduced else tuple(-p for p in kv[0].parts)),
    )
    chunks = []
    for part, coeff in items:
        if part.parts:
            sign, body = coeff_chunk_reference(coeff, monomial_label_reference(part, poly.mode.tag))
        elif isinstance(coeff, NPoly) and not coeff.coeffs.get(0):
            # N times an NPoly prints as a multiple of p_0
            ratio = NPoly({e - 1: c for e, c in coeff.coeffs.items()})
            sign, body = coeff_chunk_reference(ratio, "p_0")
        else:
            sign, body = coeff_chunk_reference(coeff, None)
        if chunks:
            chunks.append(f"{sign} {body}")
        else:
            chunks.append(body if sign == "+" else f"-{body}")
    return " ".join(chunks)


def json_reference(poly: TracePoly) -> list:
    """``TracePoly.to_json_obj`` with nothing cached: degree ascending, then
    descending-lex, each coefficient as an exponent -> rational string map."""
    out = []
    items = sorted(poly.terms.items(), key=lambda kv: (sum(kv[0].parts), tuple(-p for p in kv[0].parts)))
    for part, coeff in items:
        if isinstance(coeff, NPoly):
            cmap = {str(e): str(c) for e, c in sorted(coeff.coeffs.items())}
        else:
            cmap = {"0": str(coeff)}
        out.append({"partition": list(part.parts), "coeff": cmap})
    return out
