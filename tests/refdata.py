"""Frozen reference values shared by the unit and acceptance tests.

The symbolic Laplacian table covers every monomial of degree <= 4; the SO(4)
order-4 matrix, its eigenvector list and the character table are the known
closed-form results this package must reproduce exactly.  The three-case
monomial Laplacian is the assembly ``lap_partition`` used before the grouped
product rule, and the character enumeration is the candidate search
``match_characters`` used before it read the spectrum's labels; both are
frozen here as exact references.
"""

from fractions import Fraction

from sonlap import (
    GENERAL,
    NPoly,
    Partition,
    TracePoly,
    character_so3,
    character_so4,
    lap_p1_pow,
    lap_partition_product_rule,
)

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


def part_of(parts) -> Partition:
    return Partition.of(*parts)


def so4_monomial_partition(l: int, m: int) -> Partition:
    return Partition.of(*([2] * m + [1] * l))


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
        return lap_p1_pow(s)
    if r == s:
        return lap_partition_product_rule(partition)
    big = parts[:r]
    q = s - r

    def mono(*factors) -> TracePoly:
        return TracePoly.monomial(Partition.of(*factors), 1, GENERAL)

    out = (
        lap_partition_product_rule(Partition(big)) * mono(*(1,) * q)
        + mono(*big) * lap_p1_pow(q)
    )
    for i, mi in enumerate(big):
        rest = mono(*(big[:i] + big[i + 1:]))
        bracket = TracePoly.power_sum(mi - 1, GENERAL) - TracePoly.power_sum(mi + 1, GENERAL)
        out = out + rest * mono(*(1,) * (q - 1)) * bracket * F(mi * q)
    return out


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
