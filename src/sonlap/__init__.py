"""Exact Laplace-Beltrami calculus on SO(N) trace polynomials.

The package computes the closed-form action of the Laplace-Beltrami operator
of (SO(N), Frobenius metric) on the flag of trace-polynomial spaces, builds
the upper block triangular matrices of the restricted operator, extracts the
exact spectra and irreducible characters of SO(N), N >= 3, and
cross-validates every symbolic result against a floating-point oracle built
from the ambient-space derivative formulas.
"""

from .flagmatrix import (
    Character,
    FlagBasis,
    FlagMatrix,
    SpectrumEntry,
    basis_for,
    build_matrix,
    character_so3,
    character_so4,
    coordinates,
    coordinates_general,
    eigenspace_exact,
    eigenvalues_exact,
    match_characters,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_latex,
    matrix_to_pretty,
    spectrum_closed,
)
from .laplacian import (
    grad_inner_pm,
    lap,
    lap_p1_pow,
    lap_partition,
    lap_partition_product_rule,
    lap_pm,
    so3_lap_pm_btrace,
    so3_lap_power,
    so4_lap_monomial,
)
from .haar import RotationSample, random_son, rotation_from_angles
from .npoly import NPoly
from .numeric import (
    DEFAULT_SEED,
    DerivativeBundle,
    VerifyReport,
    commutation_matrix,
    euclid_derivatives,
    eval_tracepoly,
    gegenbauer,
    lap_numeric,
    sphere_lap_numeric,
    structure_matrices,
    tangential_gradient,
    verify_gegenbauer,
    verify_gegenbauer_families,
    verify_identities,
    verify_laplacian,
    verify_partition,
)
from .partitions import EMPTY, Partition, count, enumerate_upto, partitions_of
from .tracepoly import (
    GENERAL,
    SO3,
    SO4,
    GroupMode,
    TracePoly,
    elementary,
    general_at,
    so,
    so3_basis_change,
    so3_from_coordinates,
    so3_pm_in_p1,
    so4_pm_in_p1p2,
)

__version__ = "0.1.0"
