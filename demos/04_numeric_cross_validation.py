"""The floating-point oracle: ambient derivative formulas on Haar samples.

Every symbolic Laplacian is re-derived numerically from the ambient-space
formula

    1/2 tr(Hess f) - (N-1)/2 tr(U^t grad f) - 1/2 tr(Lambda(U) Hess f)

on seeded Haar rotations and compared at relative 1e-8.  Both Hessian
traces come from closed forms in the matrix powers of U, so no n^2 x n^2
Hessian is built.  The same machinery confirms the Gegenbauer entry
eigenfunctions, and the identity reports check the dense Hessian, the
commutation matrix K and Lambda(U) behind those closed forms.
"""

import json

from sonlap import (
    Partition,
    enumerate_upto,
    verify_gegenbauer_families,
    verify_identities,
    verify_laplacian,
)

SEED = 20230

print("Symbolic vs numeric Laplacian (worst relative error over 20 samples)")
for n in (3, 4, 5, 6):
    # one suite call checks every partition of degree <= 4 at the same 20 rotations
    reports = verify_laplacian(n, enumerate_upto(4), samples=20, seed=SEED)
    print(f"  n={n}: {max(r.max_rel_err for r in reports):.3e}")

print()
print("Gegenbauer entry eigenfunctions, eigenvalue -k(k+n-2)/2")
for n, k in [(3, 2), (5, 1), (6, 8)]:
    [report] = verify_gegenbauer_families(n, [(k, 1, n)], samples=20, seed=SEED)
    print(f"  n={n}, k={k}: pass={report.passed}, max_rel={report.max_rel_err:.3e}")

print()
print("Structure identities at n=4 (JSON reports)")
for report in verify_identities(4, samples=10, seed=SEED):
    print(" ", json.dumps(report.to_json_obj(), sort_keys=True))

print()
print("One-line check of a single monomial at n=6")
[report] = verify_laplacian(6, [Partition.of(3, 2)], samples=50, seed=SEED)
print(f"  D p_(3,2) on SO(6): pass={report.passed}, max_abs={report.max_abs_err:.3e}")
