"""Closed-form Laplacians of trace monomials, with the dimension symbolic.

The Laplace-Beltrami operator of SO(N) with the Frobenius metric maps the
monomial p_lam = prod_i tr(U^{m_i}) to another trace polynomial of degree at
most deg(lam).  This script prints the full table for every monomial of
degree <= 4 and shows the three ingredients the assembly is built from.
"""

from sonlap import (
    Partition,
    enumerate_upto,
    grad_inner_pm,
    lap_partition,
    lap_pm,
)

print("Single power sums")
print("-----------------")
for m in range(5):
    print(f"  D p_{m:<10} = {lap_pm(m).pretty()}")

print()
print("Pure powers of the first trace")
print("------------------------------")
for q in range(5):
    label = "p_1" + (f"^{q}" if q != 1 else "")
    print(f"  D {label:<10} = {lap_partition(Partition((1,) * q)).pretty()}")

print()
print("Tangential gradient pairings")
print("----------------------------")
for m, mp in [(1, 1), (2, 1), (3, 2)]:
    print(f"  <grad p_{m}, grad p_{mp}> = {grad_inner_pm(m, mp).pretty()}")

print()
print("Every monomial of degree <= 4")
print("-----------------------------")
for partition in enumerate_upto(4):
    label = "p_" + ("(" + ",".join(map(str, partition.padded())) + ")" if partition.parts else "0")
    print(f"  D {label:<14} = {lap_partition(partition).pretty()}")

# Degree never increases, which is what keeps the flag of spaces invariant:
widest = max(enumerate_upto(8), key=lambda p: p.degree)
image = lap_partition(widest)
assert all(term.degree <= widest.degree for term in image.terms)
print()
print(f"degree check: D p_{widest} stays within degree {widest.degree}")
