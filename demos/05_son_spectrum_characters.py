"""SO(6): the order-8 flag matrix, its exact spectrum with merged labels, and
a Koike-Terada character.

SO(6) has rank r = 3, so every trace polynomial reduces onto p_1, p_2, p_3
and the weight-w block of the flag is spanned by the p_mu, mu |- w with
parts <= 3.  The closed-form candidates of a block are the Casimir values
-sum_i lam_i(lam_i + 6 - 2i)/2 of the conjugate highest weights lam.  Unlike
on SO(3) and SO(4), two of them can coincide inside one block: at weight 6,
(4,1,1) and (3,3,0) both give -18, so one eigenvalue carries both labels.
"""

from sonlap import build_matrix, eigenvalues_exact, match_characters, so

SO6 = so(6)
matrix = build_matrix(SO6, "so6", 8)
sizes = [end - start for start, end, _ in matrix.basis.block_ranges()]
print(f"Order-8 flag of {SO6}: dimension {matrix.dim}, block sizes {sizes}")

print()
print("Spectrum: eigenvalue, multiplicity, highest weights lam (weight |lam|)")
for entry in eigenvalues_exact(matrix):
    weights = [sum(lam) for lam in entry.labels]
    shared = {w for w in weights if weights.count(w) > 1}
    mark = f"  <- shared inside the weight-{min(shared)} block" if shared else ""
    print(f"  {str(entry.eigenvalue):>6}  x{entry.geometric_multiplicity}  {entry.labels}{mark}")

matches = match_characters(matrix)
print()
print(f"{len(matches)} characters, one per label, each inside its eigenspace")
chi = next(ch for _, ch in matches if ch.label == (3, 3, 0))
print(f"o_(3,3,0) = det(h_(lam_i-i+j) - h_(lam_i-i-j)), eigenvalue {chi.eigenvalue}:")
print(f"  {chi.poly.pretty()}")
