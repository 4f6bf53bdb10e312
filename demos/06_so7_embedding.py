"""The integral realization of G2 inside SO7, verified exactly.

The seven-dimensional quadratic space carries the smallest faithful
representation; root subgroups are quadratic polynomial matrices and all
their defining identities are checked symbolically.
"""

from g2bwb.rootdata import POSITIVE_ROOTS
from g2bwb.chevalley import (
    XI,
    chevalley_verify,
    coroot_diagonal_exponents,
    root_subgroup,
    weight_table,
)

alpha1 = POSITIVE_ROOTS[0]
print("the root subgroup of the short simple root, entries in xi:")
g = root_subgroup(alpha1, XI)
for r in range(7):  # g stores its nonzero entries only
    print("  [" + ", ".join(f"{g.get((r, c), 0)!r:8s}" for c in range(7)) + "]")

print("\ncoroot diagonals (exponents of zeta):")
print("  alpha1^v:", coroot_diagonal_exponents(1))
print("  alpha2^v:", coroot_diagonal_exponents(2))

print("\ntorus weights of the basis vectors:")
for k, wt in weight_table().items():
    print(f"  v_{k}: {wt}")

print()
for rep in chevalley_verify():
    print(rep.to_text())
    print()
