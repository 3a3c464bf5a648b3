"""Entropy of attention rows as the query norm grows.

Softmax rows sharpen with the query norm (entropy falls), positively
homogeneous kernel rows cannot react at all, and the norm-aware kernel
recovers a monotone entropy response along every direction.
"""

import numpy as np

from nala import KernelSpec, checks
from nala.entropy import norm_entropy_sweep
from nala.linalg import make_rng

specs = [
    KernelSpec(kind="nala", lam=2.0),
    KernelSpec(kind="relu"),
    KernelSpec(kind="fixed_power", lam=2.0),
]
grid = np.geomspace(0.25, 16.0, 16)
sweep = norm_entropy_sweep(
    make_rng(7), specs, n_dirs=16, N=128, d=16, c_grid=grid, softmax_too=True
)

print("entropy of one attention row (direction 0), ln(128) = 4.852:\n")
print("  query norm   " + "  ".join(f"{k:>12s}" for k in sweep))
for i, c in enumerate(grid):
    row = "  ".join(f"{ents[0, i]:12.4f}" for ents in sweep.values())
    print(f"  {c:10.3f}   {row}")

print("\nnorm response over all 16 directions (the same draws, nala.checks.norm_response):")
for r in checks.norm_response(make_rng(7), n_dirs=16, N=128, d=16, c_grid=grid, lam=2.0):
    print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
