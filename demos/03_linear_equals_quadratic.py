"""The O(N) forms are exact re-associations, not approximations.

The explicit N x N evaluator is the oracle; the streaming linear form and
the chunked causal recurrence must match it to near machine precision.
N is larger than one causal chunk, so the comparison reaches the state
carried between chunks.
"""

import numpy as np

from nala import KernelSpec, nala_causal_recurrent, nala_linear, nala_quadratic
from nala.cli import max_rel_dev
from nala.linalg import make_rng

rng = make_rng(3)
spec = KernelSpec(lam=2.0)
N, d = 200, 16
Q, K, V = (rng.standard_normal((N, d)) for _ in range(3))

quad = nala_quadratic(Q, K, V, spec)
lin = nala_linear(Q, K, V, spec)
print(f"non-causal: max rel deviation linear vs quadratic = "
      f"{max_rel_dev(lin.output, quad.output):.3e}")

quad_causal = nala_quadratic(Q, K, V, spec, causal=True)
rec = nala_causal_recurrent(Q, K, V, spec)
print(f"causal    : max rel deviation chunked recurrence vs masked quadratic = "
      f"{max_rel_dev(rec.output, quad_causal.output):.3e}")

print(f"\nquadratic weight rows: min {quad.weights.min():.3e}, "
      f"row sums in [{quad.weights.sum(1).min():.12f}, {quad.weights.sum(1).max():.12f}]")
print(f"row entropies: {quad.row_entropy.min():.4f} .. {quad.row_entropy.max():.4f} "
      f"(ln N = {np.log(N):.4f})")

doubled = nala_linear(Q, np.vstack([K, K]), np.vstack([V, V]), spec)
print(f"\nduplicating the key/value set changes outputs by "
      f"{max_rel_dev(doubled.output, lin.output):.3e} (normalization cancels)")

perm = rng.permutation(N)
shuffled = nala_linear(Q, K[perm], V[perm], spec)
print(f"permuting the key/value set changes outputs by "
      f"{max_rel_dev(shuffled.output, lin.output):.3e} (order-free aggregation)")
