"""Anatomy of the norm-aware feature map.

Walks through the pieces: the norm-direction split, the norm-driven query
exponent, the bounded sign encoding, and why every query/key similarity
comes out nonnegative.
"""

import numpy as np

from nala import KernelSpec, phi_k, phi_q, power_exponent
from nala.linalg import make_rng

spec = KernelSpec(lam=2.0)
rng = make_rng(0)

q = np.array([1.5, -0.5, 2.0, 0.25])
norm = np.linalg.norm(q)
direction = q / norm
print(f"query            : {q}")
print(f"norm             : {norm:.6f}")
print(f"direction        : {np.round(direction, 4)}  (unit length)")

print("\nThe query exponent grows with the norm and saturates:")
for n in (0.0, 0.5, 1.0, 2.0, 4.0, 16.0):
    print(f"  p({n:4.1f}) = {power_exponent(n, spec):.4f}")

fq = phi_q(q, spec)
fk = phi_k(q, spec)
d = q.size
print(f"\nphi_q(q) cos block: {np.round(fq[:d], 4)}  (all positive)")
print(f"phi_q(q) sin block: {np.round(fq[d:], 4)}  (signs live here)")

print("\nScaling a key scales its feature by c**lambda exactly:")
k = rng.standard_normal(4)
print(f"  phi_k(3k) / phi_k(k) = {np.round(phi_k(3 * k, spec) / phi_k(k, spec), 6)}")

print("\nScaling a query does NOT factor out -- the exponent moves instead:")
print(f"  phi_q(3q) / phi_q(q) = {np.round(phi_q(3 * q, spec) / fq, 4)}")

print("\nOpposite signs are inhibited, never negated (similarity = phi_q(q) . phi_k(k)):")
print(f"  sim(q,  q) = {fq @ fk:.6f}")
print(f"  sim(q, -q) = {fq @ phi_k(-q, spec):.6f}")

sims = [
    phi_q(rng.standard_normal(16), spec) @ phi_k(rng.standard_normal(16), spec)
    for _ in range(2000)
]
print(f"\n2000 random Gaussian pairs: min similarity = {min(sims):.6f} (>= 0)")
