"""Wall-clock scaling: O(N^2) versus O(N) evaluators on a modest grid.

The full-scale sweep (N up to 16384) lives in the acceptance suite and in
`nala bench`; this demo keeps the grid small enough to finish in seconds
while still separating the slopes.
"""

from nala import KernelSpec
from nala.bench import run_scaling_sweep
from nala.linalg import make_rng

records, slopes = run_scaling_sweep(
    make_rng(5),
    n_grid=[512, 1024, 2048, 4096],
    d=32,
    spec=KernelSpec(lam=2.0),
    reps=3,
)

print(f"{'evaluator':>22s} {'N':>6s} {'median wall':>12s} {'checksum':>14s}")
for r in records:
    print(f"{r.evaluator_id:>22s} {r.n:6d} {r.wall_seconds*1e3:10.2f}ms {r.checksum:14.6g}")

print("\nfitted log-log slopes (1 = linear, 2 = quadratic):")
for evaluator_id, slope in slopes.items():
    print(f"  {evaluator_id:>22s}: {slope:.2f}")
