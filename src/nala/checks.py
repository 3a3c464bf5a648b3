"""The library's core properties, one check each.

Each function draws its instances from the generator it is given, in a
fixed order, and returns CheckResult records.  `nala verify-theorems` and
`nala grad-check` print them as PASS/FAIL lines; the acceptance suite calls
the same functions with its own seeds and asserts on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    SOFTMAX_ID,
    concavity_probe,
    norm_entropy_sweep,
    pearson,
    theorem1_scan,
)
from .gradcheck import admissible_point, finite_diff_jacobian, jac_phi_k, jac_phi_q, max_rel_error
from .kernels import _MAP_BLOCK_ELEMS, HOMOGENEOUS_KINDS, KernelKind, KernelSpec, phi_k, phi_q

#: Largest accepted relative Jacobian error; central differences carry ~1e-11.
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """One property measured on seeded instances, with the bound it is held to."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str


def exp_entropy_threshold(rng: np.random.Generator) -> CheckResult:
    """Exponential-row entropy ends strictly decreasing over scales [0.1, 20], 100 rows per N.

    The 100 rows of each size are drawn as one (100, N) stack, the same
    stream as 100 one-row draws, and scanned by one theorem1_scan call.
    """
    c_grid = np.geomspace(0.1, 20.0, 32)
    sizes = (4, 16, 64)
    monotone = sum(int(theorem1_scan(rng.standard_normal((100, n)), c_grid).monotone_after.sum())
                   for n in sizes)
    total = 100 * len(sizes)
    return CheckResult("exp-row entropy decreases beyond a scale threshold", monotone == total,
                       monotone, total, f"{monotone}/{total} random unique-max rows, N in {sizes}")


def norm_response(
    rng: np.random.Generator, n_dirs: int, N: int, d: int, c_grid, lam: float
) -> list[CheckResult]:
    """Each kernel's row entropy against the query norm, judged on one norm_entropy_sweep.

    Five results, in order.  nala: along every direction, strictly
    decreasing with pearson(norm, entropy) < -0.5 (the pooled pearson mostly
    measures offsets between directions, so it is only reported).  relu,
    then fixed_power (HOMOGENEOUS_KINDS): per-direction spread (max - min)
    <= 1e-12, scale invariance up to roundoff.  one_plus_elu, whose +1
    breaks homogeneity: largest spread over the norms below the smallest
    softmax spread.  softmax: pooled pearson < -0.5.  A failing
    per-direction result names the directions that break it.
    """
    c = np.asarray(c_grid, dtype=np.float64)
    flat = [kind.value for kind in KernelKind if kind in HOMOGENEOUS_KINDS]
    specs = [KernelSpec(kind, lam) for kind in ("nala", *flat, "one_plus_elu")]
    ents = norm_entropy_sweep(rng, specs, n_dirs, N, d, c, softmax_too=True)
    norms = np.tile(c, n_dirs)
    over = f"{n_dirs} direction" + "s" * (n_dirs != 1)

    def per_direction(kernel_id, claim, ok, measured, bound, detail):
        if not ok.all():
            detail += f"; fails at directions {np.flatnonzero(~ok).tolist()}"
        return CheckResult(f"{kernel_id} attention entropy {claim}", bool(ok.all()),
                           float(measured), float(bound), detail)

    nala = ents["nala"]
    decreasing = np.all(np.diff(nala, axis=1) < 0, axis=1)
    corrs = np.array([pearson(c, row) for row in nala])
    worst = corrs.max()  # .max() keeps a NaN
    results = [per_direction(
        "nala", "falls with the query norm along every direction", decreasing & (corrs < -0.5),
        worst, -0.5, f"{decreasing.sum()}/{n_dirs} directions strictly decreasing, worst pearson "
        f"{worst:.4f} (pooled {pearson(norms, nala.ravel()):.4f})")]
    for kernel_id in flat:
        spread = np.ptp(ents[kernel_id], axis=1)
        results.append(per_direction(
            kernel_id, "is query-scale invariant along every direction", spread <= 1e-12,
            spread.max(), 1e-12, f"max per-direction spread {spread.max():.3e} over {over}"))
    elu, soft = (np.ptp(ents[k], axis=1) for k in ("one_plus_elu", SOFTMAX_ID))
    results.append(per_direction(
        "one_plus_elu", "moves less with the query norm than softmax's", elu < soft.min(),
        elu.max(), soft.min(),
        f"largest one_plus_elu spread {elu.max():.3f} vs smallest softmax spread {soft.min():.3f}"))
    pooled = pearson(norms, ents[SOFTMAX_ID].ravel())
    results.append(CheckResult(
        "softmax attention entropy falls with the query norm", pooled < -0.5, pooled, -0.5,
        f"pooled pearson {pooled:.4f} over {over} x {c.size} norms"))
    return results


def entropy_concavity(rng: np.random.Generator) -> CheckResult:
    """Second differences (step 1e-4) of the entropy along each coordinate of 50 rows are <= 0.

    The 50 rows are drawn as one (50, 12) stack, the same stream as 50
    one-row draws, and probed by one concavity_probe call.
    """
    x = rng.uniform(0.2, 1.2, size=(50, 12))
    worst = float(concavity_probe(x, range(x.shape[1]), [1e-4]).max())  # .max() keeps a NaN
    return CheckResult("entropy second differences nonpositive on random rows", worst <= 1e-8,
                       worst, 1e-8, f"max second difference {worst:.3e} over 50 rows x 12 coords")


def similarity_nonnegative(rng: np.random.Generator, spec: KernelSpec) -> CheckResult:
    """No similarity phi_q(q) . phi_k(k) is negative, by structure and over 1024^2 computed pairs.

    1024 query rows, then 1024 key rows, are drawn in 16 dimensions, the
    same stream, and the same final generator state, as one (2, 1024, 16)
    draw.  Two clauses must hold, and a FAIL names each one that does not:

    * structural: every feature entry is finite, and in every row on both
      sides each coordinate's cos entry is >= the absolute value of its
      sin entry.  Then each coordinate of any pair gives
      c_q c_k + s_q s_k >= c_q c_k - |s_q| |s_k| >= 0, so no pair of the
      mapped rows can have a negative true similarity;
    * computed: the least of all 1024^2 dot products fq @ fk.T is >= 0.
      It judges the rounding, which the structural clause does not see: a
      pair whose true value is near 0 could still be computed below it.

    .min() keeps a NaN, so a NaN similarity makes the minimum NaN, and fails.
    """
    n, d = 1024, 16
    fq = phi_q(rng.standard_normal((n, d)), spec)
    fk = phi_k(rng.standard_normal((n, d)), spec)
    low = float((fq @ fk.T).min())
    faults = [] if low >= 0.0 else ["computed clause fails"]
    for side, f in (("query", fq), ("key", fk)):
        finite = np.isfinite(f).all(axis=1)
        dominant = (f[:, :d] >= np.abs(f[:, d:])).all(axis=1)
        for what, count in (("a non-finite entry", n - finite.sum()),
                            ("cos < |sin|", (finite & ~dominant).sum())):
            if count:
                faults.append(f"structural clause fails: {what} in {count} of {n} {side} rows")
    detail = f"min similarity {low:.3e} over {n * n} Gaussian pairs"
    if faults:
        detail += "; " + "; ".join(faults)
    else:
        detail += f", cos >= |sin| in all {2 * n} feature rows"
    return CheckResult("kernel similarities are nonnegative", not faults, low, 0.0, detail)


def trig_block_norm(rng: np.random.Generator, d: int, spec: KernelSpec) -> CheckResult:
    """phi_k's [cos; sin] blocks over |u_i|**lambda give sum(cos^2 + sin^2) = d per direction.

    Magnitudes below the float64 normal range (large lambda) carry too few
    bits to divide by; those entries are skipped and counted, and each row
    is held to the number of entries kept.
    """
    dirs = rng.standard_normal((1000, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = np.abs(dirs) ** spec.lam
    kept = mags >= np.finfo(np.float64).tiny
    feats = phi_k(dirs, spec)
    cos_blk, sin_blk = (np.divide(blk, mags, out=np.zeros_like(mags), where=kept)
                        for blk in (feats[:, :d], feats[:, d:]))
    err = float(np.abs((cos_blk**2 + sin_blk**2).sum(axis=1) - kept.sum(axis=1)).max())
    detail = f"max |sum(cos^2+sin^2) - d| = {err:.3e} over 1000 directions"
    skipped = kept.size - int(kept.sum())
    if skipped:
        detail += f", {skipped} magnitudes below the float64 normal range skipped"
    name = "sign encoding preserves the trig-block norm"
    return CheckResult(name, err <= 1e-12, err, 1e-12, detail)


def jacobians(rng: np.random.Generator, d: int, spec: KernelSpec) -> list[CheckResult]:
    """Analytic phi_q and phi_k Jacobians against central differences at 50 admissible points.

    The (q, k) pairs are drawn first, one pair at a time.  Each map is
    then checked in stacks of max(1, _MAP_BLOCK_ELEMS // (2 d^2)) points
    (all 50 at d=16, 4 at d=64, 1 from d=128 on), so a stack's features and
    Jacobians hold at most _MAP_BLOCK_ELEMS entries; each stack makes one
    finite-difference, one Jacobian and one error call.
    """
    pairs = [(admissible_point(rng, d, direction=True), admissible_point(rng, d, direction=False))
             for _ in range(50)]
    qs, ks = (np.array(side) for side in zip(*pairs))
    step = max(1, _MAP_BLOCK_ELEMS // (2 * d * d))
    results = []
    for name, fn, jac, pts in (("phi_q", phi_q, jac_phi_q, qs), ("phi_k", phi_k, jac_phi_k, ks)):
        err = 0.0
        for i in range(0, 50, step):
            x = pts[i : i + step]
            fd = finite_diff_jacobian(lambda v: fn(v, spec), x)
            # np.maximum keeps a NaN error, which the builtin max would drop
            err = float(np.maximum(err, max_rel_error(jac(x, spec), fd)))
        results.append(CheckResult(name, err <= GRAD_TOL, err, GRAD_TOL,
                                   f"max rel error {err:.9g} over 50 points (tol {GRAD_TOL:g})"))
    return results
