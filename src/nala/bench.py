"""Wall-clock scaling of the attention evaluators.

Times each evaluator on one shared random instance per sequence length,
visiting the (N, evaluator) grid round-robin, reports the median, minimum
and interquartile range of several runs after _WARMUPS untimed ones, and
fits a log-log slope per evaluator to the medians.  The O(N^2) evaluators
should fit a slope near 2, the re-associated and recurrent forms near 1.
Checksums (sum of output entries) are carried along both to defeat
dead-code elimination and to confirm that the timed paths agree
numerically.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attention import (
    nala_causal_recurrent,
    nala_linear,
    nala_quadratic,
    softmax_attention,
)
from .kernels import KernelSpec

#: Largest N the N^2-memory evaluators run at by default (2 GiB of doubles).
DEFAULT_QUAD_CAP = 16384

EVALUATORS: dict[str, Callable] = {
    "softmax": lambda Q, K, V, spec: softmax_attention(Q, K, V),
    "nala_quadratic": nala_quadratic,
    "nala_linear": nala_linear,
    "nala_causal_recurrent": nala_causal_recurrent,
}

_QUADRATIC_MEMORY = frozenset({"softmax", "nala_quadratic"})

#: Untimed passes over the grid before the timed ones, so first-call
#: costs stay out of the timings.
_WARMUPS = 2


@dataclass
class BenchRecord:
    """One timed (evaluator, N) point; skipped points carry nan and reps=0.

    wall_seconds is the median of the timed runs; min_seconds and
    iqr_seconds (75th minus 25th percentile, 0 for one run) give the
    spread around it.
    """

    evaluator_id: str
    n: int
    d: int
    wall_seconds: float
    min_seconds: float
    iqr_seconds: float
    reps: int
    checksum: float


def fit_loglog_slope(ns: Sequence[int], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) against log(N)."""
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(seconds), 1)[0])


def run_scaling_sweep(
    rng: np.random.Generator,
    n_grid: Sequence[int],
    d: int,
    spec: KernelSpec,
    evaluator_ids: Sequence[str] | None = None,
    reps: int = 5,
    quad_cap: int = DEFAULT_QUAD_CAP,
) -> tuple[list[BenchRecord], dict[str, float]]:
    """Time the evaluators over n_grid and fit per-evaluator log-log slopes.

    Each N gets one random (Q, K, V) instance shared by every evaluator;
    all instances are drawn up front, one N after another.  The grid of
    (N, evaluator) points is then visited round-robin: _WARMUPS untimed
    passes, then `reps` timed passes, each running every point once, so a
    transient slowdown of the host lands on every N alike instead of
    bending the first points of the fit.  A pass runs the points in
    reverse record order, the largest N of an ascending grid first, so the
    smallest N follows the next larger one, not the largest: measured on a
    2-core host in record order, nala_quadratic at N=1024 right after
    N=16384 took 14-17 ms instead of ~6 ms, and the fitted slope fell from
    ~2.0 to 1.72-1.78.  wall_seconds is the median of a point's timed
    runs, on a monotonic clock, with their minimum and interquartile range
    next to it.  Quadratic-memory evaluators are skipped (recorded with
    nan) above quad_cap.  Returns the records plus a slope per evaluator
    fitted over its measured points.  n_grid must be non-empty, with
    positive, distinct sizes in any order: a repeated N would fit a slope
    through points that share one log N.
    """
    ids = list(evaluator_ids) if evaluator_ids is not None else list(EVALUATORS)
    unknown = set(ids) - set(EVALUATORS)
    if unknown:
        raise ValueError(f"unknown evaluator ids: {sorted(unknown)}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not n_grid or min(n_grid) < 1 or len(set(n_grid)) != len(n_grid):
        raise ValueError(f"n_grid must be non-empty, positive and distinct, got {list(n_grid)}")

    instances = [(n, [rng.standard_normal((n, d)) for _ in range(3)]) for n in n_grid]  # Q, K, V
    points = [(evaluator_id, n, qkv) for n, qkv in instances for evaluator_id in ids]
    times = {i: [] for i, (evaluator_id, n, _) in enumerate(points)
             if not (evaluator_id in _QUADRATIC_MEMORY and n > quad_cap)}
    checksums = {}
    for rep in range(-_WARMUPS, reps):  # negative reps are the warmups
        for i in reversed(times):
            evaluator_id, _, qkv = points[i]
            start = time.perf_counter()
            result = EVALUATORS[evaluator_id](*qkv, spec)
            elapsed = time.perf_counter() - start
            checksums[i] = float(result.output.sum())
            if rep >= 0:
                times[i].append(elapsed)

    records: list[BenchRecord] = []
    for i, (evaluator_id, n, _) in enumerate(points):
        if i not in times:
            nan = float("nan")
            records.append(BenchRecord(evaluator_id, n, d, nan, nan, nan, 0, nan))
            continue
        q1, q3 = np.percentile(times[i], [25, 75])
        records.append(
            BenchRecord(
                evaluator_id, n, d, statistics.median(times[i]), min(times[i]),
                float(q3 - q1), reps, checksums[i],
            )
        )

    slopes = {}
    for evaluator_id in ids:
        pts = [(r.n, r.wall_seconds) for r in records
               if r.evaluator_id == evaluator_id and r.reps > 0]
        if len(pts) >= 2:
            slopes[evaluator_id] = fit_loglog_slope(*zip(*pts))
    return records, slopes
