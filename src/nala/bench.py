"""Wall-clock scaling of the attention evaluators.

Times each evaluator on one shared random instance per sequence length,
reports the median, minimum and interquartile range of several runs after
_WARMUPS untimed ones, and fits a log-log slope per evaluator to the
medians.  The O(N^2) evaluators should fit a slope near 2, the
re-associated and recurrent forms near 1.  Checksums (sum of output
entries) are carried along both to defeat dead-code elimination and to
confirm that the timed paths agree numerically.
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

#: Untimed runs per (evaluator, N) before the timed ones, so first-call
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

    Each N gets one random (Q, K, V) instance shared by every evaluator.
    wall_seconds is the median of `reps` timed runs after _WARMUPS untimed
    runs, on a monotonic clock, with the runs' minimum and interquartile
    range next to it.  Quadratic-memory evaluators are skipped (recorded
    with nan) above quad_cap.  Returns the records plus a slope
    per evaluator fitted over its measured points.
    """
    ids = list(evaluator_ids) if evaluator_ids is not None else list(EVALUATORS)
    unknown = set(ids) - set(EVALUATORS)
    if unknown:
        raise ValueError(f"unknown evaluator ids: {sorted(unknown)}")
    if reps < 1:
        raise ValueError("reps must be at least 1")

    records: list[BenchRecord] = []
    for n in n_grid:
        Q = rng.standard_normal((n, d))
        K = rng.standard_normal((n, d))
        V = rng.standard_normal((n, d))
        for evaluator_id in ids:
            if evaluator_id in _QUADRATIC_MEMORY and n > quad_cap:
                nan = float("nan")
                records.append(BenchRecord(evaluator_id, n, d, nan, nan, nan, 0, nan))
                continue
            fn = EVALUATORS[evaluator_id]
            checksum = 0.0
            for _ in range(_WARMUPS):
                checksum = float(fn(Q, K, V, spec).output.sum())
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                result = fn(Q, K, V, spec)
                times.append(time.perf_counter() - start)
                checksum = float(result.output.sum())
            q1, q3 = np.percentile(times, [25, 75])
            records.append(
                BenchRecord(
                    evaluator_id, n, d, statistics.median(times), min(times),
                    float(q3 - q1), reps, checksum,
                )
            )

    slopes = {}
    for evaluator_id in ids:
        pts = [(r.n, r.wall_seconds) for r in records
               if r.evaluator_id == evaluator_id and r.reps > 0]
        if len(pts) >= 2:
            slopes[evaluator_id] = fit_loglog_slope(*zip(*pts))
    return records, slopes
