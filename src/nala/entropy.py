"""Entropy of positive sequences and norm-sweep experiments.

The central quantity is the entropy of a nonnegative sequence after
normalizing by its sum,

    H(x) = -sum_i (x_i / s) * ln(x_i / s),   s = sum_i x_i,

with the 0 * ln(0) = 0 convention and natural logarithms throughout, so
H ranges over [0, ln N].  Applied to a row of attention similarities it
measures how concentrated that row is without requiring an explicit
normalization step.

The scan routines probe how H responds to scaling the query:

* exponential rows (softmax logits) sharpen monotonically once the scale
  passes a threshold;
* positively homogeneous kernel rows (relu, fixed powers) are provably
  scale-invariant - the scale cancels in the normalization;
* the norm-aware kernel sits in between by construction: its query
  exponent couples the row's entropy to the query norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .attention import nala_quadratic, softmax_attention
from .errors import (
    DegenerateSequence,
    InvalidPerturbation,
    NonPositiveSum,
    WrongKernel,
)
from .kernels import HOMOGENEOUS_KINDS, KernelSpec

#: Pseudo-kernel id used when a scan includes the softmax oracle.
SOFTMAX_ID = "softmax"


def pse(values) -> float:
    """Entropy in nats of a nonnegative sequence normalized by its sum."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {x.shape}")
    if np.any(x < 0):
        raise ValueError("sequence entries must be nonnegative")
    s = x.sum()
    if not s > 0:
        raise NonPositiveSum("all entries are zero; entropy is undefined")
    p = x / s
    return float(-xlogy(p, p).sum())


def pse_of_exp(x, c: float) -> float:
    """Entropy of the softmax of c*x, computed in shifted (stable) form.

    Equals pse(exp(c*x)) but never overflows: with z = c*x - max(c*x),
    H = logsumexp(z) - sum_i p_i z_i.
    """
    z = c * np.asarray(x, dtype=np.float64)
    z -= z.max()
    w = np.exp(z)
    s = w.sum()
    return float(np.log(s) - (w @ z) / s)


@dataclass
class Theorem1Scan:
    """Entropy-vs-scale scan of an exponential row."""

    c0_index: int
    entropies: np.ndarray
    monotone_after: bool
    tied_max: bool


def theorem1_scan(x, c_grid) -> Theorem1Scan:
    """Scan pse_of_exp(x, c) over an increasing positive grid of scales.

    c0_index is the start of the longest strictly decreasing suffix of the
    entropy sequence; monotone_after reports whether such a suffix exists
    (at least one decreasing step reaching the end of the grid).  Constant
    sequences are rejected: their entropy is ln N at every scale, so no
    threshold exists.  A tied (non-unique) maximum is flagged but scanned.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c_grid, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("c_grid must hold at least two scales")
    if not (np.all(np.diff(c) > 0) and c[0] > 0):
        raise ValueError("c_grid must be strictly increasing and positive")
    if np.all(x == x[0]):
        raise DegenerateSequence("constant sequence: entropy is ln N at every scale")
    tied = int((x == x.max()).sum()) > 1

    ents = np.array([pse_of_exp(x, ci) for ci in c])
    i = ents.size - 1
    while i > 0 and ents[i - 1] > ents[i]:
        i -= 1
    return Theorem1Scan(i, ents, i <= ents.size - 2, tied)


def attention_row_entropy(query, K, spec: KernelSpec | None) -> float:
    """Entropy of one attention row of `query` over key set K.

    spec selects the kernel; None selects the softmax oracle.  Rows come
    from the explicit-weights (quadratic) evaluator, the only form that
    materializes them.
    """
    K = np.asarray(K, dtype=np.float64)
    Q = np.asarray(query, dtype=np.float64)[None, :]
    V = np.zeros((K.shape[0], 1))
    if spec is None:
        result = softmax_attention(Q, K, V)
    else:
        result = nala_quadratic(Q, K, V, spec)
    return float(result.row_entropy[0])


def entropy_deviation_scan(q_dir, K, spec: KernelSpec | None, c_grid) -> tuple[np.ndarray, float]:
    """Entropies of the rows c * q_dir over K for each scale c, plus their spread.

    Returns (entropies, max - min).  The spread is the scale sensitivity of
    the kernel's attention row for this direction: zero up to roundoff for
    positively homogeneous kernels, positive for norm-aware ones.
    """
    u = np.asarray(q_dir, dtype=np.float64)
    ents = np.array([attention_row_entropy(c * u, K, spec) for c in np.asarray(c_grid)])
    return ents, float(ents.max() - ents.min())


def prop2_invariance_check(q_dir, K, spec: KernelSpec, c_grid) -> float:
    """Max entropy deviation across a query-scale sweep for a homogeneous kernel.

    Only positively homogeneous kinds are admitted: for them the scale
    factors out of every similarity and cancels in the row normalization,
    so the returned deviation is zero up to roundoff.  Other kinds are
    rejected; sweep those with entropy_deviation_scan and observe that the
    deviation is genuinely nonzero.
    """
    if spec.kind not in HOMOGENEOUS_KINDS:
        raise WrongKernel(
            f"scale invariance holds only for homogeneous kernels, got {spec.kind.value}"
        )
    _, deviation = entropy_deviation_scan(q_dir, K, spec, c_grid)
    return deviation


@dataclass
class EntropyScanRecord:
    """One (kernel, query norm, entropy) sample of a norm sweep."""

    kernel_id: str
    query_norm: float
    entropy: float
    direction_id: int


#: Relative spread at or below which pearson treats a side as constant.
_FLAT_RTOL = 1e-9


def pearson(xs, ys) -> float:
    """Pearson correlation; nan when either side is constant to within roundoff.

    A side counts as constant when its std is at most _FLAT_RTOL times its
    largest magnitude: roundoff jitter on a flat curve (relative ~1e-13)
    would otherwise correlate with anything.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    sx, sy = x.std(), y.std()
    if sx <= _FLAT_RTOL * np.abs(x).max() or sy <= _FLAT_RTOL * np.abs(y).max():
        return float("nan")
    return float(((x - x.mean()) @ (y - y.mean())) / (x.size * sx * sy))


def norm_entropy_experiment(
    rng: np.random.Generator,
    spec_list: list[KernelSpec],
    n_dirs: int,
    N: int,
    d: int,
    c_grid,
    softmax_too: bool = False,
) -> tuple[list[EntropyScanRecord], dict[str, float]]:
    """Entropy-vs-query-norm sweep over random directions and a fixed key set.

    Draws one Gaussian key set K (N x d) and n_dirs unit query directions,
    then records the attention-row entropy of c * u over K for every
    (kernel, direction, scale) triple, kernel-major.  Returns the records
    and, per kernel id, the Pearson correlation between query norm and
    entropy across all of that kernel's records (nan when the entropies do
    not vary).

    The pooled correlation mixes two things: the response of each
    direction's entropy to the norm, and the offsets between directions'
    mean entropies.  Where the offsets are as large as the per-direction
    response (the norm-aware kernel at the default sweep), it is weak even
    though every direction's curve is strictly decreasing; judge the norm
    response per direction from the records.
    """
    if N < 4 or d < 2:
        raise ValueError("experiment needs N >= 4 keys and d >= 2 dimensions")
    K = rng.standard_normal((N, d))
    dirs = rng.standard_normal((n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    c_grid = np.asarray(c_grid, dtype=np.float64)

    passes: list[tuple[str, KernelSpec | None]] = [
        (spec.kind.value, spec) for spec in spec_list
    ]
    if softmax_too:
        passes.append((SOFTMAX_ID, None))

    records: list[EntropyScanRecord] = []
    correlations: dict[str, float] = {}
    for kernel_id, spec in passes:
        norms, ents = [], []
        for dir_id in range(n_dirs):
            row_ents, _ = entropy_deviation_scan(dirs[dir_id], K, spec, c_grid)
            for c, H in zip(c_grid, row_ents):
                records.append(EntropyScanRecord(kernel_id, float(c), float(H), dir_id))
            norms.extend(c_grid)
            ents.extend(row_ents)
        correlations[kernel_id] = pearson(norms, ents)
    return records, correlations


def concavity_probe(x, index: int, h_grid) -> np.ndarray:
    """Central second differences of pse along coordinate `index`.

    Returns [pse(x + h e) - 2 pse(x) + pse(x - h e)] / h^2 for each step h.
    Steps that would push the coordinate to zero or below are rejected; the
    entropy's derivative is unbounded there and the difference would be
    meaningless.
    """
    x = np.asarray(x, dtype=np.float64)
    if not x[index] > 0:
        raise InvalidPerturbation(f"coordinate {index} must be positive")
    base = pse(x)
    out = []
    for h in np.asarray(h_grid, dtype=np.float64):
        if not 0 < h < x[index]:
            raise InvalidPerturbation(
                f"step {h} leaves the positive domain at coordinate {index}"
            )
        e = np.zeros_like(x)
        e[index] = h
        out.append((pse(x + e) - 2.0 * base + pse(x - e)) / h**2)
    return np.array(out)
