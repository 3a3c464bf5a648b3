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

The sweeps stack all their scaled query rows into one matrix and evaluate
it with one quadratic evaluator call per kernel, so the shared key set is
validated and mapped (phi_k(K)) once per kernel rather than once per row.
The price is memory: the call holds n_dirs * len(c_grid) x N weights.
norm_entropy_sweep returns each kernel's entropies as one (n_dirs,
len(c_grid)) array, direction by scale, which nala.checks.norm_response
judges; norm_entropy_experiment's EntropyScanRecord list is the flat view
of the same arrays, for CSV output.
In the same way, pse_of_exp and theorem1_scan take an (m, N) stack of
exponential rows and scan all of them over the scale grid in one call,
and concavity_probe probes every coordinate of an (m, N) stack in one
pse call per side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import nala_quadratic, row_entropy_nats, softmax_attention
from .errors import DegenerateSequence, InvalidPerturbation, NonPositiveSum
from .kernels import KernelSpec
from .linalg import as_rows, rescale_rows

#: Pseudo-kernel id used when a scan includes the softmax oracle.
SOFTMAX_ID = "softmax"


def pse(values) -> float | np.ndarray:
    """Entropy in nats of a nonnegative sequence normalized by its sum.

    Reduces over the last axis: a 1-D sequence gives a float, an (m, N)
    array gives m entropies, one per row.  Entries must be finite
    (NonFinite) and nonnegative (ValueError), and every row must have a
    positive sum.  Each row is first rescaled by linalg.rescale_rows, an
    exact power of two, so the sum cannot overflow.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D sequence or a 2-D array of rows, got shape {x.shape}")
    scaled, _ = rescale_rows(x)
    # signs are read from x: the rescale can flush a tiny negative entry to -0.0
    if np.any(x < 0):
        raise ValueError("sequence entries must be nonnegative")
    s = scaled.sum(axis=-1, keepdims=True)
    if not np.all(s > 0):
        raise NonPositiveSum("all entries are zero; entropy is undefined")
    h = row_entropy_nats(scaled / s)
    return float(h) if x.ndim == 1 else h


def pse_of_exp(x, c) -> float | np.ndarray:
    """Entropy of the softmax of c*x, computed in shifted (stable) form.

    Equals pse(exp(c*x)) but never overflows: with z = c*(x - max(x)),
    H = logsumexp(z) - sum_i p_i z_i.  z is clamped at -750, where exp
    already underflows to 0, so no 0 * (-inf) term enters the sum.  Scales
    must be finite and nonnegative.  x is one row or an (m, N) stack of
    rows, each shifted by its own maximum; c is a scalar or a 1-D grid.
    The result has shape x.shape[:-1] + c.shape, from one
    (m, len(c), N) array for a stack and a grid; one row at one scale
    gives a float.
    """
    x = as_rows(x)
    c = np.asarray(c, dtype=np.float64)
    if not np.all((c >= 0) & (c < np.inf)):
        raise ValueError("scales must be finite and nonnegative")
    shifted = x - x.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # a product that overflows to -inf is clamped
        z = c[..., None] * shifted.reshape(x.shape[:-1] + (1,) * c.ndim + x.shape[-1:])
    np.maximum(z, -750.0, out=z)
    w = np.exp(z)
    s = w.sum(axis=-1)
    h = np.log(s) - np.einsum("...i,...i->...", w, z) / s
    return float(h) if h.ndim == 0 else h


@dataclass
class Theorem1Scan:
    """Entropy-vs-scale scan of an exponential row, or of a stack of rows.

    For one row the fields are an int, a (len(c_grid),) array and two
    bools; for an (m, N) stack they are arrays with a leading m axis.
    """

    c0_index: int | np.ndarray
    entropies: np.ndarray
    monotone_after: bool | np.ndarray
    tied_max: bool | np.ndarray


def theorem1_scan(x, c_grid) -> Theorem1Scan:
    """Scan pse_of_exp(x, c) over an increasing positive grid of scales.

    x is one row or an (m, N) stack of rows; the whole scan is one
    pse_of_exp call on an (m, len(c_grid), N) array, and each row of a
    stack gets the fields of its own one-row scan.

    c0_index is the start of the longest strictly decreasing suffix of the
    entropy sequence; monotone_after reports whether such a suffix exists
    (at least one decreasing step reaching the end of the grid).  Constant
    rows are rejected: their entropy is ln N at every scale, so no
    threshold exists.  A tied (non-unique) maximum is flagged but scanned.
    """
    x = as_rows(x)
    c = np.asarray(c_grid, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("c_grid must hold at least two scales")
    if not (np.all(np.diff(c) > 0) and c[0] > 0):
        raise ValueError("c_grid must be strictly increasing and positive")
    if np.all(x == x[..., :1], axis=-1).any():
        raise DegenerateSequence("constant sequence: entropy is ln N at every scale")
    tied = (x == x.max(axis=-1, keepdims=True)).sum(axis=-1) > 1

    ents = pse_of_exp(x, c)
    decreasing = ents[..., :-1] > ents[..., 1:]
    # length of the trailing run of decreasing steps
    run = np.logical_and.accumulate(decreasing[..., ::-1], axis=-1).sum(axis=-1)
    c0 = c.size - 1 - run
    if x.ndim == 1:
        return Theorem1Scan(int(c0), ents, bool(run > 0), bool(tied))
    return Theorem1Scan(c0, ents, run > 0, tied)


def _positive_scales(c_grid) -> np.ndarray:
    """c_grid as float64; ValueError unless every scale is finite and positive."""
    c = np.asarray(c_grid, dtype=np.float64)
    if not np.all((c > 0) & (c < np.inf)):
        raise ValueError("scales must be finite and positive")
    return c


def _row_entropies(Q, K, spec: KernelSpec | None) -> np.ndarray:
    """Entropies of the attention rows of every row of Q over key set K.

    One quadratic evaluator call (softmax when spec is None), so the keys
    are validated and mapped once however many query rows there are.
    Memory is len(Q) x len(K) floats for the weights.
    """
    V = np.zeros((np.shape(K)[0], 1))
    if spec is None:
        result = softmax_attention(Q, K, V)
    else:
        result = nala_quadratic(Q, K, V, spec)
    return row_entropy_nats(result.weights)


def attention_row_entropy(query, K, spec: KernelSpec | None) -> float:
    """Entropy of one attention row of `query` over key set K.

    spec selects the kernel; None selects the softmax oracle.  Rows come
    from the explicit-weights (quadratic) evaluator, the only form that
    materializes them.  This is the one-row case of the sweeps below,
    which evaluate many rows in one call; calling it per row re-maps K
    every time.
    """
    return float(_row_entropies(np.asarray(query)[None, :], K, spec)[0])


def entropy_deviation_scan(q_dir, K, spec: KernelSpec | None, c_grid) -> tuple[np.ndarray, float]:
    """Entropies of the rows c * q_dir over K for each scale c, plus their spread.

    Returns (entropies, max - min).  The spread is the scale sensitivity of
    the kernel's attention row for this direction: zero up to roundoff for
    positively homogeneous kernels, positive for norm-aware ones.  All the
    scaled rows go through one evaluator call, so K is mapped once; memory
    is len(c_grid) x N floats.
    """
    u = np.asarray(q_dir, dtype=np.float64)
    c = _positive_scales(c_grid)
    ents = _row_entropies(c[:, None] * u, K, spec)
    return ents, float(ents.max() - ents.min())


def norm_entropy_sweep(
    rng: np.random.Generator, spec_list: list[KernelSpec], n_dirs: int, N: int, d: int, c_grid,
    softmax_too: bool = False,
) -> dict[str, np.ndarray]:
    """Entropies of the rows c * u over one key set, as one (n_dirs, len(c_grid)) array per kernel.

    Draws one Gaussian key set K (N x d), then n_dirs unit query
    directions u.  Row i of a kernel's array is direction i, column j the
    scale c_grid[j].  The arrays are keyed by kernel id, in spec_list order,
    then SOFTMAX_ID for the softmax oracle when softmax_too; the kinds in
    spec_list must be distinct.  Each kernel pass is one evaluator call on
    all n_dirs * len(c_grid) rows, so phi_k(K) is mapped once per pass and
    the call holds n_dirs * len(c_grid) x N weights.
    """
    if N < 4 or d < 2:
        raise ValueError("experiment needs N >= 4 keys and d >= 2 dimensions")
    c = _positive_scales(c_grid)
    passes = [(spec.kind.value, spec) for spec in spec_list]
    if softmax_too:
        passes.append((SOFTMAX_ID, None))
    if len({kernel_id for kernel_id, _ in passes}) < len(passes):
        raise ValueError("kernel kinds must be distinct: the sweep keys its arrays by kernel id")
    K = rng.standard_normal((N, d))
    dirs = rng.standard_normal((n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Direction-major rows: row i is c[i % len(c)] * dirs[i // len(c)].
    Q = (dirs[:, None, :] * c[:, None]).reshape(-1, d)
    return {kernel_id: _row_entropies(Q, K, spec).reshape(n_dirs, c.size)
            for kernel_id, spec in passes}


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
    rng: np.random.Generator, spec_list: list[KernelSpec], n_dirs: int, N: int, d: int, c_grid,
    softmax_too: bool = False,
) -> tuple[list[EntropyScanRecord], dict[str, float]]:
    """norm_entropy_sweep's entropies as records, plus each kernel's pooled Pearson.

    One EntropyScanRecord per (kernel, direction, scale) triple, in that
    order: the sweep's arrays flattened row by row.  The correlations are,
    per kernel id, the Pearson correlation between query norm and entropy
    across all of that kernel's records (nan when the entropies do not
    vary).

    The pooled correlation mixes two things: the response of each
    direction's entropy to the norm, and the offsets between directions'
    mean entropies.  Where the offsets are as large as the per-direction
    response (the norm-aware kernel at the default sweep), it is weak even
    though every direction's curve is strictly decreasing;
    nala.checks.norm_response judges the norm response per direction.
    """
    sweep = norm_entropy_sweep(rng, spec_list, n_dirs, N, d, c_grid, softmax_too)
    c = np.asarray(c_grid, dtype=np.float64)
    norms = np.tile(c, n_dirs)
    norm_list, dir_ids = norms.tolist(), np.repeat(np.arange(n_dirs), c.size).tolist()
    records: list[EntropyScanRecord] = []
    correlations: dict[str, float] = {}
    for kernel_id, ents in sweep.items():
        ents = ents.ravel()
        records.extend(
            EntropyScanRecord(kernel_id, norm, H, i)
            for norm, H, i in zip(norm_list, ents.tolist(), dir_ids)
        )
        correlations[kernel_id] = pearson(norms, ents)
    return records, correlations


def concavity_probe(x, index, h_grid) -> np.ndarray:
    """Central second differences of pse along coordinate `index`.

    Returns [pse(x + h e) - 2 pse(x) + pse(x - h e)] / h^2 for each step h.
    `index` is an int, giving one value per step, or a sequence of
    coordinates, giving a (len(index), len(h_grid)) array with one row per
    coordinate.  x is one row or an (m, N) stack of rows, which adds a
    leading m axis to the result; all perturbed points of all rows go
    through one row-wise pse call per side.  Steps that would push a
    coordinate to zero or below are rejected; the entropy's derivative is
    unbounded there and the difference would be meaningless.
    """
    x = as_rows(x)
    coords = np.atleast_1d(np.asarray(index))
    h = np.asarray(h_grid, dtype=np.float64)
    at = x[..., coords]
    nonpositive = at <= 0
    if nonpositive.any():
        raise InvalidPerturbation(f"coordinate {coords[np.argwhere(nonpositive)[0][-1]]} "
                                  "must be positive")
    outside = ~((0 < h) & (h < at[..., None]))
    if outside.any():
        *_, i, j = np.argwhere(outside)[0]
        raise InvalidPerturbation(
            f"step {h[j]} leaves the positive domain at coordinate {coords[i]}"
        )
    base = np.asarray(pse(x))[..., None, None]
    n = x.shape[-1]
    e = np.zeros((coords.size, h.size, n))
    e[np.arange(coords.size), :, coords] = h
    rows = x[..., None, None, :]
    plus = pse((rows + e).reshape(-1, n)).reshape(base.shape[:-2] + e.shape[:2])
    minus = pse((rows - e).reshape(-1, n)).reshape(plus.shape)
    out = (plus - 2.0 * base + minus) / h**2
    return out[..., 0, :] if np.ndim(index) == 0 else out
