"""Attention evaluators and a gated attention block.

Four evaluators share one contract (rows of Q attend over rows of K/V):

* softmax_attention   - the exp(q.k/sqrt(d)) oracle, max-shifted for stability;
* nala_quadratic      - explicit N x N kernel-similarity matrix, row-normalized;
* nala_linear         - the same kernel attention re-associated so no N x N
                        matrix is formed; O(N) in sequence length;
* nala_causal_recurrent - the causal case, chunkwise: a masked block inside
                        each chunk of _CAUSAL_CHUNK rows plus a running
                        state carried from one chunk to the next.

The two O(N) forms are one block loop, _stream.  It maps K (and, causally,
Q) one block of rows at a time, so no (N, 2d) feature array is formed, and
folds keys into the running state S = sum map_k(k_i) (x) v_i,
z = sum map_k(k_i) in one place, its fold.  Any block order of the sums is
exact up to summation order (Katharopoulos et al. 2020, arXiv 2006.16236).
Causally, each block runs through _row_tiles, the padded-tile loop of
block_forward's rowwise stages: a tile of _CAUSAL_CHUNK rows reads the
state and its own masked block, then is folded.

All three kernel evaluators normalize through one readout, _readout:
num / den, with a zero denominator (a row whose similarities are all zero)
divided by 1, so that row's output is 0.  Only a true zero is guarded, so
scaling every key by c > 0, which scales num and den alike by c**lambda,
leaves the output unchanged up to rounding.  The non-causal form writes
each query block's numerator into its own output rows and divides them
there; the causal tile passes its fresh tile sums; the quadratic form
passes the similarity matrix and its row sums, so the oracle's weights
leave through the same division.

Each input is checked for NaN and inf once, and the rule is stated here.
The feature maps check Q and K, for every kernel kind: the nala maps
through kernels._norm_direction (linalg.rescale_rows raises NonFinite),
the baseline maps through their own scan.  _check_qkv coerces all three
inputs to float64 and checks their shapes, but scans only V, which no map
reads.  softmax_attention maps nothing, so it scans Q and K itself.

The quadratic form is the reference: the linear and recurrent forms must
reproduce it to near machine precision, which the test suite enforces.

scipy.special is imported by gelu alone, for erf, on its first call, so
`import nala`, the evaluators and row_entropy_nats never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .kernels import _MAP_BLOCK_ELEMS, KernelSpec, feature_maps
from .linalg import as_matrix, rescale_rows

_LN_EPS = 1e-6  # layer-norm variance floor


@dataclass
class AttentionResult:
    """Output rows plus, for quadratic evaluators, the weights (see row_entropy_nats)."""

    output: np.ndarray
    weights: np.ndarray | None = None


def _check_qkv(Q, K, V, causal: bool = False):
    """Q, K and V as float64 matrices of agreeing shapes; NonFinite from V alone.

    The maps check Q and K, so a scan here would read them twice (see the
    module docstring for who checks what).
    """
    Q, K = np.asarray(Q, dtype=np.float64), np.asarray(K, dtype=np.float64)
    for m in (Q, K):
        if m.ndim != 2 or m.size < 1:
            raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    V = as_matrix(V)
    if Q.shape[1] != K.shape[1]:
        raise DimensionMismatch(f"Q cols {Q.shape[1]} != K cols {K.shape[1]}")
    if K.shape[0] != V.shape[0]:
        raise DimensionMismatch(f"K rows {K.shape[0]} != V rows {V.shape[0]}")
    if causal and Q.shape[0] != K.shape[0]:
        raise DimensionMismatch("causal attention requires one query per key")
    return Q, K, V


#: Rows per chunk of the causal evaluator.  C=1 is the per-token recurrence
#: and C=N the masked quadratic form.  Of C = 16..256, 64 was the fastest at
#: N=4096, d=32 and within 10% of the fastest (32) at N=512, d=64: smaller
#: chunks pay per-chunk call overhead, larger ones the O(C) in-chunk block
#: per row.  It also sets the row tile of block_forward's rowwise stages.
_CAUSAL_CHUNK = 64


def row_entropy_nats(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row (last axis) in nats, with the 0*log(0) = 0 convention.

    A zero entry's log is taken of 1, so it adds 0, as _readout guards its
    denominator.  The guard is != 0, not > 0: under > 0 a negative weight
    would drop out of the sum, where here, as with scipy's xlogy, it gives a
    NaN entropy (with numpy's invalid-value warning).  A NaN weight gives
    NaN under either guard, through the product.

    The guarded copy, built with np.where, is logged in place, so the call
    takes one temporary the size of weights.  On a 512 x 128 block (2-core
    x86-64) logging into a fresh array made the call 2.8x slower, and
    np.log's where= gives the same bits through a masked loop that is 1.9x
    slower at 30% zeros.
    """
    logs = np.where(weights != 0, weights, 1.0)
    np.log(logs, out=logs)
    logs *= weights
    return -logs.sum(axis=-1)


def softmax_attention(Q, K, V) -> AttentionResult:
    """Scaled dot-product attention with max-shifted softmax rows."""
    Q, K, V = _check_qkv(Q, K, V)
    if not (np.isfinite(Q).all() and np.isfinite(K).all()):
        raise NonFinite("matrix entries must be finite")
    logits = Q @ K.T
    logits /= np.sqrt(Q.shape[1])  # in place: the N x N array is the memory budget
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits, out=logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return AttentionResult(weights @ V, weights)


def nala_quadratic(Q, K, V, spec: KernelSpec, causal: bool = False) -> AttentionResult:
    """Kernel attention through the explicit similarity matrix.

    S[t, i] = map_q(q_t) . map_k(k_i); weights are S row-normalized by
    _readout, the O(N) forms' readout.  O(N^2) time and memory; this is the
    oracle the O(N) forms are checked against.  Causal mode requires one
    query per key.
    """
    Q, K, V = _check_qkv(Q, K, V, causal)
    map_q, map_k = feature_maps(spec)
    sims = map_q(Q) @ map_k(K).T
    if causal:
        sims[~np.tri(Q.shape[0], K.shape[0], dtype=bool)] = 0.0
    weights = _readout(sims, sims.sum(axis=1))
    return AttentionResult(weights @ V, weights)


def _readout(num, den) -> np.ndarray:
    """num / den row by row, written over num, which is returned.

    num is the caller's to overwrite: the non-causal form's output rows,
    the causal tile's fresh sums or the oracle's similarity matrix.

    A zero denominator is divided as 1, so an all-zero similarity row gives
    a zero output row rather than 0/0.  The guarded denominator is built
    with np.where: np.divide's where= gives the same bits through a slower
    masked loop (1.4x on a 1024 x 32 block, 2-core x86-64).
    """
    return np.divide(num, np.where(den > 0, den, 1.0)[:, None], out=num)


def _stream(Q, K, V, spec: KernelSpec, causal: bool) -> AttentionResult:
    """The block loop of both O(N) evaluators, on _check_qkv's arrays.

    Blocks hold max(1, _MAP_BLOCK_ELEMS // d) rows, one chunk of the map
    driver, so each map call works on cache-sized arrays.  fold adds keys
    to the running state (S, z).  Non-causal: every key block is folded,
    then every query block is mapped, and its numerator is written into
    its own output rows and divided there.  Causal: each block maps
    its queries and keys once and runs them through _row_tiles; each tile
    reads the state plus its own masked block, then is folded.  A causal
    block holds whole _CAUSAL_CHUNK-row tiles, so the tiles, and the
    output, do not depend on the block size.
    """
    map_q, map_k = feature_maps(spec)
    rows = max(1, _MAP_BLOCK_ELEMS // Q.shape[1])
    rows = max(_CAUSAL_CHUNK, rows - rows % _CAUSAL_CHUNK) if causal else rows
    out = np.empty((Q.shape[0], V.shape[1]))
    state = zsum = None

    def fold(fk, v):
        nonlocal state, zsum
        state += fk.T @ v
        # row by row, as fk.sum(axis=0) adds two or more columns, in half
        # its time (21 vs 41 us on a 1024 x 64 block, 2-core x86-64); one
        # column, which sum adds pairwise, can differ in the last bit
        zsum += np.einsum("ij->j", fk)

    def tile(fq, fk, v):
        sims = np.tril(fq @ fk.T)
        read = _readout(fq @ state + sims @ v, fq @ zsum + sims.sum(axis=1))
        fold(fk, v)
        return read

    for i in range(0, K.shape[0], rows):
        fk, v = map_k(K[i : i + rows]), V[i : i + rows]
        if state is None:
            state, zsum = np.zeros((fk.shape[1], v.shape[1])), np.zeros(fk.shape[1])
        if causal:
            out[i : i + rows] = _row_tiles(tile, V.shape[1], map_q(Q[i : i + rows]), fk, v)
        else:
            fold(fk, v)
    if not causal:
        for i in range(0, Q.shape[0], rows):
            fq = map_q(Q[i : i + rows])
            _readout(np.matmul(fq, state, out=out[i : i + rows]), fq @ zsum)
    return AttentionResult(out)


def nala_linear(Q, K, V, spec: KernelSpec) -> AttentionResult:
    """Non-causal kernel attention with the summation order re-associated.

    Folds KV = sum_i map_k(k_i) (x) v_i and z = sum_j map_k(k_j) one key
    block at a time, then maps each query block and reads it out as
    (map_q(q) . KV) / (map_q(q) . z) through _readout.  No N x N matrix and no
    whole (N, 2d) feature array is formed, so the weights field stays
    empty.  Cost O(N * d' * d_v); see _stream for the blocks.
    """
    Q, K, V = _check_qkv(Q, K, V)
    return _stream(Q, K, V, spec, causal=False)


def nala_causal_recurrent(Q, K, V, spec: KernelSpec) -> AttentionResult:
    """Causal kernel attention as a chunkwise left-to-right state recurrence.

    Rows go in chunks of C = _CAUSAL_CHUNK = 64, mapped one block of whole
    chunks at a time.  Inside a chunk, row t reads the earlier chunks
    through the carried state S = sum map_k(k_i) (x) v_i and
    z = sum map_k(k_i), and the chunk's own rows i <= t through a masked
    C x C similarity block; the chunk is then folded into S and z.  O(N) in
    sequence length for fixed C, with one numpy call per chunk instead of
    per token; 64 balances that call overhead against the in-chunk block
    (see _CAUSAL_CHUNK).  Row t reproduces the causal quadratic evaluator's
    row t.
    """
    Q, K, V = _check_qkv(Q, K, V, causal=True)
    return _stream(Q, K, V, spec, causal=True)


def layer_norm(x, gain=1.0, bias=0.0) -> np.ndarray:
    """Rowwise (x - mean) / sqrt(var + 1e-6) * gain + bias, population variance.

    The rows are centered once, and the variance is the mean square of the
    centered rows: the arithmetic of np.var, without its second mean.  A
    row whose variance overflows is rescaled by linalg.rescale_rows, an
    exact power of two, with the 1e-6 scaled to match; NaN or inf raises
    NonFinite.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rescaled below
        c, var = _centered(x)
    e = 0
    overflow = ~np.isfinite(var)
    if overflow.any():
        x, e = rescale_rows(x, overflow)
        c, var = _centered(x)
    return c / np.sqrt(var + np.ldexp(_LN_EPS, -2 * e)) * gain + bias


def _centered(x):
    """x minus its row means, and the rows' population variances."""
    c = x - x.mean(axis=-1, keepdims=True)
    return c, (c * c).sum(axis=-1, keepdims=True) / x.shape[-1]


def silu(x):
    return x / (1.0 + np.exp(-x))


def gelu(x):
    """Exact erf gelu, 0.5 * x * (1 + erf(x / sqrt 2)); erf and the rest run in place."""
    # imported here, not at module level: scipy.special takes ~0.3 s to import
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    half = 0.5 * x
    # out= keeps a 0-d input an array, so erf can write into it
    y = np.divide(x, np.sqrt(2.0), out=np.empty_like(x))
    erf(y, out=y)
    y += 1.0
    y *= half
    return y


@dataclass
class BlockParams:
    """Weights of one gated attention block over model width dim = heads * head width."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_g: np.ndarray
    w_o: np.ndarray
    ffn_w1: np.ndarray
    ffn_w2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    heads: int = 1

    def __post_init__(self):
        dim = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_g", "w_o"):
            setattr(self, name, as_matrix(getattr(self, name), dim, dim))
        self.ffn_w1 = as_matrix(self.ffn_w1, dim, None)
        self.ffn_w2 = as_matrix(self.ffn_w2, self.ffn_w1.shape[1], dim)
        if self.heads < 1 or dim % self.heads:
            raise DimensionMismatch(
                f"width {dim} not divisible into {self.heads} heads"
            )

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


_INIT_STD = 0.02  # weight scale of random_block_params
_FFN_MULT = 4  # feed-forward width over model width


def random_block_params(rng: np.random.Generator, dim: int, heads: int) -> BlockParams:
    """Gaussian(0, _INIT_STD) weights, unit gains, zero biases."""
    sq = lambda: _INIT_STD * rng.standard_normal((dim, dim))  # noqa: E731
    return BlockParams(
        w_q=sq(),
        w_k=sq(),
        w_v=sq(),
        w_g=sq(),
        w_o=sq(),
        ffn_w1=_INIT_STD * rng.standard_normal((dim, _FFN_MULT * dim)),
        ffn_w2=_INIT_STD * rng.standard_normal((_FFN_MULT * dim, dim)),
        ln1_gain=np.ones(dim),
        ln1_bias=np.zeros(dim),
        ln2_gain=np.ones(dim),
        ln2_bias=np.zeros(dim),
        heads=heads,
    )


def block_forward(X, params: BlockParams, spec: KernelSpec, causal: bool = False) -> np.ndarray:
    """Forward pass of the gated attention block.

    Pre-norm residual layout: the input is layer-normed, projected to
    Q/K/V/G, attention runs per head (the chunkwise causal form when
    causal, else the linear form), the head concatenation is layer-normed,
    gated with silu(G), projected by w_o, and added back to the input; a
    gelu feed-forward with its own pre-norm forms the second residual
    branch.  A zero query or key row, such as a constant input row
    layer-normed to a zero bias, follows the zero-row rule of nala.kernels.

    Attention runs over the whole sequence; every other stage is rowwise
    and runs in tiles of _CAUSAL_CHUNK rows (_row_tiles), one gemm against
    [w_q | w_k | w_v | w_g] per tile for the projections.  The last tile
    is zero-padded to the full tile, so every tile's gemms run at one
    shape: a causal row's bytes do not depend on how many rows follow it,
    and the feed-forward temporaries are one tile's, whatever N is.  A
    block of N <= 64 rows does a full tile's rowwise work.
    """
    X = as_matrix(X)
    if X.shape[1] != params.dim:
        raise DimensionMismatch(f"input width {X.shape[1]} != block width {params.dim}")
    w_in = np.concatenate([params.w_q, params.w_k, params.w_v, params.w_g], axis=1)

    def project(x):
        return layer_norm(x, params.ln1_gain, params.ln1_bias) @ w_in

    Q, K, V, G = np.split(_row_tiles(project, w_in.shape[1], X), 4, axis=1)

    evaluate = nala_causal_recurrent if causal else nala_linear
    attn = np.concatenate(
        [
            evaluate(qh, kh, vh, spec).output
            for qh, kh, vh in zip(
                np.split(Q, params.heads, axis=1),
                np.split(K, params.heads, axis=1),
                np.split(V, params.heads, axis=1),
            )
        ],
        axis=1,
    )

    def tail(x, a, g):
        y = x + (layer_norm(a) * silu(g)) @ params.w_o
        f = layer_norm(y, params.ln2_gain, params.ln2_bias) @ params.ffn_w1
        return y + gelu(f) @ params.ffn_w2

    return _row_tiles(tail, params.dim, X, attn, G)


def _row_tiles(f, cols, *arrays) -> np.ndarray:
    """f over _CAUSAL_CHUNK-row tiles of the (n, .) arrays, into one (n, cols) output.

    f takes one tile of each array, in order, and returns that tile's rows;
    row t of f's output must depend on no row after t, as for a rowwise f
    (block_forward's stages) or a causal one (_stream's tiles).  The last
    tile, if partial, is zero-padded to the full tile and its pad rows are
    dropped, so the pad changes no real row, and every tile runs its gemms
    and row sums at one shape: row t's bytes do not depend on how many rows
    follow it.  _stream's tile also folds the pad rows into its state.
    That is harmless: zero features add nothing to a sum (nala.kernels),
    and since its blocks hold whole tiles, the padded tile is the
    sequence's last, after which the state is not read.
    """
    n = arrays[0].shape[0]
    out = np.empty((n, cols))
    for i in range(0, n, _CAUSAL_CHUNK):
        tile = [a[i : i + _CAUSAL_CHUNK] for a in arrays]
        filled = tile[0].shape[0]
        if filled < _CAUSAL_CHUNK:
            tile = [np.pad(a, ((0, _CAUSAL_CHUNK - filled), (0, 0))) for a in tile]
        out[i : i + filled] = f(*tile)[:filled]
    return out
