"""Attention evaluators and a gated attention block.

Four evaluators share one contract (rows of Q attend over rows of K/V):

* softmax_attention   - the exp(q.k/sqrt(d)) oracle, max-shifted for stability;
* nala_quadratic      - explicit N x N kernel-similarity matrix, row-normalized;
* nala_linear         - the same kernel attention re-associated so no N x N
                        matrix is formed; O(N) in sequence length;
* nala_causal_recurrent - the causal case, chunkwise: a masked block inside
                        each chunk of _CAUSAL_CHUNK rows plus a running
                        state carried from one chunk to the next.

The quadratic form is the reference: the linear and recurrent forms must
reproduce it to near machine precision, which the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, xlogy

from .errors import DimensionMismatch, ZeroVector
from .kernels import KernelKind, KernelSpec, feature_maps
from .linalg import as_matrix

#: Added to every normalization denominator so an all-zero similarity row
#: yields a near-zero output instead of 0/0.  Below all test tolerances.
DENOM_EPS = 1e-12

_LN_EPS = 1e-6  # layer-norm variance floor


@dataclass
class AttentionResult:
    """Output rows plus, for quadratic evaluators, weights and row entropies."""

    output: np.ndarray
    weights: np.ndarray | None = None
    row_entropy: np.ndarray | None = None


def _check_qkv(Q, K, V):
    Q, K, V = as_matrix(Q), as_matrix(K), as_matrix(V)
    if Q.shape[1] != K.shape[1]:
        raise DimensionMismatch(f"Q cols {Q.shape[1]} != K cols {K.shape[1]}")
    if K.shape[0] != V.shape[0]:
        raise DimensionMismatch(f"K rows {K.shape[0]} != V rows {V.shape[0]}")
    return Q, K, V


_GRAM_BLOCK = 1024

#: Rows per chunk of the causal evaluator.  C=1 is the per-token recurrence
#: and C=N the masked quadratic form.  Of C = 16..256, 64 was the fastest at
#: N=4096, d=32 and within 10% of the fastest (32) at N=512, d=64: smaller
#: chunks pay per-chunk call overhead, larger ones the O(C) in-chunk block
#: per row.
_CAUSAL_CHUNK = 64


def _gram_matrix(A, B):
    """A @ B.T in row blocks into preallocated storage.

    Same product; writing a multi-GB fresh output inside one gemm call is
    page-fault bound, so large instances go row-block by row-block.
    """
    out = np.empty((A.shape[0], B.shape[0]))
    bt = np.ascontiguousarray(B.T)
    for i in range(0, A.shape[0], _GRAM_BLOCK):
        np.matmul(A[i : i + _GRAM_BLOCK], bt, out=out[i : i + _GRAM_BLOCK])
    return out


def row_entropy_nats(weights: np.ndarray, block: int = 2048) -> np.ndarray:
    """Shannon entropy of each row in nats, with the 0*log(0) = 0 convention.

    Blocked so large weight matrices never need a same-sized temporary.
    """
    out = np.empty(weights.shape[0])
    for i in range(0, weights.shape[0], block):
        w = weights[i : i + block]
        out[i : i + block] = -xlogy(w, w).sum(axis=1)
    return out


def softmax_attention(Q, K, V, causal: bool = False) -> AttentionResult:
    """Scaled dot-product attention with max-shifted softmax rows."""
    Q, K, V = _check_qkv(Q, K, V)
    n_q, d = Q.shape
    logits = _gram_matrix(Q, K)
    logits /= np.sqrt(d)  # in place: the N x N array is the memory budget
    if causal:
        logits[~np.tri(n_q, K.shape[0], dtype=bool)] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits, out=logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return AttentionResult(weights @ V, weights, row_entropy_nats(weights))


def nala_quadratic(Q, K, V, spec: KernelSpec, causal: bool = False) -> AttentionResult:
    """Kernel attention through the explicit similarity matrix.

    S[t, i] = map_q(q_t) . map_k(k_i); weights are S row-normalized with an
    epsilon-guarded denominator.  O(N^2) time and memory; this is the oracle
    the O(N) forms are checked against.
    """
    Q, K, V = _check_qkv(Q, K, V)
    map_q, map_k = feature_maps(spec)
    sims = _gram_matrix(map_q(Q), map_k(K))
    if causal:
        sims[~np.tri(Q.shape[0], K.shape[0], dtype=bool)] = 0.0
    weights = np.divide(sims, sims.sum(axis=1, keepdims=True) + DENOM_EPS, out=sims)
    return AttentionResult(weights @ V, weights, row_entropy_nats(weights))


def nala_linear(Q, K, V, spec: KernelSpec) -> AttentionResult:
    """Non-causal kernel attention with the summation order re-associated.

    Aggregates KV = sum_i map_k(k_i) (x) v_i and z = sum_j map_k(k_j) once,
    then reads them per query.  No N x N matrix is formed, so the weights
    field stays empty.  Cost O(N * d' * d_v).
    """
    Q, K, V = _check_qkv(Q, K, V)
    map_q, map_k = feature_maps(spec)
    fq, fk = map_q(Q), map_k(K)
    kv = fk.T @ V
    z = fk.sum(axis=0)
    return AttentionResult((fq @ kv) / (fq @ z + DENOM_EPS)[:, None])


def nala_causal_recurrent(Q, K, V, spec: KernelSpec) -> AttentionResult:
    """Causal kernel attention as a chunkwise left-to-right state recurrence.

    Rows go in chunks of C = _CAUSAL_CHUNK = 64.  Inside a chunk, row t
    reads the earlier chunks through the carried state
    S = sum map_k(k_i) (x) v_i and z = sum map_k(k_i), and the chunk's own
    rows i <= t through a masked C x C similarity block; the chunk is then
    folded into S and z.  O(N) in sequence length for fixed C, with one
    numpy call per chunk instead of per token; 64 balances that call
    overhead against the in-chunk block (see _CAUSAL_CHUNK).  Row t
    reproduces the causal quadratic evaluator's row t.
    """
    Q, K, V = _check_qkv(Q, K, V)
    if Q.shape[0] != K.shape[0]:
        raise DimensionMismatch("causal attention requires one query per key")
    map_q, map_k = feature_maps(spec)
    fq, fk = map_q(Q), map_k(K)
    state = np.zeros((fk.shape[1], V.shape[1]))
    zsum = np.zeros(fk.shape[1])
    out = np.empty((Q.shape[0], V.shape[1]))
    for i in range(0, Q.shape[0], _CAUSAL_CHUNK):
        rows = slice(i, i + _CAUSAL_CHUNK)
        fq_c, fk_c, v_c = fq[rows], fk[rows], V[rows]
        sims = np.tril(fq_c @ fk_c.T)
        num = fq_c @ state + sims @ v_c
        den = fq_c @ zsum + sims.sum(axis=1) + DENOM_EPS
        out[rows] = num / den[:, None]
        state += fk_c.T @ v_c
        zsum += fk_c.sum(axis=0)
    return AttentionResult(out)


def layer_norm(x, gain=1.0, bias=0.0) -> np.ndarray:
    """Rowwise (x - mean) / sqrt(var + 1e-6) * gain + bias, population variance."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS) * gain + bias


def silu(x):
    return x / (1.0 + np.exp(-x))


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


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


def random_block_params(
    rng: np.random.Generator, dim: int, heads: int, std: float = 0.02, ffn_mult: int = 4
) -> BlockParams:
    """Gaussian(0, std) weights, unit gains, zero biases."""
    sq = lambda: std * rng.standard_normal((dim, dim))  # noqa: E731
    return BlockParams(
        w_q=sq(),
        w_k=sq(),
        w_v=sq(),
        w_g=sq(),
        w_o=sq(),
        ffn_w1=std * rng.standard_normal((dim, ffn_mult * dim)),
        ffn_w2=std * rng.standard_normal((ffn_mult * dim, dim)),
        ln1_gain=np.ones(dim),
        ln1_bias=np.zeros(dim),
        ln2_gain=np.ones(dim),
        ln2_bias=np.zeros(dim),
        heads=heads,
    )


def _heads(m: np.ndarray, heads: int):
    width = m.shape[1] // heads
    return [m[:, h * width : (h + 1) * width] for h in range(heads)]


def block_forward(X, params: BlockParams, spec: KernelSpec, causal: bool = False) -> np.ndarray:
    """Forward pass of the gated attention block.

    Pre-norm residual layout: the input is layer-normed, projected to
    Q/K/V/G, attention runs per head (the chunkwise causal form when
    causal, else the linear form), the head concatenation is layer-normed,
    gated with silu(G), projected by w_o, and added back to the input; a
    gelu feed-forward with its own pre-norm forms the second residual
    branch.
    """
    X = as_matrix(X)
    if X.shape[1] != params.dim:
        raise DimensionMismatch(f"input width {X.shape[1]} != block width {params.dim}")
    h = layer_norm(X, params.ln1_gain, params.ln1_bias)
    Q, K, V, G = h @ params.w_q, h @ params.w_k, h @ params.w_v, h @ params.w_g

    if not Q.any() and not K.any():
        # Degenerate projections (e.g. all-zero weights): the kernel has no
        # directions to work with, so the attention branch contributes zero
        # and the block reduces to the identity when w_o/ffn are zero too.
        attn = np.zeros_like(X)
    else:
        if spec.kind is KernelKind.NALA and (
            not np.abs(Q).sum(axis=1).all() or not np.abs(K).sum(axis=1).all()
        ):
            raise ZeroVector("a projected query/key row is exactly zero")
        evaluate = nala_causal_recurrent if causal else nala_linear
        attn = np.concatenate(
            [
                evaluate(qh, kh, vh, spec).output
                for qh, kh, vh in zip(
                    _heads(Q, params.heads),
                    _heads(K, params.heads),
                    _heads(V, params.heads),
                )
            ],
            axis=1,
        )

    gated = layer_norm(attn) * silu(G)
    Y = X + gated @ params.w_o
    Z = Y + gelu(layer_norm(Y, params.ln2_gain, params.ln2_bias) @ params.ffn_w1) @ params.ffn_w2
    return Z
