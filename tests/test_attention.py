"""Tests for the attention evaluators and the gated block."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nala.attention import (
    _CAUSAL_CHUNK as C,
    BlockParams,
    block_forward,
    gelu,
    layer_norm,
    nala_causal_recurrent,
    nala_linear,
    nala_quadratic,
    random_block_params,
    silu,
    softmax_attention,
)
from nala.cli import max_rel_dev
from nala.errors import DimensionMismatch, ZeroVector
from nala.kernels import KernelKind, KernelSpec
from nala.linalg import make_rng


def naive_softmax_weights(Q, K):
    """Two-loop exp/sum reference, no shifting."""
    n, d = Q.shape
    m = K.shape[0]
    w = np.zeros((n, m))
    for t in range(n):
        for i in range(m):
            w[t, i] = math.exp(float(Q[t] @ K[i]) / math.sqrt(d))
        w[t] /= w[t].sum()
    return w


def zeroed(params: BlockParams) -> BlockParams:
    """Copy of params with every weight matrix zeroed, gains/biases kept."""
    kwargs = {}
    for f in dataclasses.fields(params):
        v = getattr(params, f.name)
        if f.name.startswith(("w_", "ffn_")):
            v = np.zeros_like(v)
        kwargs[f.name] = v
    return BlockParams(**kwargs)


class TestSoftmaxAttention:
    def test_single_key_returns_value_exactly(self):
        rng = make_rng(0)
        Q, K, V = rng.standard_normal((3, 1, 4))
        r = softmax_attention(Q[:1], K, V)
        np.testing.assert_array_equal(r.output, V)
        assert r.row_entropy[0] == 0.0

    def test_identical_keys_give_uniform_weights(self):
        rng = make_rng(1)
        n, d = 6, 4
        K = np.tile(rng.standard_normal(d), (n, 1))
        Q = rng.standard_normal((n, d))
        V = rng.standard_normal((n, 3))
        r = softmax_attention(Q, K, V)
        np.testing.assert_allclose(r.weights, 1.0 / n, atol=1e-14)
        np.testing.assert_allclose(r.output, np.tile(V.mean(0), (n, 1)), atol=1e-13)
        np.testing.assert_allclose(r.row_entropy, math.log(n), atol=1e-12)

    def test_matches_naive_two_loop_oracle(self):
        rng = make_rng(2)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 5))
        r = softmax_attention(Q, K, V)
        np.testing.assert_allclose(r.weights, naive_softmax_weights(Q, K), atol=1e-12)

    def test_causal_weights_are_lower_triangular(self):
        rng = make_rng(3)
        Q, K, V = rng.standard_normal((3, 5, 4))
        r = softmax_attention(Q, K, V, causal=True)
        assert np.all(np.triu(r.weights, k=1) == 0.0)
        np.testing.assert_allclose(r.weights.sum(1), 1.0, atol=1e-12)

    def test_scaling_keys_changes_weights(self):
        rng = make_rng(4)
        Q, K, V = rng.standard_normal((3, 8, 4))
        a = softmax_attention(Q, K, V).weights
        b = softmax_attention(Q, 3.0 * K, V).weights
        assert np.abs(a - b).max() > 1e-3


class TestQuadraticEvaluator:
    def test_single_key(self):
        rng = make_rng(5)
        Q = rng.standard_normal((1, 4))
        K = rng.standard_normal((1, 4))
        V = rng.standard_normal((1, 3))
        r = nala_quadratic(Q, K, V, KernelSpec())
        # the epsilon-guarded denominator costs ~1e-12/s in relative terms
        np.testing.assert_allclose(r.output, V, rtol=1e-10)

    def test_identical_keys_uniform_for_any_kernel(self):
        # queries kept positive so every kernel's shared similarity is nonzero
        rng = make_rng(6)
        n = 7
        K = np.tile(rng.standard_normal(4), (n, 1))
        Q = np.abs(rng.standard_normal((n, 4))) + 0.1
        V = rng.standard_normal((n, 2))
        for kind in KernelKind:
            r = nala_quadratic(Q, K, V, KernelSpec(kind=kind))
            np.testing.assert_allclose(r.weights, 1.0 / n, atol=1e-10)

    def test_all_zero_similarity_row_yields_zero_weights(self):
        # relu features of a fully negative query are zero: the guarded
        # denominator turns the 0/0 row into zeros instead of raising
        Q = np.array([[-1.0, -2.0]])
        K = np.array([[3.0, 1.0], [1.0, 2.0]])
        V = np.ones((2, 2))
        r = nala_quadratic(Q, K, V, KernelSpec(kind=KernelKind.RELU))
        np.testing.assert_array_equal(r.weights, np.zeros((1, 2)))
        np.testing.assert_array_equal(r.output, np.zeros((1, 2)))

    def test_rows_are_probability_vectors(self):
        rng = make_rng(7)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 4))
        r = nala_quadratic(Q, K, V, KernelSpec(lam=2.0))
        assert np.all(r.weights >= 0.0)
        np.testing.assert_allclose(r.weights.sum(1), 1.0, atol=1e-12)
        np.testing.assert_allclose(r.output, r.weights @ V, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            nala_quadratic(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 2)), KernelSpec())

    def test_zero_query_row_rejected(self):
        Q = np.zeros((2, 4))
        K = np.ones((2, 4))
        with pytest.raises(ZeroVector):
            nala_quadratic(Q, K, K, KernelSpec())


class TestLinearEvaluator:
    def test_matches_quadratic(self):
        rng = make_rng(8)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 64, 16))
        V = rng.standard_normal((64, 16))
        a = nala_linear(Q, K, V, spec).output
        b = nala_quadratic(Q, K, V, spec).output
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_single_key(self):
        rng = make_rng(9)
        Q = rng.standard_normal((1, 4))
        V = rng.standard_normal((1, 3))
        r = nala_linear(Q, Q, V, KernelSpec())
        np.testing.assert_allclose(r.output, V, rtol=1e-12)

    def test_duplicating_keys_and_values_is_a_noop(self):
        rng = make_rng(10)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 3))
        once = nala_linear(Q, K, V, spec).output
        twice = nala_linear(Q, np.vstack([K, K]), np.vstack([V, V]), spec).output
        np.testing.assert_allclose(once, twice, rtol=1e-12)

    def test_weights_not_materialized(self):
        rng = make_rng(11)
        Q = rng.standard_normal((4, 4))
        r = nala_linear(Q, Q, Q, KernelSpec())
        assert r.weights is None and r.row_entropy is None

    def test_permutation_equivariance(self):
        rng = make_rng(12)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 10, 4))
        V = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        a = nala_linear(Q, K, V, spec).output
        b = nala_linear(Q, K[perm], V[perm], spec).output
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestCausalRecurrent:
    def test_first_row_is_first_value(self):
        rng = make_rng(13)
        Q, K = rng.standard_normal((2, 5, 4))
        V = rng.standard_normal((5, 3))
        r = nala_causal_recurrent(Q, K, V, KernelSpec())
        np.testing.assert_allclose(r.output[0], V[0], rtol=1e-10)

    def test_last_row_matches_noncausal_linear(self):
        rng = make_rng(14)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 12, 4))
        V = rng.standard_normal((12, 3))
        rec = nala_causal_recurrent(Q, K, V, spec).output
        lin = nala_linear(Q, K, V, spec).output
        np.testing.assert_allclose(rec[-1], lin[-1], rtol=1e-11)

    def test_every_row_matches_masked_quadratic(self):
        rng = make_rng(15)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 32, 8))
        V = rng.standard_normal((32, 8))
        rec = nala_causal_recurrent(Q, K, V, spec).output
        quad = nala_quadratic(Q, K, V, spec, causal=True).output
        np.testing.assert_allclose(rec, quad, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 3 * C + 8])
    def test_chunk_boundaries_match_masked_quadratic(self, n):
        rng = make_rng(26)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, n, 8))
        rec = nala_causal_recurrent(Q, K, V, spec).output
        quad = nala_quadratic(Q, K, V, spec, causal=True).output
        assert max_rel_dev(rec, quad) <= 1e-10

    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 16),
        lam=st.sampled_from([1.0, 2.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_length_matches_masked_quadratic(self, n, d, lam, seed):
        rng = make_rng(seed)
        spec = KernelSpec(lam=lam)
        Q, K, V = rng.standard_normal((3, n, d))
        rec = nala_causal_recurrent(Q, K, V, spec).output
        quad = nala_quadratic(Q, K, V, spec, causal=True).output
        assert max_rel_dev(rec, quad) <= 1e-10

    @pytest.mark.parametrize("t", [C + 10, C - 1, C])
    def test_rows_after_t_do_not_reach_rows_up_to_t(self, t):
        # t = C - 1 closes the first chunk, t = C opens the second, and
        # C + 10 sits inside it next to rows that change
        rng = make_rng(27)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, 3 * C, 8))
        before = nala_causal_recurrent(Q, K, V, spec).output
        Q2, K2, V2 = Q.copy(), K.copy(), V.copy()
        for m in (Q2, K2, V2):
            m[t + 1 :] = rng.standard_normal(m[t + 1 :].shape)
        after = nala_causal_recurrent(Q2, K2, V2, spec).output
        np.testing.assert_array_equal(after[: t + 1], before[: t + 1])
        assert np.all(after[t + 1 :] != before[t + 1 :])

    def test_all_zero_similarity_row_yields_zero_output(self):
        # relu features of a fully negative query are zero, as in the
        # quadratic form's test_all_zero_similarity_row_yields_zero_weights
        Q = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, 1.0]])
        K = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
        V = np.ones((3, 2))
        spec = KernelSpec(kind=KernelKind.RELU)
        rec = nala_causal_recurrent(Q, K, V, spec).output
        np.testing.assert_array_equal(rec[1], np.zeros(2))
        assert max_rel_dev(rec, nala_quadratic(Q, K, V, spec, causal=True).output) <= 1e-10


class TestScaleCancellation:
    """Row normalization cancels query scale exactly for homogeneous kernels."""

    def test_homogeneous_kernels_ignore_query_scale(self):
        rng = make_rng(16)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 3))
        for kind in (KernelKind.RELU, KernelKind.FIXED_POWER):
            spec = KernelSpec(kind=kind, lam=3.0)
            a = nala_quadratic(Q, K, V, spec).weights
            b = nala_quadratic(5.0 * Q, K, V, spec).weights
            assert np.array_equal(a.argmax(1), b.argmax(1))
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_norm_aware_kernel_sees_query_scale(self):
        rng = make_rng(17)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 3))
        spec = KernelSpec(lam=2.0)
        a = nala_quadratic(Q, K, V, spec).weights
        b = nala_quadratic(5.0 * Q, K, V, spec).weights
        assert np.abs(a - b).max() > 1e-6


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        np.testing.assert_array_equal(layer_norm(np.full((3, 8), 2.5)), np.zeros((3, 8)))

    def test_normalizes_mean_and_variance(self):
        rng = make_rng(18)
        x = 3.0 + 2.0 * rng.standard_normal((5, 64))
        y = layer_norm(x)
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_zero_gain_returns_bias(self):
        rng = make_rng(19)
        x = rng.standard_normal((2, 6))
        bias = rng.standard_normal(6)
        np.testing.assert_array_equal(layer_norm(x, 0.0, bias), np.tile(bias, (2, 1)))


class TestBlockForward:
    def test_zero_weights_identity(self):
        rng = make_rng(20)
        params = zeroed(random_block_params(rng, 32, 4))
        X = rng.standard_normal((16, 32))
        out = block_forward(X, params, KernelSpec())
        np.testing.assert_array_equal(out, X)

    def test_output_shape(self):
        rng = make_rng(21)
        params = random_block_params(rng, 32, 4)
        X = rng.standard_normal((16, 32))
        assert block_forward(X, params, KernelSpec()).shape == (16, 32)

    def test_same_seed_bitwise_identical(self):
        def run():
            rng = make_rng(22)
            params = random_block_params(rng, 16, 4)
            X = rng.standard_normal((8, 16))
            return block_forward(X, params, KernelSpec(), causal=True)

        np.testing.assert_array_equal(run(), run())

    def test_causal_and_noncausal_agree_on_last_row_only(self):
        rng = make_rng(23)
        params = random_block_params(rng, 16, 2)
        X = rng.standard_normal((8, 16))
        a = block_forward(X, params, KernelSpec(), causal=False)
        b = block_forward(X, params, KernelSpec(), causal=True)
        np.testing.assert_allclose(a[-1], b[-1], rtol=1e-9)
        assert np.abs(a[0] - b[0]).max() > 1e-9

    def test_causal_matches_per_head_masked_quadratic(self):
        rng = make_rng(28)
        params = random_block_params(rng, 32, 4)
        X = rng.standard_normal((200, 32))
        spec = KernelSpec(lam=2.0)
        h = layer_norm(X, params.ln1_gain, params.ln1_bias)
        Q, K, V, G = (h @ w for w in (params.w_q, params.w_k, params.w_v, params.w_g))
        attn = np.concatenate(
            [
                nala_quadratic(Q[:, s], K[:, s], V[:, s], spec, causal=True).output
                for s in (slice(i, i + 8) for i in range(0, 32, 8))
            ],
            axis=1,
        )
        Y = X + (layer_norm(attn) * silu(G)) @ params.w_o
        ref = Y + gelu(layer_norm(Y, params.ln2_gain, params.ln2_bias) @ params.ffn_w1) @ params.ffn_w2
        assert max_rel_dev(block_forward(X, params, spec, causal=True), ref) <= 1e-10

    def test_width_mismatch_rejected(self):
        rng = make_rng(24)
        params = random_block_params(rng, 16, 2)
        with pytest.raises(DimensionMismatch):
            block_forward(np.ones((4, 8)), params, KernelSpec())

    def test_zero_query_projection_with_live_keys_rejected(self):
        rng = make_rng(25)
        params = random_block_params(rng, 16, 2)
        params.w_q = np.zeros_like(params.w_q)
        with pytest.raises(ZeroVector):
            block_forward(rng.standard_normal((4, 16)), params, KernelSpec())
