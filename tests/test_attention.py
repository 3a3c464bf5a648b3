"""Tests for the attention evaluators and the gated block."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, xlogy

from nala import attention, entropy, kernels
from nala.attention import (
    _CAUSAL_CHUNK as C,
    block_forward,
    gelu,
    layer_norm,
    nala_causal_recurrent,
    nala_linear,
    nala_quadratic,
    random_block_params,
    row_entropy_nats,
    silu,
    softmax_attention,
)
from nala.cli import max_rel_dev
from nala.entropy import pse
from nala.errors import DimensionMismatch, NonFinite
from nala.kernels import KernelKind, KernelSpec, phi_k, phi_q
from nala.linalg import make_rng, rescale_rows


def dev_of_largest(a, ref):
    """Largest |a - ref| over the largest |ref| entry."""
    return float(np.abs(a - ref).max() / np.abs(ref).max())


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


class TestSoftmaxAttention:
    def test_single_key_returns_value_exactly(self):
        rng = make_rng(0)
        Q, K, V = rng.standard_normal((3, 1, 4))
        r = softmax_attention(Q[:1], K, V)
        np.testing.assert_array_equal(r.output, V)
        assert row_entropy_nats(r.weights)[0] == 0.0

    def test_identical_keys_give_uniform_weights(self):
        rng = make_rng(1)
        n, d = 6, 4
        K = np.tile(rng.standard_normal(d), (n, 1))
        Q = rng.standard_normal((n, d))
        V = rng.standard_normal((n, 3))
        r = softmax_attention(Q, K, V)
        np.testing.assert_allclose(r.weights, 1.0 / n, atol=1e-14)
        np.testing.assert_allclose(r.output, np.tile(V.mean(0), (n, 1)), atol=1e-13)
        np.testing.assert_allclose(row_entropy_nats(r.weights), math.log(n), atol=1e-12)

    def test_matches_naive_two_loop_oracle(self):
        rng = make_rng(2)
        Q, K = rng.standard_normal((2, 8, 4))
        V = rng.standard_normal((8, 5))
        r = softmax_attention(Q, K, V)
        np.testing.assert_allclose(r.weights, naive_softmax_weights(Q, K), atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # it maps nothing, so it scans Q and K itself
        rng = make_rng(3)
        for i in range(3):
            qkv = list(rng.standard_normal((3, 5, 4)))
            qkv[i][2, 1] = bad
            with pytest.raises(NonFinite):
                softmax_attention(*qkv)

    def test_scaling_keys_changes_weights(self):
        rng = make_rng(4)
        Q, K, V = rng.standard_normal((3, 8, 4))
        a = softmax_attention(Q, K, V).weights
        b = softmax_attention(Q, 3.0 * K, V).weights
        assert np.abs(a - b).max() > 1e-3


class TestRowEntropy:
    def test_nan_weight_gives_nan(self):
        h = row_entropy_nats(np.array([[0.5, np.nan, 0.5], [0.5, 0.0, 0.5]]))
        assert np.isnan(h[0]) and np.isfinite(h[1])

    def test_zero_entries_add_nothing(self):
        w = np.array([0.25, 0.5, 0.25])
        padded = np.array([0.25, 0.0, 0.5, -0.0, 0.25])
        assert row_entropy_nats(padded) == row_entropy_nats(w)

    def test_one_hot_and_all_zero_rows_give_zero(self):
        h = row_entropy_nats(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]]))
        assert np.all(h == 0.0)

    def test_negative_weight_gives_nan(self):
        # a > 0 guard would drop the entry and return a finite entropy.
        # numpy's log warns on a negative argument, where scipy's xlogy did not.
        with np.errstate(invalid="ignore"):
            h = row_entropy_nats(np.array([0.5, -0.25, 0.75]))
        assert np.isnan(h)

    # numpy's float64 log and libm's (scipy's xlogy) differ by 1 ulp on some
    # entries, so a row entropy can move by an ulp or two.  Measured: at most
    # 3.5e-16 relative over seeds 0-29 at these sizes; the bound is four
    # float64 epsilons (8.9e-16).  Bit equality fails on up to 0.06% of rows.
    XLOGY_RTOL = 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [8, 128, 1024])
    def test_matches_xlogy_on_rows_with_zeros(self, n):
        rng = make_rng(29)
        w = rng.random((200 if n == 1024 else 2000, n))
        w[rng.random(w.shape) < 0.3] = 0.0
        w[:, 0] += 1e-3  # no all-zero row
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            row_entropy_nats(w), -xlogy(w, w).sum(-1), rtol=self.XLOGY_RTOL, atol=0
        )

    def test_matches_xlogy_on_the_sweep_weights(self, monkeypatch):
        # the entropy_sweep benchmark's four (512, 128) weight arrays at seed 1
        weights = []

        def record(w):
            weights.append(w.copy())
            return row_entropy_nats(w)

        monkeypatch.setattr(entropy, "row_entropy_nats", record)
        specs = [KernelSpec(kind=k, lam=2.0)
                 for k in (KernelKind.NALA, KernelKind.RELU, KernelKind.FIXED_POWER)]
        entropy.norm_entropy_experiment(
            make_rng(1), specs, 16, 128, 16, np.geomspace(0.25, 16.0, 32), softmax_too=True
        )
        assert [w.shape for w in weights] == [(512, 128)] * 4
        for w in weights:
            np.testing.assert_allclose(
                row_entropy_nats(w), -xlogy(w, w).sum(-1), rtol=self.XLOGY_RTOL, atol=0
            )

    def test_matches_pse_row_by_row(self):
        # pse calls row_entropy_nats, so both are held to a reference that
        # calls neither: an exactly rounded sum of libm's -w log w per row
        rng = make_rng(26)
        w = rng.random((2100, 40))
        w[rng.random(w.shape) < 0.3] = 0.0
        w[0] = np.eye(40)[7]
        w /= w.sum(axis=1, keepdims=True)
        ref = [-math.fsum(x * math.log(x) for x in row if x) for row in w]
        for h in (row_entropy_nats(w), [pse(row) for row in w]):
            np.testing.assert_allclose(h, ref, rtol=1e-13, atol=1e-15)


class TestQuadraticEvaluator:
    def test_single_key(self):
        rng = make_rng(5)
        Q = rng.standard_normal((1, 4))
        K = rng.standard_normal((1, 4))
        V = rng.standard_normal((1, 3))
        r = nala_quadratic(Q, K, V, KernelSpec())
        np.testing.assert_array_equal(r.output, V)  # one weight, s / s = 1 exactly

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
        # causal mode needs one query per key, as in nala_causal_recurrent
        with pytest.raises(DimensionMismatch, match="one query per key"):
            nala_quadratic(np.ones((3, 4)), np.ones((5, 4)), np.ones((5, 2)), KernelSpec(), causal=True)

    def test_zero_query_row_gives_zero_output(self):
        # a zero query maps to zero features: an all-zero similarity row
        rng = make_rng(8)
        Q, K, V = rng.standard_normal((3, 3, 4))
        Q[1] = 0.0
        out = nala_quadratic(Q, K, V, KernelSpec()).output
        np.testing.assert_array_equal(out[1], np.zeros(4))
        rest = nala_quadratic(Q[[0, 2]], K, V, KernelSpec()).output
        np.testing.assert_array_equal(out[[0, 2]], rest)


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
        # 2 x 1500 keys span three 1024-row blocks at d = 32.  Measured: at
        # most 1.1e-15 of the largest output entry over seeds 0-29; the bound
        # is ten times that, room for other BLAS kernels' summation order.
        Q, K, V = rng.standard_normal((3, 1500, 32))
        once = nala_linear(Q, K, V, spec).output
        twice = nala_linear(Q, np.vstack([K, K]), np.vstack([V, V]), spec).output
        assert dev_of_largest(twice, once) <= 10 * 1.1e-15

    def test_weights_not_materialized(self):
        rng = make_rng(11)
        Q = rng.standard_normal((4, 4))
        r = nala_linear(Q, Q, Q, KernelSpec())
        assert r.weights is None

    def test_permutation_equivariance(self):
        rng = make_rng(12)
        spec = KernelSpec(lam=2.0)
        Q, K = rng.standard_normal((2, 10, 4))
        V = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        a = nala_linear(Q, K, V, spec).output
        b = nala_linear(Q, K[perm], V[perm], spec).output
        np.testing.assert_allclose(a, b, atol=1e-12)
        # 2 * 1024 + 37 keys span three blocks at d = 32, so the permutation
        # moves keys between blocks.  Measured: at most 1.6e-15 of the
        # largest output entry over seeds 0-29; the bound is ten times that,
        # room for other BLAS kernels' summation order.
        n = 2 * 1024 + 37
        Q, K, V = rng.standard_normal((3, n, 32))
        perm = rng.permutation(n)
        a = nala_linear(Q, K, V, spec).output
        b = nala_linear(Q, K[perm], V[perm], spec).output
        assert dev_of_largest(b, a) <= 10 * 1.6e-15


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


def longdouble_reference(Q, K, V, spec, causal):
    """Kernel attention from the float64 features, summed in np.longdouble.

    The features are taken once in float64, so the reference judges only
    the evaluators' summation.  Causal sums are running sums, 512 rows of
    cumsum at a time.
    """
    fq = phi_q(Q, spec).astype(np.longdouble)
    fk = phi_k(K, spec).astype(np.longdouble)
    V = V.astype(np.longdouble)
    if not causal:
        return (fq @ (fk.T @ V)) / (fq @ fk.sum(axis=0))[:, None]
    num = np.empty(V.shape, dtype=np.longdouble)
    den = np.empty(V.shape[0], dtype=np.longdouble)
    state, z = 0, 0
    for i in range(0, V.shape[0], 512):
        rows = slice(i, i + 512)
        kv = state + np.cumsum(fk[rows, :, None] * V[rows, None, :], axis=0)
        zs = z + np.cumsum(fk[rows], axis=0)
        num[rows] = np.einsum("tf,tfv->tv", fq[rows], kv)
        den[rows] = np.einsum("tf,tf->t", fq[rows], zs)
        state, z = kv[-1], zs[-1]
    return num / den[:, None]


class TestBlockLoop:
    """Both O(N) forms stream blocks of rows through one fold and one readout."""

    @pytest.mark.parametrize("causal", [False, True])
    def test_long_sequence_matches_longdouble_sums(self, causal):
        # 2^14 + 37 rows end in a partial block; V + 3 keeps every output
        # row away from zero.  Measured: linear 3.9e-15, causal 1.1e-15.
        rng = make_rng(41)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, 2**14 + 37, 8))
        V += 3.0
        evaluate = nala_causal_recurrent if causal else nala_linear
        ref = longdouble_reference(Q, K, V, spec, causal)
        out = evaluate(Q, K, V, spec).output
        assert dev_of_largest(out, ref) <= 1e-13

    def test_cross_attention_over_several_blocks(self):
        rng = make_rng(42)
        spec = KernelSpec(lam=2.0)
        Q = rng.standard_normal((3000, 32))
        K, V = rng.standard_normal((2, 1500, 32))
        lin = nala_linear(Q, K, V, spec).output
        assert max_rel_dev(lin, nala_quadratic(Q, K, V, spec).output) <= 1e-10

    def test_causal_over_several_blocks(self):
        # 1024-row blocks at d = 32: two whole blocks, then a partial one
        # that ends in a partial chunk
        rng = make_rng(43)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, 2500, 32))
        rec = nala_causal_recurrent(Q, K, V, spec).output
        assert max_rel_dev(rec, nala_quadratic(Q, K, V, spec, causal=True).output) <= 1e-10

    @pytest.mark.parametrize("elems", [1, 100 * 8, 1000 * 8])
    def test_causal_output_independent_of_block_rows(self, monkeypatch, elems):
        # blocks of 1 (raised to one chunk), 100 (rounded down to one
        # chunk) and 1000 (rounded down to 960) rows hold whole chunks, so
        # the chunks and the output are those of the default blocks
        rng = make_rng(44)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, 2100, 8))
        default = nala_causal_recurrent(Q, K, V, spec).output
        monkeypatch.setattr(attention, "_MAP_BLOCK_ELEMS", elems)
        np.testing.assert_array_equal(nala_causal_recurrent(Q, K, V, spec).output, default)

    @pytest.mark.parametrize("evaluate", [nala_linear, nala_causal_recurrent])
    def test_each_block_is_mapped_once(self, monkeypatch, evaluate):
        # Q and K are mapped once per 1024-row block, not once per 64-row
        # tile: per-tile maps measured 10-20% slower, and would map pad rows
        rows = {"phi_q": [], "phi_k": []}
        for name, calls in rows.items():
            def counted(x, spec, f=getattr(kernels, name), calls=calls):
                calls.append(x.shape[0])
                return f(x, spec)
            monkeypatch.setattr(kernels, name, counted)
        Q, K, V = make_rng(48).standard_normal((3, 2 * 1024 + 37, 32))
        evaluate(Q, K, V, KernelSpec(lam=2.0))
        assert rows == {"phi_q": [1024, 1024, 37], "phi_k": [1024, 1024, 37]}

    @pytest.mark.parametrize("evaluate", [nala_linear, nala_causal_recurrent, nala_quadratic])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, evaluate, bad):
        # the maps check Q and K for every kind, _check_qkv checks V; the
        # entry goes in the first 1024-row block and in the partial last one
        n = 2 * 1024 + 37
        rng = make_rng(45)
        for kind in KernelKind:
            for i in range(3):
                for row in (1, n - 2):
                    qkv = list(rng.standard_normal((3, n, 32)))
                    qkv[i][row, 5] = bad
                    with pytest.raises(NonFinite):
                        evaluate(*qkv, KernelSpec(kind=kind))


#: sha256 of each evaluator's output bytes on _evaluator_pin_bytes' inputs.
#: A change to the block loop, the fold or the readout must not move a bit.
EVALUATOR_BYTES_SHA256 = {
    "nala_linear": "515ac4c1f308ada2804eed4abf3f7602deff8c9ea986f8835480f33e34ec2deb",
    "nala_causal_recurrent": "a67633055005c6765f1e655988f07d201d8fdbfbe2abd6b78d0224a79ae6ffc3",
    "nala_quadratic": "7fe3717cc28ca0973f9c2e462e5fbd09b2de6f622cc8d97633819ca35e81bb5a",
}


def _evaluator_pin_bytes(evaluate):
    """sha256 of evaluate's outputs, nala and relu at lambda 0.5, 2 and 8.

    Each (N, d) input has one zero query row and one zero key row; at N = 1
    both are row 0, so that output is the guarded 0.  N = 2085 ends in a
    partial block and a partial causal tile.
    """
    h = hashlib.sha256()
    for n, d in ((1, 3), (64, 16), (2 * 1024 + 37, 32)):
        Q, K, V = make_rng(30).standard_normal((3, n, d))
        Q[n // 2] = 0.0
        K[n // 3] = 0.0
        for kind in (KernelKind.NALA, KernelKind.RELU):
            for lam in (0.5, 2.0, 8.0):
                h.update(evaluate(Q, K, V, KernelSpec(kind=kind, lam=lam)).output.tobytes())
    return h.hexdigest()


class TestEvaluatorBytes:
    @pytest.mark.parametrize("evaluate", [nala_linear, nala_causal_recurrent, nala_quadratic])
    def test_output_bytes_pinned(self, evaluate):
        assert _evaluator_pin_bytes(evaluate) == EVALUATOR_BYTES_SHA256[evaluate.__name__]


class TestZeroRows:
    """A zero key row maps to zero features, so it adds nothing to any output row."""

    @pytest.mark.parametrize("evaluate", [nala_linear, nala_quadratic])
    @pytest.mark.parametrize("n", [64, 3000])
    def test_zero_keys_equal_dropped_keys(self, evaluate, n):
        rng = make_rng(46)
        spec = KernelSpec(lam=2.0)
        Q, K, V = rng.standard_normal((3, n, 8))
        V += 3.0
        zeroed = np.arange(n) % 7 == 0
        K[zeroed] = 0.0
        dropped = evaluate(Q, K[~zeroed], V[~zeroed], spec).output
        assert max_rel_dev(evaluate(Q, K, V, spec).output, dropped) <= 1e-14

    @pytest.mark.parametrize("causal", [False, True])
    def test_block_with_zero_and_constant_rows(self, causal):
        # layer_norm sends both rows to the zero bias, so their queries and
        # keys are zero; the causal prefix is the block run on the prefix
        rng = make_rng(47)
        params = random_block_params(rng, 16, 4)
        X = rng.standard_normal((40, 16))
        X[3], X[11] = 0.0, 2.5
        Z = block_forward(X, params, KernelSpec(), causal=causal)
        assert np.all(np.isfinite(Z))
        if causal:
            prefix = block_forward(X[:20], params, KernelSpec(), causal=True)
            np.testing.assert_array_equal(Z[:20], prefix)


def _prefix_lengths(n, data):
    """Prefix lengths below n: both sides of every chunk edge, plus one drawn length."""
    edges = {e + o for e in range(C, n, C) for o in (-1, 0, 1)}
    return sorted({e for e in edges if 0 < e < n} | {data.draw(st.integers(1, n - 1))})


class TestCausalPrefix:
    """Causal row t is defined by rows <= t: a prefix run equals the full run, bit for bit.

    Every chunk runs at the full _CAUSAL_CHUNK shape, the last one zero-
    padded, so row t sees the same operations whatever N is.  At d=256 a
    block holds 128 rows, so the lengths cross block edges as well.
    """

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([8, 256]),
           n=st.integers(2, 320), data=st.data())
    def test_recurrent_prefix_is_the_full_run(self, seed, d, n, data):
        spec = KernelSpec(lam=2.0)
        Q, K, V = make_rng(seed).standard_normal((3, n, d))
        full = nala_causal_recurrent(Q, K, V, spec).output
        for cut in _prefix_lengths(n, data):
            prefix = nala_causal_recurrent(Q[:cut], K[:cut], V[:cut], spec).output
            np.testing.assert_array_equal(prefix, full[:cut], err_msg=f"prefix {cut} of {n}")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([16, 256]),
           n=st.integers(2, 300), data=st.data())
    def test_block_prefix_is_the_full_run(self, seed, dim, n, data):
        # the rowwise stages run in padded tiles of C rows, so their gemms
        # see one shape whatever the row count
        rng = make_rng(seed)
        params = random_block_params(rng, dim, 4)
        X = rng.standard_normal((n, dim))
        full = block_forward(X, params, KernelSpec(), causal=True)
        for cut in _prefix_lengths(n, data):
            prefix = block_forward(X[:cut], params, KernelSpec(), causal=True)
            np.testing.assert_array_equal(prefix, full[:cut], err_msg=f"prefix {cut} of {n}")

    @pytest.mark.parametrize("seed, dim, heads, n, cut", [
        (1, 16, 4, 300, 1),  # numpy runs a one-row product as gemv, a longer one as gemm
        (0, 256, 1, 4, 2),  # the (n, 1024) @ (1024, 256) feed-forward, 2 rows against 4
    ])
    def test_block_prefix_at_other_gemm_shapes(self, seed, dim, heads, n, cut):
        rng = make_rng(seed)
        params = random_block_params(rng, dim, heads)
        X = rng.standard_normal((n, dim))
        full = block_forward(X, params, KernelSpec(), causal=True)
        np.testing.assert_array_equal(block_forward(X[:cut], params, KernelSpec(), causal=True),
                                      full[:cut])


class TestScaleCancellation:
    """Row normalization cancels query scale for homogeneous kernels, key scale for all."""

    @pytest.mark.parametrize("evaluate", [nala_linear, nala_causal_recurrent, nala_quadratic])
    @pytest.mark.parametrize("lam, c", [(4, 1e-3), (8, 1e-2), (2, 1e-6), (2, 1e-100), (2, 1e3)])
    def test_key_scale_cancels(self, evaluate, lam, c):
        # phi_k(c k) = c**lam phi_k(k) scales numerator and denominator alike.
        # Measured at seed 3: at most 8.8e-16 of the largest output entry
        # (1.8e-15 over seeds 0-29); the bound is ten times 8.8e-16, room for
        # the changed summation order of other BLAS kernels.
        rng = make_rng(3)
        Q, K, V = rng.standard_normal((3, 64, 16))
        spec = KernelSpec(lam=lam)
        a = evaluate(Q, K, V, spec).output
        b = evaluate(Q, c * K, V, spec).output
        assert dev_of_largest(b, a) <= 10 * 8.8e-16

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


class TestValueShift:
    """The weights of a row sum to 1, so V -> V + b shifts every output row by b."""

    @pytest.mark.parametrize("evaluate, n", [
        (nala_linear, 64), (nala_linear, 2 * 1024 + 37),
        (nala_causal_recurrent, 64), (nala_causal_recurrent, 2 * 1024 + 37),
        (nala_quadratic, 64),
    ])
    def test_value_shift_shifts_output(self, evaluate, n):
        # 2 * 1024 + 37 rows cross two block edges at d = 32 and end in a
        # partial tile.  Measured: at most 2.0e-15 of the largest output
        # entry over seeds 0-29; the bound is ten times that, room for
        # other BLAS kernels' summation order.
        rng = make_rng(49)
        Q, K, V = rng.standard_normal((3, n, 32))
        b = 3.0 * rng.standard_normal(32)
        spec = KernelSpec(lam=2.0)
        shifted = evaluate(Q, K, V + b, spec).output
        assert dev_of_largest(evaluate(Q, K, V, spec).output + b, shifted) <= 10 * 2.0e-15


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        np.testing.assert_array_equal(layer_norm(np.full((3, 8), 2.5)), np.zeros((3, 8)))

    def test_normalizes_mean_and_variance(self):
        rng = make_rng(18)
        x = 3.0 + 2.0 * rng.standard_normal((5, 64))
        y = layer_norm(x)
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("exponent", [600, 1000])
    def test_overflowing_variance_rescaled(self, exponent):
        x = make_rng(20).standard_normal((4, 8))
        np.testing.assert_allclose(
            layer_norm(np.ldexp(x, exponent)), layer_norm(np.ldexp(x, 20)), rtol=0, atol=1e-15
        )

    def test_non_finite_entry_rejected(self):
        with pytest.raises(NonFinite):
            layer_norm(np.array([[1.0, 2.0], [math.nan, 1.0]]))

    def test_equals_two_line_var_form(self):
        # layer_norm centers once; np.var's own arithmetic gives the same bits,
        # down to the exact power-of-two rescale of rows whose variance overflows
        rng = make_rng(26)
        gain, bias = rng.standard_normal((2, 256))
        for scale in (1e-300, 1e-20, 1.0, 1e20, 1e154, 1e300):
            x = rng.standard_normal((64, 256)) * scale + 3.0 * scale
            with np.errstate(over="ignore", invalid="ignore"):
                overflow = ~np.isfinite(x.var(axis=-1, keepdims=True))
            y, e = rescale_rows(x, overflow)
            want = ((y - y.mean(axis=-1, keepdims=True))
                    / np.sqrt(y.var(axis=-1, keepdims=True) + np.ldexp(1e-6, -2 * e))
                    * gain + bias)
            np.testing.assert_array_equal(layer_norm(x, gain, bias), want, err_msg=f"scale {scale}")

    def test_zero_gain_returns_bias(self):
        rng = make_rng(19)
        x = rng.standard_normal((2, 6))
        bias = rng.standard_normal(6)
        np.testing.assert_array_equal(layer_norm(x, 0.0, bias), np.tile(bias, (2, 1)))


class TestGelu:
    def test_equals_one_line_erf_form(self):
        x = make_rng(23).standard_normal((64, 128)) * 4.0
        x[0, :4] = [0.0, -0.0, 5e-324, -1e-310]
        x[1, :2] = [1e300, -1e300]
        want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_array_equal(gelu(x), want)

    def test_array_like_input(self):
        # gelu(1) = Phi(1), the standard normal CDF at 1
        assert gelu(1.0) == pytest.approx(0.8413447460685429, rel=1e-15)
        np.testing.assert_array_equal(gelu([1.0, -2.0]), gelu(np.array([1.0, -2.0])))


class TestBlockForward:
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
        # both sides of a tile edge, and one padded tile for N < C
        rng = make_rng(28)
        params = random_block_params(rng, 32, 4)
        spec = KernelSpec(lam=2.0)
        for n in (1, C - 1, C, C + 1, 200):
            X = rng.standard_normal((n, 32))
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
            F = layer_norm(Y, params.ln2_gain, params.ln2_bias) @ params.ffn_w1
            ref = Y + gelu(F) @ params.ffn_w2
            dev = max_rel_dev(block_forward(X, params, spec, causal=True), ref)
            assert dev <= 1e-10, f"N={n}: {dev:.3g}"

    def test_holds_one_tile_of_feed_forward(self):
        # the whole-array block peaked at 20.0 MiB here, with (N, 4 dim)
        # feed-forward and gelu temporaries of 4 MiB each; tiles of C rows
        # peak at 9.63 MiB: the (N, 4 dim) projections and a few (N, dim) arrays
        rng = make_rng(29)
        params = random_block_params(rng, 256, 4)
        X = rng.standard_normal((512, 256))
        tracemalloc.start()
        try:
            block_forward(X, params, KernelSpec(lam=2.0), causal=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_width_mismatch_rejected(self):
        rng = make_rng(24)
        params = random_block_params(rng, 16, 2)
        with pytest.raises(DimensionMismatch):
            block_forward(np.ones((4, 8)), params, KernelSpec())

    def test_zero_query_projection_zeroes_attention_branch(self):
        # zero queries read 0 from live keys, so the attention residual adds
        # nothing and only the feed-forward branch remains
        rng = make_rng(25)
        params = random_block_params(rng, 16, 2)
        params.w_q = np.zeros_like(params.w_q)
        X = rng.standard_normal((4, 16))
        ffn = gelu(layer_norm(X, params.ln2_gain, params.ln2_bias) @ params.ffn_w1) @ params.ffn_w2
        for causal in (False, True):
            Z = block_forward(X, params, KernelSpec(), causal=causal)
            np.testing.assert_array_equal(Z, X + ffn)
