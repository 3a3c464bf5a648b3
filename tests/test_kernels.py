"""Tests for the feature maps: formulas, non-negativity, homogeneity structure."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nala import checks
from nala.errors import DimensionMismatch, NonFinite, WrongKernel
from nala.kernels import (
    _MAP_BLOCK_ELEMS,
    KernelKind,
    KernelSpec,
    _norm_direction,
    baseline_map,
    direction_squash,
    feature_maps,
    phi_k,
    phi_q,
    power_exponent,
)
from nala.linalg import make_rng


def scalar_phi_q(q, lam):
    """Straight-line scalar transcription of the query map, as an oracle."""
    n = math.hypot(*q)
    u = [v / n for v in q]
    p = lam * (0.5 + math.tanh(n))
    m = [abs(ui) ** p for ui in u]
    a = [math.pi / 4 * math.tanh(ui) for ui in u]
    return [mi * math.cos(ai) for mi, ai in zip(m, a)] + [
        mi * math.sin(ai) for mi, ai in zip(m, a)
    ]


def scalar_phi_k(k, lam):
    """Straight-line scalar transcription of the key map."""
    n = math.hypot(*k)
    u = [v / n for v in k]
    m = [abs(ki) ** lam for ki in k]
    a = [math.pi / 4 * math.tanh(ui) for ui in u]
    return [mi * math.cos(ai) for mi, ai in zip(m, a)] + [
        mi * math.sin(ai) for mi, ai in zip(m, a)
    ]


class TestPowerExponent:
    def test_zero_norm(self):
        assert power_exponent(0.0, KernelSpec(lam=2.0)) == 1.0

    def test_asymptote(self):
        # tanh(30) rounds to 1.0 in float64, so the limit is attained exactly
        assert power_exponent(30.0, KernelSpec(lam=2.0)) > 2.999999
        assert power_exponent(30.0, KernelSpec(lam=2.0)) <= 3.0

    def test_unit_norm_value(self):
        # 2 * (0.5 + tanh 1), frozen from a 40-digit evaluation
        assert power_exponent(1.0, KernelSpec(lam=2.0)) == pytest.approx(
            2.5231883119115297, abs=1e-15
        )


class TestDirectionSquash:
    def test_zero(self):
        assert direction_squash(0.0) == 0.0

    @given(st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_odd(self, u):
        assert direction_squash(u) + direction_squash(-u) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("u", [10.0, -10.0, 100.0, -100.0])
    def test_bounded_by_quarter_pi(self, u):
        # open bound mathematically; tanh saturation makes it closed in floats
        assert abs(direction_squash(u)) <= math.pi / 4

    def test_angle_difference_cosine_stays_positive(self):
        # even fully opposed large inputs keep the per-coordinate cosine
        # factor (barely) positive: the squash pins differences under pi/2
        delta = direction_squash(10.0) - direction_squash(-10.0)
        assert 0.0 < math.cos(delta) < 1e-6


class TestPhiQ:
    def test_one_hot_direction(self):
        spec = KernelSpec(lam=2.0)
        out = phi_q(np.array([3.0, 0.0, 0.0]), spec)
        f1 = math.pi / 4 * math.tanh(1.0)
        np.testing.assert_allclose(
            out, [math.cos(f1), 0.0, 0.0, math.sin(f1), 0.0, 0.0], atol=1e-15
        )

    def test_norm_with_equal_magnitude_entries(self):
        # magnitudes all d**(-p/2); cos^2 + sin^2 collapses the trig blocks
        d, spec = 8, KernelSpec(lam=2.0)
        q = np.array([1.0, -1.0] * (d // 2)) * 0.7
        p = power_exponent(np.linalg.norm(q), spec)
        expected = d ** ((1.0 - p) / 2.0)
        assert np.linalg.norm(phi_q(q, spec)) == pytest.approx(expected, rel=1e-13)

    def test_matches_scalar_transcription(self):
        rng = make_rng(11)
        spec = KernelSpec(lam=2.0)
        for _ in range(20):
            q = rng.standard_normal(8)
            np.testing.assert_allclose(
                phi_q(q, spec), scalar_phi_q(q, 2.0), rtol=1e-14, atol=1e-14
            )

    def test_zero_vector_maps_to_zero_features(self):
        for fn in (phi_q, phi_k):
            np.testing.assert_array_equal(fn(np.zeros(4), KernelSpec()), np.zeros(8))

    def test_wrong_kernel_rejected(self):
        with pytest.raises(WrongKernel):
            phi_q(np.ones(4), KernelSpec(kind=KernelKind.RELU))

    def test_cos_block_positive_where_magnitude_positive(self):
        rng = make_rng(12)
        q = rng.standard_normal(16)
        out = phi_q(q, KernelSpec())
        assert np.all(out[:16] > 0)

    @given(
        rest=st.lists(
            st.floats(-10, 10).filter(lambda v: abs(v) >= 1e-3), min_size=1, max_size=15
        ),
        lam=st.floats(0.05, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_continuous_across_tiny_direction_entries(self, rest, lam, sign):
        # a direction entry just below and just above 1e-12: |u_i|**p has no
        # cut-off there, so the two features differ only by the entry's own change
        n = np.linalg.norm(rest)
        below, above = (np.append(rest, sign * t * n) for t in (0.999999e-12, 1.000001e-12))
        spec = KernelSpec(lam=lam)
        lo, hi = phi_q(below, spec), phi_q(above, spec)
        assert np.abs(hi - lo).max() <= 1e-5 * np.abs(hi).max()

    def test_not_homogeneous_in_any_degree(self):
        # the scale enters through the exponent, so phi_q(2q)/phi_q(q) is
        # not a constant vector for generic q
        rng = make_rng(13)
        spec = KernelSpec(lam=2.0)
        q = rng.standard_normal(6)
        ratio = phi_q(2.0 * q, spec) / phi_q(q, spec)
        assert np.ptp(ratio) > 1e-3


class TestPhiK:
    def test_one_hot(self):
        out = phi_k(np.array([1.0, 0.0]), KernelSpec(lam=2.0))
        f1 = math.pi / 4 * math.tanh(1.0)
        np.testing.assert_allclose(out, [math.cos(f1), 0.0, math.sin(f1), 0.0], atol=1e-15)

    def test_degree_lambda_homogeneous(self):
        rng = make_rng(14)
        for lam in (1.0, 2.0, 3.5):
            spec = KernelSpec(lam=lam)
            k = rng.standard_normal(8)
            for c in (0.5, 2.0, 7.0):
                np.testing.assert_allclose(
                    phi_k(c * k, spec), c**lam * phi_k(k, spec), rtol=1e-12
                )

    def test_matches_scalar_transcription(self):
        rng = make_rng(15)
        spec = KernelSpec(lam=2.0)
        for _ in range(20):
            k = rng.standard_normal(8)
            np.testing.assert_allclose(
                phi_k(k, spec), scalar_phi_k(k, 2.0), rtol=1e-14, atol=1e-14
            )

    def test_sign_flip_keeps_magnitude_block(self):
        rng = make_rng(16)
        spec = KernelSpec(lam=2.0)
        k = rng.standard_normal(8)
        d = k.size
        a, b = phi_k(k, spec), phi_k(-k, spec)
        mag_a = np.hypot(a[:d], a[d:])
        mag_b = np.hypot(b[:d], b[d:])
        np.testing.assert_allclose(mag_a, mag_b, rtol=1e-14)


#: Subnormal outputs carry no 1e-14 relative accuracy; this floors the atol.
SUBNORMAL_ATOL = 2 * np.finfo(np.float64).smallest_subnormal


def assert_matches_transcription(out, x, lam, key=False):
    """Rowwise check against the scalar cos/sin transcription: rtol 1e-14 and
    atol 1e-14 times the row's largest entry, floored at SUBNORMAL_ATOL."""
    oracle = scalar_phi_k if key else scalar_phi_q
    d = x.shape[-1]
    assert out.shape == x.shape[:-1] + (2 * d,)
    for row, got in zip(x.reshape(-1, d), out.reshape(-1, 2 * d)):
        want = np.array(oracle(row.tolist(), lam))
        np.testing.assert_allclose(
            got, want, rtol=1e-14, atol=max(1e-14 * np.abs(want).max(), SUBNORMAL_ATOL)
        )


class TestMapAccuracy:
    """The vectorized maps against the scalar cos/sin transcriptions."""

    @given(
        row=st.lists(
            st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=64
        ),
        lam=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_transcription(self, row, lam):
        x = np.array(row)
        assume(math.hypot(*row) > 0)
        spec = KernelSpec(lam=lam)
        assert_matches_transcription(phi_q(x, spec), x, lam)
        assert_matches_transcription(phi_k(x, spec), x, lam, key=True)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_both_sides_of_the_chunk_path(self, extra):
        # rows * d = _MAP_BLOCK_ELEMS - d and exactly _MAP_BLOCK_ELEMS map in
        # one piece; + d takes the chunked loop with a one-row tail
        d = 32
        rows = _MAP_BLOCK_ELEMS // d + extra
        x = make_rng(30).standard_normal((rows, d))
        spec = KernelSpec(lam=2.0)
        assert_matches_transcription(phi_q(x, spec), x, 2.0)
        assert_matches_transcription(phi_k(x, spec), x, 2.0, key=True)

    def test_three_dimensional_input(self):
        x = make_rng(31).standard_normal((3, 5, 7))
        spec = KernelSpec(lam=4.0)
        assert_matches_transcription(phi_q(x, spec), x, 4.0)
        assert_matches_transcription(phi_k(x, spec), x, 4.0, key=True)

    def test_three_dimensional_input_equals_its_rows(self):
        # 300 * 4 * 32 elements exceed one chunk: the 3-D input is chunked as rows
        x = make_rng(32).standard_normal((300, 4, 32))
        assert x.size > _MAP_BLOCK_ELEMS
        spec = KernelSpec(lam=2.0)
        for fn in (phi_q, phi_k):
            rows = fn(x.reshape(-1, 32), spec)
            np.testing.assert_array_equal(fn(x, spec), rows.reshape(300, 4, 64))

    def test_one_dimensional_input_equals_one_row(self):
        x = make_rng(33).standard_normal(9)
        spec = KernelSpec(lam=2.0)
        for fn in (phi_q, phi_k):
            np.testing.assert_array_equal(fn(x, spec), fn(x[None, :], spec)[0])

    def test_zero_width_input_rejected(self):
        for fn in (phi_q, phi_k):
            for x in (np.zeros((3, 0)), np.float64(1.0)):
                with pytest.raises(DimensionMismatch):
                    fn(x, KernelSpec())

    def test_key_magnitude_near_float64_max_stays_finite(self):
        # |k_0|**4 ~ 1.5e308: doubling that magnitude would overflow
        lam = 4.0
        k = np.array([1.5e308 ** (1 / lam), -0.8e77, 0.3e77])
        out = phi_k(k, KernelSpec(lam=lam))
        assert np.abs(out).max() > 1e308
        assert np.all(np.isfinite(out))
        assert_matches_transcription(out, k, lam, key=True)


#: sha256 of the phi_q and phi_k output bytes of _map_pin_bytes.  A change
#: to the maps' arithmetic must not move a bit of their output.
MAP_BYTES_SHA256 = "ecf590617acab8d2d4198c2ec92227d32f5db001e3d1e921c2122162c26220f1"


def _map_pin_bytes():
    """phi_q and phi_k bytes of one seeded input at lambda 0.5, 2 and 8.

    The 3000 x 12 input spans two map chunks and holds a zero row and rows
    at 1e-200 and 1e200.
    """
    x = make_rng(18).standard_normal((3000, 12))
    x[0] = 0.0
    x[1] *= 1e-200
    x[2] *= 1e200
    h = hashlib.sha256()
    for lam in (0.5, 2.0, 8.0):
        spec = KernelSpec(lam=lam)
        # |k|**lam overflows on the 1e200 row for lam > 1
        keys = x if lam < 1 else np.delete(x, 2, axis=0)
        h.update(phi_q(x, spec).tobytes())
        h.update(phi_k(keys, spec).tobytes())
    return h.hexdigest()


class TestMapBytes:
    def test_output_bytes_pinned(self):
        assert _map_pin_bytes() == MAP_BYTES_SHA256

    def test_column_slice_equals_contiguous_copy(self):
        # block_forward hands each head's column slice of Q and K to the maps
        full = make_rng(19).standard_normal((2000, 64))
        full[3] = 0.0
        x = full[:, 16:48]
        assert not x.flags.c_contiguous
        for lam in (0.5, 2.0, 8.0):
            spec = KernelSpec(lam=lam)
            for fn in (phi_q, phi_k):
                np.testing.assert_array_equal(fn(x, spec), fn(np.ascontiguousarray(x), spec))

    def test_fortran_order_equals_contiguous_copy(self):
        # the split's einsum row sum follows the layout unless the maps copy first
        x = make_rng(19).standard_normal((2000, 32))
        fortran = np.asfortranarray(x)
        assert not fortran.flags.c_contiguous
        for lam in (0.5, 2.0, 8.0):
            spec = KernelSpec(lam=lam)
            for fn in (phi_q, phi_k):
                np.testing.assert_array_equal(fn(fortran, spec), fn(x, spec))


class TestNormSplitAtExtremeScales:
    """Rows whose squared norm over- or underflows are split after an exact rescale."""

    rows = make_rng(40).standard_normal((64, 6))

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_direction_exact_and_norm_scales(self, exponent):
        norms, u = _norm_direction(self.rows)
        big_norms, big_u = _norm_direction(np.ldexp(self.rows, exponent))
        np.testing.assert_array_equal(big_u, u)
        np.testing.assert_array_equal(big_norms, np.ldexp(norms, exponent))

    def test_phi_q_unchanged_where_exponent_saturated(self):
        # tanh(n) rounds to 1 for n >= 20, so p(n) is the same at both scales
        x = self.rows * (20.0 / np.linalg.norm(self.rows, axis=1).min())
        spec = KernelSpec(lam=2.0)
        np.testing.assert_array_equal(phi_q(np.ldexp(x, 600), spec), phi_q(x, spec))

    def test_phi_k_scales_exactly_at_lambda_one(self):
        spec = KernelSpec(lam=1.0)
        np.testing.assert_array_equal(
            phi_k(np.ldexp(self.rows, 600), spec), np.ldexp(phi_k(self.rows, spec), 600)
        )

    def test_phi_q_of_tiny_row_equals_small_row(self):
        # 2^-560 squares to zero; at both scales p(n) rounds to lambda / 2
        x = np.array([1.0, -2.0, 0.5])
        spec = KernelSpec(lam=2.0)
        np.testing.assert_array_equal(phi_q(np.ldexp(x, -560), spec), phi_q(np.ldexp(x, -60), spec))

    def test_key_direction_survives_overflowing_norm(self):
        out = phi_k(np.array([1e200, 0.0]), KernelSpec(lam=1.0))
        a = math.pi / 4 * math.tanh(1.0)
        want = [1e200 * math.cos(a), 0.0, 1e200 * math.sin(a), 0.0]
        np.testing.assert_allclose(out, want, rtol=1e-15)

    def test_subnormal_norm_gives_unit_direction(self):
        norms, u = _norm_direction(np.array([1e-160]))
        assert u[0] == 1.0 and norms[0] == 1e-160

    def test_zero_row_maps_to_zeros_beside_huge_row(self):
        x = np.array([[1e200, 1e200], [0.0, 0.0]])
        norms, u = _norm_direction(x)
        big_norm, big_u = _norm_direction(x[0])
        assert norms[1, 0] == 0.0 and not u[1].any()
        np.testing.assert_array_equal(norms[0], big_norm)
        np.testing.assert_array_equal(u[0], big_u)
        spec = KernelSpec(lam=1.0)  # phi_k of the 1e200 row stays finite
        for fn in (phi_q, phi_k):
            out = fn(x, spec)
            assert not out[1].any()
            np.testing.assert_array_equal(out[0], fn(x[0], spec))

    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    def test_zero_squared_norm_is_not_a_zero_row(self, lam):
        # row 3's squared norm underflows to exactly 0, as row 0's is 0: a
        # split that took every sq == 0 row for a zero row would send the
        # query to features of order 1e-58 instead of order 1
        x = make_rng(23).standard_normal((6, 16))
        x[0] = 0.0
        x[3] = 0.0
        x[3, :2] = [1.27e-229, -3e-230]
        assert np.einsum("ij,ij->i", x, x)[3] == 0.0
        spec = KernelSpec(lam=lam)
        for fn in (phi_q, phi_k):
            out = fn(x, spec)
            for i, row in enumerate(x):
                np.testing.assert_array_equal(out[i], fn(row, spec), err_msg=f"row {i}")
            assert not out[0].any()
        assert 0.5 < np.abs(phi_q(x[3], spec)).max() <= 1.0


class TestNonFiniteRows:
    """A NaN or infinite entry raises NonFinite from every feature map."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_maps_and_similarity_raise(self, bad):
        row = np.array([bad, 1.0, -2.0])
        for kind in KernelKind:
            spec = KernelSpec(kind=kind)
            maps = (phi_q, phi_k) if kind is KernelKind.NALA else (baseline_map,)
            for fn in maps:
                with pytest.raises(NonFinite):
                    fn(row, spec)
                with pytest.raises(NonFinite):
                    fn(np.stack([np.ones(3), row]), spec)


class TestBaselineMap:
    def test_relu(self):
        np.testing.assert_array_equal(
            baseline_map(np.array([-1.0, 2.0]), KernelSpec(kind=KernelKind.RELU)),
            [0.0, 2.0],
        )

    def test_one_plus_elu_at_zero(self):
        np.testing.assert_array_equal(
            baseline_map(np.zeros(2), KernelSpec(kind=KernelKind.ONE_PLUS_ELU)),
            [1.0, 1.0],
        )

    def test_fixed_power(self):
        out = baseline_map(
            np.array([2.0, -2.0]), KernelSpec(kind=KernelKind.FIXED_POWER, lam=3.0)
        )
        np.testing.assert_array_equal(out, [8.0, 0.0])

    def test_nala_rejected(self):
        with pytest.raises(WrongKernel):
            baseline_map(np.ones(2), KernelSpec(kind=KernelKind.NALA))

    def test_outputs_nonnegative(self):
        rng = make_rng(17)
        x = rng.standard_normal(100)
        for kind in (KernelKind.RELU, KernelKind.ONE_PLUS_ELU, KernelKind.FIXED_POWER):
            assert np.all(baseline_map(x, KernelSpec(kind=kind)) >= 0)


class TestPairwiseSimilarity:
    """The similarity of a pair is the map product phi_q(q) . phi_k(k)."""

    def test_equal_inputs_hit_cos_zero(self):
        # q = k makes every angle difference zero, so the similarity is the
        # plain product of the magnitude blocks
        rng = make_rng(18)
        spec = KernelSpec(lam=2.0)
        q = rng.standard_normal(8)
        d = q.size
        fq, fk = phi_q(q, spec), phi_k(q, spec)
        mags = np.hypot(fq[:d], fq[d:]) * np.hypot(fk[:d], fk[d:])
        assert fq @ fk == pytest.approx(mags.sum(), rel=1e-13)

    def test_opposed_directions_inhibited_but_positive(self):
        spec = KernelSpec(lam=2.0)
        q = np.full(4, 10.0)
        sim = phi_q(q, spec) @ phi_k(-q, spec)
        assert 0.0 < sim < phi_q(q, spec) @ phi_k(q, spec)

    def test_baseline_similarity_nonnegative(self):
        rng = make_rng(20)
        for kind in (KernelKind.RELU, KernelKind.ONE_PLUS_ELU, KernelKind.FIXED_POWER):
            map_q, map_k = feature_maps(KernelSpec(kind=kind))
            for _ in range(50):
                assert map_q(rng.standard_normal(8)) @ map_k(rng.standard_normal(8)) >= 0.0

    def test_check_holds_one_block_of_features(self):
        # whole 10^5 x 32 feature arrays for both sides would peak at 74 MiB;
        # the queries (12.2 MiB) and one block of keys and features stay below 20
        tracemalloc.start()
        try:
            result = checks.similarity_nonnegative(make_rng(303), KernelSpec(lam=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestTrigBlockIdentities:
    def test_norm_preservation(self):
        # sum of cos^2 + sin^2 over the trig block is exactly the dimension
        rng = make_rng(21)
        for d in (2, 16, 64):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            a = direction_squash(u)
            total = float((np.cos(a) ** 2 + np.sin(a) ** 2).sum())
            assert abs(total - d) <= 1e-12

    def test_angle_difference_identity(self):
        rng = make_rng(22)
        d = 12
        u = rng.standard_normal(d); u /= np.linalg.norm(u)
        w = rng.standard_normal(d); w /= np.linalg.norm(w)
        au, aw = direction_squash(u), direction_squash(w)
        block_u = np.concatenate([np.cos(au), np.sin(au)])
        block_w = np.concatenate([np.cos(aw), np.sin(aw)])
        assert block_u @ block_w == pytest.approx(np.cos(au - aw).sum(), abs=1e-12)


class TestKernelSpecValidation:
    def test_lambda_must_be_positive(self):
        for lam in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                KernelSpec(lam=lam)

    def test_kind_accepts_strings(self):
        assert KernelSpec(kind="relu").kind is KernelKind.RELU
