"""Tests for the analytic Jacobians against the finite-difference harness."""

import hashlib
import tracemalloc

import _exact
import numpy as np
import pytest

from nala import checks
from nala.cli import parse_and_dispatch
from nala.errors import NearSingular, NonFinite
from nala.gradcheck import (
    admissible_point,
    finite_diff_jacobian,
    jac_phi_k,
    jac_phi_q,
    max_rel_error,
)
from nala.kernels import KernelSpec, phi_k, phi_q
from nala.linalg import make_rng


class TestFiniteDiffHarness:
    def test_identity_map(self):
        rng = make_rng(0)
        x = rng.standard_normal(6)
        jac = finite_diff_jacobian(lambda v: v, x)
        np.testing.assert_allclose(jac, np.eye(6), atol=1e-10)

    def test_linear_map_recovers_matrix(self):
        rng = make_rng(1)
        A = rng.standard_normal((5, 7))
        x = rng.standard_normal(7)
        jac = finite_diff_jacobian(lambda v: v @ A.T, x)
        np.testing.assert_allclose(jac, A, atol=1e-9)

    def test_elementwise_square(self):
        rng = make_rng(2)
        x = rng.standard_normal(5)
        jac = finite_diff_jacobian(lambda v: v**2, x)
        np.testing.assert_allclose(jac, np.diag(2.0 * x), atol=1e-8)

    @pytest.mark.parametrize("d", [2, 8, 16, 64])
    @pytest.mark.parametrize("direction", [True, False], ids=["phi_q", "phi_k"])
    def test_batched_sides_equal_per_column_loop(self, d, direction):
        # one map call per side on x +- diag(h) gives the columns that one
        # call per perturbed point gives, bit for bit
        spec = KernelSpec(lam=2.0)
        f = (lambda v: phi_q(v, spec)) if direction else (lambda v: phi_k(v, spec))
        x = admissible_point(make_rng(d), d, direction)
        cols = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = h = 1e-5 * max(1.0, abs(x[j]))
            cols.append((f(x + e) - f(x - e)) / (2.0 * h))
        np.testing.assert_array_equal(finite_diff_jacobian(f, x), np.stack(cols, axis=1))


class TestStacks:
    # an (m, d) stack is m points in one call: each point's result must be
    # the one-point call's, bit for bit
    @pytest.mark.parametrize("d", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("direction", [True, False], ids=["phi_q", "phi_k"])
    def test_stack_equals_single_points(self, d, lam, direction):
        spec = KernelSpec(lam=lam)
        f = (lambda v: phi_q(v, spec)) if direction else (lambda v: phi_k(v, spec))
        jac = jac_phi_q if direction else jac_phi_k
        rng = make_rng(100 * d + int(4 * lam))
        pts = np.array([admissible_point(rng, d, direction) for _ in range(5)])
        stacked_fd, stacked_jac = finite_diff_jacobian(f, pts), jac(pts, spec)
        assert stacked_fd.shape == stacked_jac.shape == (5, 2 * d, d)
        for i, x in enumerate(pts):
            np.testing.assert_array_equal(stacked_fd[i], finite_diff_jacobian(f, x))
            np.testing.assert_array_equal(stacked_jac[i], jac(x, spec))

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("direction", [True, False], ids=["phi_q", "phi_k"])
    def test_one_near_kink_row_rejects_the_stack(self, row, direction):
        rng = make_rng(11)
        pts = np.array([admissible_point(rng, 4, direction) for _ in range(5)])
        pts[row, 1] = 1e-8
        with pytest.raises(NearSingular):
            (jac_phi_q if direction else jac_phi_k)(pts, KernelSpec())

    def test_max_rel_error_normalizes_each_point_by_its_own_fd(self):
        rng = make_rng(12)
        a, fd = rng.standard_normal((2, 3, 8, 4))
        fd[1] *= 1e3  # a large point must not shrink the others' errors
        want = max(max_rel_error(a[i], fd[i]) for i in range(3))
        assert max_rel_error(a, fd) == want

    def test_nan_in_one_point_fails_grad_check(self, monkeypatch, capsys):
        # one finite-difference entry of the fourth point of the stack is NaN
        def poisoned(v, spec):
            out = phi_q(v, spec)
            if out.ndim == 3:
                out[3, 0, 0] = np.nan
            return out

        monkeypatch.setattr(checks, "phi_q", poisoned)
        code = parse_and_dispatch(["grad-check"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0] == "FAIL phi_q: max rel error nan over 50 points (tol 1e-06)"
        assert lines[1].startswith("PASS phi_k")


#: sha256 of _jacobian_pin_bytes.  A change to the Jacobians or to the
#: finite differences must not move a bit of their output.
#: The bytes assume numpy 2.4.6 running its AVX-512 (X86_V4) loops: with
#: NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" numpy's power and
#: tan round as libm does, and this pin fails (README, "Tests and acceptance suite").
JACOBIAN_BYTES_SHA256 = "85a0b890f8361cc819d233f776c1804726b28efc082b4c537f4607b18bc504ba"


def _jacobian_pin_bytes():
    """Analytic and finite-difference Jacobians of both maps, d 1 to 64, lambda 0.5, 2 and 8.

    Each case takes five admissible points as one stack, then the first
    point alone.
    """
    h = hashlib.sha256()
    for d in (1, 2, 8, 16, 64):
        for lam in (0.5, 2.0, 8.0):
            spec = KernelSpec(lam=lam)
            for direction in (True, False):
                f = (lambda v: phi_q(v, spec)) if direction else (lambda v: phi_k(v, spec))
                jac = jac_phi_q if direction else jac_phi_k
                rng = make_rng(100 * d + int(4 * lam))
                pts = np.array([admissible_point(rng, d, direction) for _ in range(5)])
                for x in (pts, pts[0]):
                    h.update(jac(x, spec).tobytes())
                    h.update(finite_diff_jacobian(f, x).tobytes())
    return h.hexdigest()


class TestJacobianBytes:
    def test_output_bytes_pinned(self):
        assert _jacobian_pin_bytes() == JACOBIAN_BYTES_SHA256


class TestExactJacobians:
    # against a 50-digit central difference (step 1e-20) of the exact maps;
    # the analytic forms came within 3.9e-16 (query) and 2.3e-16 (key).
    # This bounds the analytic Jacobians themselves, next to grad-check's
    # 1e-6 against float64 finite differences
    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("direction", [True, False], ids=["phi_q", "phi_k"])
    def test_within_1e_13_of_exact_arithmetic(self, lam, direction):
        spec = KernelSpec(lam=lam)
        jac = jac_phi_q if direction else jac_phi_k
        rng = make_rng(60 + int(4 * lam))
        worst = 0.0
        for _ in range(20):
            x = admissible_point(rng, 8, direction)
            ref = _exact.jacobian(x, lam, direction)
            err = np.abs(jac(x, spec) - ref).max() / max(1.0, np.abs(ref).max())
            worst = np.maximum(worst, err)  # keeps a NaN, which the builtin max drops
        assert worst <= 1e-13, f"worst rel error {worst:.3e}"


class TestMemory:
    def test_jacobians_at_d_128_stay_small(self):
        # one point per stack from d=128 on; at the parent (point by point)
        # the peak was 1.76 MiB, and all 50 points in one unbudgeted stack
        # took 69.1 MiB
        tracemalloc.start()
        try:
            checks.jacobians(make_rng(7), 128, KernelSpec(lam=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestQueryJacobian:
    def test_matches_finite_differences(self):
        rng = make_rng(3)
        spec = KernelSpec(lam=2.0)
        for _ in range(50):
            q = admissible_point(rng, 8, direction=True)
            fd = finite_diff_jacobian(lambda v: phi_q(v, spec), q, step_scale=1e-5)
            err = max_rel_error(jac_phi_q(q, spec), fd)
            assert err <= 1e-6, f"rel error {err:.3e} at {q}"

    def test_near_singular_point_rejected(self):
        # a zero query maps to zero features, but its Jacobian sits on the kink
        for q in ([1.0, 1e-5, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(NearSingular):
                jac_phi_q(np.array(q), KernelSpec())

    def test_coordinate_permutation_equivariance(self):
        rng = make_rng(4)
        spec = KernelSpec(lam=2.0)
        q = admissible_point(rng, 6, direction=True)
        perm = rng.permutation(6)
        J = jac_phi_q(q, spec)
        Jp = jac_phi_q(q[perm], spec)
        d = q.size
        # permuting the input permutes rows within each block and columns alike
        np.testing.assert_allclose(Jp[:d], J[:d][perm][:, perm], atol=1e-13)
        np.testing.assert_allclose(Jp[d:], J[d:][perm][:, perm], atol=1e-13)

    def test_jacobian_differs_under_input_scaling(self):
        # the norm feeds the exponent, so the map is not scale-equivariant
        rng = make_rng(5)
        spec = KernelSpec(lam=2.0)
        q = admissible_point(rng, 8, direction=True)
        J1 = jac_phi_q(q, spec)
        J2 = jac_phi_q(2.0 * q, spec)
        assert np.abs(J1 - J2).max() > 1e-6

    def test_convergence_order(self):
        # halving-by-ten the step should not worsen the agreement
        rng = make_rng(6)
        spec = KernelSpec(lam=2.0)
        q = admissible_point(rng, 8, direction=True)
        J = jac_phi_q(q, spec)
        coarse = max_rel_error(J, finite_diff_jacobian(lambda v: phi_q(v, spec), q, 1e-4))
        fine = max_rel_error(J, finite_diff_jacobian(lambda v: phi_q(v, spec), q, 1e-5))
        assert fine <= coarse or fine < 1e-8


class TestKeyJacobian:
    def test_matches_finite_differences(self):
        rng = make_rng(7)
        spec = KernelSpec(lam=2.0)
        for _ in range(50):
            k = admissible_point(rng, 8, direction=False)
            fd = finite_diff_jacobian(lambda v: phi_k(v, spec), k, step_scale=1e-5)
            err = max_rel_error(jac_phi_k(k, spec), fd)
            assert err <= 1e-6, f"rel error {err:.3e} at {k}"

    def test_small_entry_rejected(self):
        for k in ([1.0, 1e-8], [0.0, 0.0]):
            with pytest.raises(NearSingular):
                jac_phi_k(np.array(k), KernelSpec())

    def test_uniform_key_has_symmetric_angle_sensitivities(self):
        # equal entries give equal direction components, so every angle
        # responds identically and the magnitude path sits on the diagonal
        spec = KernelSpec(lam=1.0)
        k = np.full(4, 2.0)
        J = jac_phi_k(k, spec)
        d = k.size
        diag = np.diagonal(J[:d])
        assert np.allclose(diag, diag[0], atol=1e-13)
        off = J[:d][~np.eye(d, dtype=bool)]
        assert np.allclose(off, off[0], atol=1e-13)

    def test_lambda_one_all_positive_magnitude_derivative_is_identity_like(self):
        spec = KernelSpec(lam=1.0)
        k = np.array([0.5, 1.5, 2.5])
        J = jac_phi_k(k, spec)
        fd = finite_diff_jacobian(lambda v: phi_k(v, spec), k)
        np.testing.assert_allclose(J, fd, atol=1e-8)

    def test_works_at_other_exponents(self):
        rng = make_rng(8)
        for lam in (1.0, 3.0, 4.5):
            spec = KernelSpec(lam=lam)
            k = admissible_point(rng, 6, direction=False)
            fd = finite_diff_jacobian(lambda v: phi_k(v, spec), k, 1e-5)
            assert max_rel_error(jac_phi_k(k, spec), fd) <= 1e-6


class TestNonFiniteJacobians:
    # at lambda 1e308 the exponent's derivative overflows (query) and so does
    # |k|**lambda at |k| > 1 (key): without the check both would hold inf or NaN
    spec = KernelSpec(lam=1e308)

    def test_query_jacobian_raises(self):
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            jac_phi_q([0.5, -0.7, 0.9, 0.3], self.spec)

    def test_key_jacobian_raises(self):
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            jac_phi_k([1.5, -0.7, 0.9, 0.3], self.spec)


class TestMaxRelError:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_equals_two_temporary_formula(self, scale):
        # max(fd.max(), -fd.min()) is max |fd| bit for bit, since abs is exact
        rng = make_rng(9)
        a, fd = scale * rng.standard_normal((2, 64, 32))
        fd[3, 4] = -5.0 * scale  # the largest |fd| is a negative entry
        want = float(np.abs(a - fd).max() / max(1.0, np.abs(fd).max()))
        assert max_rel_error(a, fd) == want
        assert max_rel_error(-a, -fd) == want

    def test_leaves_its_arguments_unchanged(self):
        rng = make_rng(10)
        a, fd = rng.standard_normal((2, 8, 4))
        a0, fd0 = a.copy(), fd.copy()
        max_rel_error(a, fd)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(fd, fd0)
