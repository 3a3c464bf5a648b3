"""Tests for the entropy toolkit: bounds, scans, invariances, concavity probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nala.entropy import (
    EntropyScanRecord,
    concavity_probe,
    entropy_deviation_scan,
    norm_entropy_experiment,
    pearson,
    prop2_invariance_check,
    pse,
    pse_of_exp,
    theorem1_scan,
)
from nala.errors import (
    DegenerateSequence,
    InvalidPerturbation,
    NonPositiveSum,
    WrongKernel,
)
from nala.kernels import KernelSpec
from nala.linalg import make_rng


class TestPse:
    def test_uniform_hits_log_n(self):
        assert pse([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_one_hot_is_zero(self):
        assert pse([5.0, 0.0, 0.0]) == 0.0

    def test_small_sequence_frozen_value(self):
        # -sum (x/6) ln(x/6) for (1,2,3), frozen from a 40-digit evaluation
        assert pse([1.0, 2.0, 3.0]) == pytest.approx(1.0114042647073518, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(NonPositiveSum):
            pse(np.zeros(4))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            pse([1.0, -0.5])

    @given(
        st.lists(st.floats(0.0, 1e3), min_size=2, max_size=32).filter(
            lambda xs: sum(xs) > 0
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, xs):
        h = pse(np.array(xs))
        assert -1e-12 <= h <= math.log(len(xs)) + 1e-9

    def test_scale_invariance(self):
        rng = make_rng(0)
        x = rng.uniform(0.1, 5.0, size=16)
        for c in (1e-3, 0.5, 7.0, 1e4):
            assert pse(c * x) == pytest.approx(pse(x), abs=1e-12)


class TestPseOfExp:
    def test_constant_sequence_gives_log_n(self):
        assert pse_of_exp(np.full(8, 3.7), 2.0) == pytest.approx(math.log(8), abs=1e-12)

    def test_zero_scale_gives_log_n(self):
        rng = make_rng(1)
        x = rng.standard_normal(16)
        assert pse_of_exp(x, 0.0) == pytest.approx(math.log(16), abs=1e-12)

    def test_large_scale_concentrates(self):
        assert pse_of_exp(np.array([1.0, 0.5]), 50.0) < 0.01

    def test_matches_direct_definition_at_moderate_scale(self):
        rng = make_rng(2)
        x = rng.standard_normal(12)
        direct = pse(np.exp(3.0 * x))
        assert pse_of_exp(x, 3.0) == pytest.approx(direct, abs=1e-12)

    def test_stable_where_direct_form_overflows(self):
        x = np.array([500.0, -500.0, 0.0])
        h = pse_of_exp(x, 10.0)
        assert 0.0 <= h < 1e-10  # fully concentrated, no overflow

    def test_shift_invariance(self):
        rng = make_rng(3)
        x = rng.standard_normal(10)
        for shift in (-100.0, 0.3, 42.0):
            assert pse_of_exp(x + shift, 1.7) == pytest.approx(
                pse_of_exp(x, 1.7), abs=1e-12
            )


class TestTheorem1Scan:
    def test_unique_max_becomes_monotone(self):
        rng = make_rng(4)
        grid = np.geomspace(0.1, 20.0, 32)
        for _ in range(20):
            scan = theorem1_scan(rng.standard_normal(16), grid)
            assert scan.monotone_after
            assert scan.entropies[scan.c0_index] > scan.entropies[-1]

    def test_constant_sequence_rejected(self):
        with pytest.raises(DegenerateSequence):
            theorem1_scan(np.full(8, 1.5), np.geomspace(0.1, 20.0, 16))

    def test_entropy_vanishes_at_large_scale(self):
        rng = make_rng(5)
        x = rng.standard_normal(8)
        scan = theorem1_scan(x, np.geomspace(0.1, 200.0, 48))
        assert scan.entropies[-1] < 1e-6

    def test_tie_flagged_but_scanned(self):
        x = np.array([2.0, 2.0, 0.0, 1.0])
        scan = theorem1_scan(x, np.geomspace(0.1, 20.0, 16))
        assert scan.tied_max
        # entropy converges to ln(2) for a two-way tie, decreasing throughout
        assert scan.monotone_after
        assert scan.entropies[-1] == pytest.approx(math.log(2), abs=1e-6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            theorem1_scan(np.array([1.0, 2.0]), [2.0, 1.0])
        with pytest.raises(ValueError):
            theorem1_scan(np.array([1.0, 2.0]), [-1.0, 1.0])


class TestScaleInvarianceChecks:
    def setup_method(self):
        rng = make_rng(7)
        self.K = rng.standard_normal((64, 8))
        u = rng.standard_normal(8)
        self.u = u / np.linalg.norm(u)
        self.grid = np.geomspace(0.5, 8.0, 12)

    def test_relu_invariant(self):
        dev = prop2_invariance_check(self.u, self.K, KernelSpec(kind="relu"), self.grid)
        assert dev <= 1e-12

    def test_fixed_power_invariant(self):
        spec = KernelSpec(kind="fixed_power", lam=3.0)
        assert prop2_invariance_check(self.u, self.K, spec, self.grid) <= 1e-12

    def test_norm_aware_kernel_rejected_here_but_varies(self):
        with pytest.raises(WrongKernel):
            prop2_invariance_check(self.u, self.K, KernelSpec(), self.grid)
        _, dev = entropy_deviation_scan(self.u, self.K, KernelSpec(), self.grid)
        assert dev > 1e-3

    def test_one_plus_elu_rejected_and_genuinely_varies(self):
        # 1 + elu is not positively homogeneous (the +1 breaks scaling), so
        # it does not qualify for the invariance check; its attention
        # entropy measurably moves with the query scale.
        with pytest.raises(WrongKernel):
            prop2_invariance_check(
                self.u, self.K, KernelSpec(kind="one_plus_elu"), self.grid
            )
        _, dev = entropy_deviation_scan(
            self.u, self.K, KernelSpec(kind="one_plus_elu"), self.grid
        )
        assert dev > 1e-6

    def test_softmax_varies(self):
        _, dev = entropy_deviation_scan(self.u, self.K, None, self.grid)
        assert dev > 0.1


class TestNormEntropyExperiment:
    def test_record_layout_and_ordering(self):
        rng = make_rng(8)
        specs = [KernelSpec(kind="relu"), KernelSpec()]
        grid = np.geomspace(0.5, 4.0, 5)
        records, corr = norm_entropy_experiment(rng, specs, 3, 16, 4, grid, softmax_too=True)
        assert len(records) == 3 * 5 * 3  # kernels (incl. softmax) x dirs x grid
        assert [r.kernel_id for r in records[:15]] == ["relu"] * 15
        assert records[-1].kernel_id == "softmax"
        kernel_ids = {r.kernel_id for r in records}
        assert kernel_ids == {"relu", "nala", "softmax"}
        for r in records:
            assert 0.0 <= r.entropy <= math.log(16) + 1e-9

    def test_homogeneous_kernel_entropy_constant_per_direction(self):
        rng = make_rng(9)
        grid = np.geomspace(0.25, 16.0, 8)
        records, corr = norm_entropy_experiment(
            rng, [KernelSpec(kind="fixed_power")], 4, 16, 4, grid
        )
        for dir_id in range(4):
            ents = [r.entropy for r in records if r.direction_id == dir_id]
            assert np.var(ents) <= 1e-12
        # per-direction entropies are constant, so the pooled covariance with
        # the (per-direction identical) scale grid cancels: nan or ~0
        c = corr["fixed_power"]
        assert math.isnan(c) or abs(c) < 1e-9

    def test_softmax_correlation_strongly_negative(self):
        rng = make_rng(10)
        grid = np.geomspace(0.25, 16.0, 8)
        _, corr = norm_entropy_experiment(rng, [], 8, 32, 8, grid, softmax_too=True)
        assert corr["softmax"] < -0.5

    def test_norm_aware_entropy_decreases_along_every_direction(self):
        rng = make_rng(11)
        grid = np.geomspace(0.25, 16.0, 16)
        records, _ = norm_entropy_experiment(rng, [KernelSpec()], 8, 32, 8, grid)
        for dir_id in range(8):
            ents = np.array([r.entropy for r in records if r.direction_id == dir_id])
            assert np.all(np.diff(ents) < 0)


class TestPearson:
    def test_perfect_anticorrelation(self):
        x = np.arange(10.0)
        assert pearson(x, -2.0 * x + 3.0) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_side_is_nan(self):
        assert math.isnan(pearson(np.arange(5.0), np.ones(5)))

    def test_roundoff_jitter_on_a_flat_curve_is_nan(self):
        # a homogeneous kernel's entropy curve: ~4.8 nats with a roundoff-
        # sized drift that an absolute std floor would read as correlation
        x = np.geomspace(0.25, 16.0, 16)
        assert math.isnan(pearson(x, 4.8 + 1e-13 * x))
        assert math.isnan(pearson(4.8 + 1e-13 * x, x))
        # a small but real response is kept
        assert pearson(x, 4.8 - 1e-3 * x) == pytest.approx(-1.0, abs=1e-9)


class TestConcavityProbe:
    def test_uniform_row_is_concave(self):
        out = concavity_probe(np.ones(4), 0, [1e-4])
        # analytic second derivative at the uniform row is (1 - n) / n^2
        assert out[0] == pytest.approx(-3.0 / 16.0, rel=1e-4)
        assert out[0] < 0

    def test_minor_coordinate_of_skewed_row_is_concave(self):
        assert concavity_probe(np.array([1.0, 10.0, 10.0]), 0, [1e-4])[0] < 0

    def test_dominant_coordinate_can_be_convex(self):
        # concavity is a small-coordinate property: bumping a coordinate
        # that carries most of the sum decelerates the entropy drop
        out = concavity_probe(np.array([10.0, 1.0, 1.0]), 0, [1e-4])
        assert out[0] == pytest.approx(0.0039411, rel=1e-3)

    def test_nondominant_coordinates_concave_on_random_rows(self):
        rng = make_rng(12)
        for _ in range(50):
            x = rng.uniform(0.2, 1.2, size=12)
            for m in range(12):
                assert concavity_probe(x, m, [1e-4])[0] <= 1e-8

    def test_analytic_sign_term_nonpositive(self):
        # 1 - s / x_m <= 0 for every coordinate, since x_m <= s
        rng = make_rng(13)
        x = rng.uniform(0.1, 2.0, size=9)
        s = x.sum()
        assert np.all(1.0 - s / x <= 0.0)

    def test_step_leaving_domain_rejected(self):
        with pytest.raises(InvalidPerturbation):
            concavity_probe(np.array([0.5, 1.0]), 0, [0.6])

    def test_truncation_shrinks_with_step(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        coarse, fine = concavity_probe(x, 1, [1e-2, 1e-4])
        exact = fine  # 1e-4 already at rounding plateau for this magnitude
        assert abs(coarse - exact) > 0  # h^2 truncation visible at 1e-2
        assert coarse == pytest.approx(fine, rel=1e-3)


class TestRecordInvariants:
    def test_entropy_within_bounds_on_defaults(self):
        rng = make_rng(14)
        grid = np.geomspace(0.25, 16.0, 4)
        records, _ = norm_entropy_experiment(rng, [KernelSpec()], 2, 8, 4, grid)
        for r in records:
            assert isinstance(r, EntropyScanRecord)
            assert 0.0 <= r.entropy <= math.log(8) + 1e-9
            assert r.query_norm > 0
