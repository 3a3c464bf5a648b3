"""Tests for the entropy toolkit: bounds, scans, invariances, concavity probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nala import checks, entropy, kernels
from nala.entropy import (
    EntropyScanRecord,
    attention_row_entropy,
    concavity_probe,
    entropy_deviation_scan,
    norm_entropy_experiment,
    norm_entropy_sweep,
    pearson,
    pse,
    pse_of_exp,
    theorem1_scan,
)
from nala.errors import DegenerateSequence, InvalidPerturbation, NonFinite, NonPositiveSum
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
        # the second row's exact rescale flushes -1e-320 to -0.0
        for row in ([1.0, -0.5], [1e300, -1e-320]):
            with pytest.raises(ValueError, match="nonnegative"):
                pse(row)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN and inf are reported before a negative entry
        with pytest.raises(NonFinite, match="finite"):
            pse([-1.0, bad])

    def test_rows_reduce_independently(self):
        rows = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 0.0], [5.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(pse(rows), [pse(row) for row in rows])

    def test_any_all_zero_row_rejected(self):
        with pytest.raises(NonPositiveSum):
            pse(np.array([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("empty", [np.zeros(0), np.zeros((2, 0))])
    def test_empty_row_rejected(self, empty):
        with pytest.raises(NonPositiveSum):
            pse(empty)

    def test_row_whose_sum_overflows(self):
        # 1e308 + 1e308 is inf; the rows are summed after an exact rescale
        assert pse([1e308, 1e308]) == math.log(2)
        rows = np.array([[1e308, 1e308], [1.0, 1.0]])
        np.testing.assert_array_equal(pse(rows), [math.log(2)] * 2)

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

    def test_grid_matches_scalar_scales(self):
        rng = make_rng(15)
        grid = np.geomspace(0.1, 20.0, 32)
        for n in (4, 16, 64):
            x = rng.standard_normal(n)
            batched = pse_of_exp(x, grid)
            assert batched.shape == grid.shape
            for i, c in enumerate(grid):
                assert abs(batched[i] - pse_of_exp(x, c)) <= 2e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFinite, match="finite"):
            pse_of_exp(np.array([1.0, bad]), 2.0)

    def test_scaled_row_overflows(self):
        # c * x is inf at 1e300 * 1e10; the shift comes first, so nothing is nan
        assert pse_of_exp([1e300, 0.0], 1e10) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_scale_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="scales"):
            pse_of_exp([1.0, 2.0], bad)
        with pytest.raises(ValueError, match="scales"):
            pse_of_exp([1.0, 2.0], [0.5, bad])

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # without the check a nan gives all-nan entropies and no threshold
        with pytest.raises(NonFinite, match="finite"):
            theorem1_scan(np.array([1.0, bad, 2.0]), np.geomspace(0.1, 20.0, 16))

    def test_overflowing_scales_concentrate_instead_of_nan(self):
        scan = theorem1_scan([1e300, 0.0, 5.0], [1e8, 1e9, 1e10])
        np.testing.assert_array_equal(scan.entropies, [0.0, 0.0, 0.0])

    #: Scales from 1e-20, where every entropy rounds to ln N, up to 1000.
    STACK_GRID = np.concatenate([[1e-20, 2e-20, 3e-20], np.geomspace(0.1, 1000.0, 13)])

    def stack(self):
        return np.vstack([
            make_rng(16).standard_normal((5, 4)),
            [2.0, 2.0, 0.0, 1.0],    # tied maximum
            [0.0, 1.0, -0.5, 0.3],   # flat over the three tiny scales: suffix starts at 2
            [300.0, 0.0, 1.0, 2.0],  # entropy underflows to 0: no decreasing suffix
        ])

    def test_stack_equals_row_scans(self):
        X = self.stack()
        scan = theorem1_scan(X, self.STACK_GRID)
        rows = [theorem1_scan(x, self.STACK_GRID) for x in X]
        for field in ("c0_index", "entropies", "monotone_after", "tied_max"):
            stacked = getattr(scan, field)
            assert stacked.shape[0] == len(X)
            for i, row in enumerate(rows):
                assert np.array_equal(stacked[i], getattr(row, field)), (field, i)
        for row in rows:  # the suffix rule as a loop
            i = row.entropies.size - 1
            while i > 0 and row.entropies[i - 1] > row.entropies[i]:
                i -= 1
            assert row.c0_index == i and row.monotone_after == (i <= row.entropies.size - 2)
        # the cases the stack is built to cover do occur
        assert rows[5].tied_max and rows[6].c0_index == 2
        assert not rows[7].monotone_after and rows[7].c0_index == self.STACK_GRID.size - 1
        for c in (0.7, self.STACK_GRID):
            np.testing.assert_array_equal(pse_of_exp(X, c), [pse_of_exp(x, c) for x in X])

    def test_constant_row_in_stack_rejected(self):
        X = self.stack()
        X[3] = 1.5
        with pytest.raises(DegenerateSequence):
            theorem1_scan(X, self.STACK_GRID)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_in_stack_rejected(self, bad):
        X = self.stack()
        X[6, 2] = bad
        with pytest.raises(NonFinite, match="finite"):
            theorem1_scan(X, self.STACK_GRID)
        with pytest.raises(NonFinite, match="finite"):
            pse_of_exp(X, 1.0)

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
        _, dev = entropy_deviation_scan(self.u, self.K, KernelSpec(kind="relu"), self.grid)
        assert dev <= 1e-12

    def test_fixed_power_invariant(self):
        spec = KernelSpec(kind="fixed_power", lam=3.0)
        _, dev = entropy_deviation_scan(self.u, self.K, spec, self.grid)
        assert dev <= 1e-12

    def test_norm_aware_kernel_rejected_here_but_varies(self):
        # rejected as scale-invariant: the query norm moves the entropy
        _, dev = entropy_deviation_scan(self.u, self.K, KernelSpec(), self.grid)
        assert dev > 1e-3

    def test_one_plus_elu_rejected_and_genuinely_varies(self):
        # 1 + elu is not positively homogeneous (the +1 breaks scaling), so
        # it is not scale-invariant: its attention entropy measurably moves
        # with the query scale.
        _, dev = entropy_deviation_scan(
            self.u, self.K, KernelSpec(kind="one_plus_elu"), self.grid
        )
        assert dev > 1e-6

    def test_softmax_varies(self):
        _, dev = entropy_deviation_scan(self.u, self.K, None, self.grid)
        assert dev > 0.1

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="scales must be finite and positive"):
            entropy_deviation_scan(self.u, self.K, KernelSpec(), [bad, 1.0])

    @pytest.mark.parametrize("lam", [4.0, 8.0, 16.0])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_homogeneous_lines_pass_at_large_lambda(self, seed, lam):
        # verify-theorems' sizes: one direction, N=128, d=16, scales [0.5, 8].
        # Small keys at large lambda give small denominators; the readout
        # adds nothing to them, so the spread stays at roundoff.
        grid = np.geomspace(0.5, 8.0, 16)
        _, relu, fixed_power, *_ = checks.norm_response(make_rng(seed), 1, 128, 16, grid, lam)
        for r in (relu, fixed_power):
            assert r.bound == 1e-12
            assert r.passed, f"{r.name}: {r.detail}"


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
        grid = np.geomspace(0.25, 16.0, 8)
        sweep = norm_entropy_sweep(make_rng(9), [KernelSpec(kind="fixed_power")], 4, 16, 4, grid)
        ents = sweep["fixed_power"]
        assert ents.shape == (4, 8)
        assert np.var(ents, axis=1).max() <= 1e-12
        # per-direction entropies are constant, so the pooled covariance with
        # the (per-direction identical) scale grid cancels: nan or ~0
        c = pearson(np.tile(grid, 4), ents.ravel())
        assert math.isnan(c) or abs(c) < 1e-9

    def test_softmax_correlation_strongly_negative(self):
        rng = make_rng(10)
        grid = np.geomspace(0.25, 16.0, 8)
        _, corr = norm_entropy_experiment(rng, [], 8, 32, 8, grid, softmax_too=True)
        assert corr["softmax"] < -0.5

    def test_norm_aware_entropy_decreases_along_every_direction(self):
        rng = make_rng(11)
        grid = np.geomspace(0.25, 16.0, 16)
        ents = norm_entropy_sweep(rng, [KernelSpec()], 8, 32, 8, grid)["nala"]
        assert ents.shape == (8, 16)
        assert np.all(np.diff(ents, axis=1) < 0)

    def test_check_fails_every_direction_without_a_norm_response(self, monkeypatch):
        # a constant query exponent makes nala's rows blind to the norm
        grid = np.geomspace(0.25, 16.0, 16)
        assert checks.norm_response(make_rng(11), 8, 32, 8, grid, 2.0)[0].passed
        monkeypatch.setattr(kernels, "power_exponent", lambda norm, spec: spec.lam)
        nala = checks.norm_response(make_rng(11), 8, 32, 8, grid, 2.0)[0]
        assert not nala.passed
        assert "0/8 directions strictly decreasing" in nala.detail
        assert nala.detail.endswith(f"fails at directions {list(range(8))}")

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="scales must be finite and positive"):
            norm_entropy_experiment(make_rng(1), [KernelSpec()], 2, 8, 4, [bad, 1.0])

    def test_repeated_kernel_kind_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            norm_entropy_sweep(make_rng(1), [KernelSpec(), KernelSpec(lam=4.0)], 2, 8, 4, [1.0])


_SWEEP_SPECS = [
    KernelSpec(),
    KernelSpec(kind="relu"),
    KernelSpec(kind="fixed_power", lam=3.0),
    KernelSpec(kind="one_plus_elu"),
    None,
]


def _spec_id(spec):
    return "softmax" if spec is None else spec.kind.value


class TestBatchedSweep:
    """The sweeps evaluate all rows of a pass in one call; each row must
    still be what a one-row evaluation gives."""

    @pytest.mark.parametrize("spec", _SWEEP_SPECS, ids=_spec_id)
    def test_deviation_scan_matches_per_row_evaluation(self, spec):
        rng = make_rng(12)
        K = rng.standard_normal((48, 6))
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        grid = np.geomspace(0.25, 16.0, 11)
        ents, spread = entropy_deviation_scan(u, K, spec, grid)
        per_row = np.array([attention_row_entropy(c * u, K, spec) for c in grid])
        assert ents.shape == grid.shape
        assert np.abs(ents - per_row).max() <= 1e-13
        assert spread == ents.max() - ents.min()

    def test_experiment_records_are_direction_major_and_match_per_row(self):
        n_dirs, N, d = 5, 24, 6
        grid = np.geomspace(0.5, 8.0, 7)
        specs = [KernelSpec(), KernelSpec(kind="relu")]
        records, _ = norm_entropy_experiment(
            make_rng(13), specs, n_dirs, N, d, grid, softmax_too=True
        )
        # the same draws the experiment makes, in the same order
        rng = make_rng(13)
        K = rng.standard_normal((N, d))
        dirs = rng.standard_normal((n_dirs, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        per_pass = n_dirs * grid.size
        assert len(records) == 3 * per_pass
        for p, spec in enumerate(specs + [None]):
            chunk = records[p * per_pass : (p + 1) * per_pass]
            for i, r in enumerate(chunk):
                assert r.kernel_id == _spec_id(spec)
                assert r.direction_id == i // grid.size
                assert r.query_norm == grid[i % grid.size]
                expected = attention_row_entropy(r.query_norm * dirs[r.direction_id], K, spec)
                assert abs(r.entropy - expected) <= 1e-13

    def test_one_key_map_and_one_evaluator_call_per_pass(self, monkeypatch):
        calls = {"phi_k": 0, "nala_quadratic": 0, "softmax_attention": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(kernels, "phi_k", counting("phi_k", kernels.phi_k))
        for name in ("nala_quadratic", "softmax_attention"):
            monkeypatch.setattr(entropy, name, counting(name, getattr(entropy, name)))

        grid = np.geomspace(0.5, 8.0, 6)
        specs = [KernelSpec(), KernelSpec(kind="fixed_power")]
        norm_entropy_experiment(make_rng(14), specs, 4, 16, 4, grid, softmax_too=True)
        assert calls == {"phi_k": 1, "nala_quadratic": 2, "softmax_attention": 1}

        calls.update(dict.fromkeys(calls, 0))
        u = np.array([0.6, 0.8, 0.0, 0.0])
        entropy_deviation_scan(u, make_rng(15).standard_normal((16, 4)), KernelSpec(), grid)
        assert calls == {"phi_k": 1, "nala_quadratic": 1, "softmax_attention": 0}


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
        result = checks.entropy_concavity(make_rng(12))
        assert result.passed and result.bound == 1e-8, result.detail

    def test_analytic_sign_term_nonpositive(self):
        # 1 - s / x_m <= 0 for every coordinate, since x_m <= s
        rng = make_rng(13)
        x = rng.uniform(0.1, 2.0, size=9)
        s = x.sum()
        assert np.all(1.0 - s / x <= 0.0)

    def test_step_leaving_domain_rejected(self):
        with pytest.raises(InvalidPerturbation):
            concavity_probe(np.array([0.5, 1.0]), 0, [0.6])

    def test_step_leaving_domain_rejected_for_any_listed_coordinate(self):
        with pytest.raises(InvalidPerturbation, match="step 0.6 .* coordinate 1$"):
            concavity_probe(np.array([1.0, 0.5, 1.0]), [0, 1, 2], [1e-4, 0.6])

    def test_coordinate_sequence_equals_int_form(self):
        rng = make_rng(16)
        steps = [1e-2, 1e-4]
        for _ in range(20):
            x = rng.uniform(0.2, 1.2, size=12)
            rows = concavity_probe(x, range(x.size), steps)
            assert rows.shape == (x.size, len(steps))
            for m in range(x.size):
                np.testing.assert_array_equal(rows[m], concavity_probe(x, m, steps))

    @pytest.mark.parametrize("index", [3, [0, 5, 11]], ids=["int", "sequence"])
    def test_stack_equals_per_row_calls(self, index):
        x = make_rng(17).uniform(0.2, 1.2, size=(30, 12))
        steps = [1e-2, 1e-4]
        rows = concavity_probe(x, index, steps)
        assert rows.shape == (30, *np.shape(concavity_probe(x[0], index, steps)))
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(rows[i], concavity_probe(x[i], index, steps))

    def test_stack_step_leaving_domain_names_the_coordinate(self):
        x = np.ones((3, 4))
        x[2, 1] = 0.5
        with pytest.raises(InvalidPerturbation, match="step 0.6 .* coordinate 1$"):
            concavity_probe(x, [0, 1, 2], [0.6])

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
