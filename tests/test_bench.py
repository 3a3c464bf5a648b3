"""Tests for the scaling benchmark harness (small grids; slopes are checked
at full scale by the acceptance suite)."""

import math
import types

import numpy as np
import pytest

from nala import bench
from nala.bench import BenchRecord, EVALUATORS, fit_loglog_slope, run_scaling_sweep
from nala.cli import parse_and_dispatch
from nala.kernels import KernelSpec
from nala.linalg import make_rng


class TestSlopeFit:
    def test_exact_powers(self):
        ns = [256, 512, 1024, 2048]
        for power in (1.0, 2.0):
            ts = [1e-6 * n**power for n in ns]
            assert fit_loglog_slope(ns, ts) == pytest.approx(power, abs=1e-12)


class TestScalingSweep:
    def test_records_cover_grid_and_checksums_agree(self):
        rng = make_rng(0)
        records, slopes = run_scaling_sweep(
            rng, [64, 128], 8, KernelSpec(lam=2.0),
            evaluator_ids=["nala_quadratic", "nala_linear"], reps=2,
        )
        assert len(records) == 4
        assert all(isinstance(r, BenchRecord) for r in records)
        by_n = {}
        for r in records:
            assert r.reps == 2 and r.wall_seconds > 0 and math.isfinite(r.checksum)
            by_n.setdefault(r.n, {})[r.evaluator_id] = r.checksum
        for n, sums in by_n.items():
            a, b = sums["nala_quadratic"], sums["nala_linear"]
            assert abs(a - b) / max(1.0, abs(b)) <= 1e-8

    def test_quadratic_skipped_above_cap(self):
        rng = make_rng(1)
        records, slopes = run_scaling_sweep(
            rng, [32, 64], 4, KernelSpec(),
            evaluator_ids=["nala_quadratic", "nala_linear"], reps=1,
            quad_cap=32,
        )
        skipped = [r for r in records if r.reps == 0]
        assert [(r.evaluator_id, r.n) for r in skipped] == [("nala_quadratic", 64)]
        assert math.isnan(skipped[0].wall_seconds)
        assert math.isnan(skipped[0].min_seconds) and math.isnan(skipped[0].iqr_seconds)
        # slope fitting needs two points; the capped evaluator has only one
        assert "nala_quadratic" not in slopes
        assert "nala_linear" in slopes

    def test_timing_does_not_alter_numerics(self):
        rng = make_rng(2)
        spec = KernelSpec(lam=2.0)
        Q, K = (rng.standard_normal((64, 8)) for _ in range(2))
        V = rng.standard_normal((64, 8))
        reference = {eid: EVALUATORS[eid](Q, K, V, spec).output for eid in EVALUATORS}
        timed = {eid: EVALUATORS[eid](Q, K, V, spec).output for eid in EVALUATORS}
        for eid in EVALUATORS:
            np.testing.assert_allclose(timed[eid], reference[eid], atol=1e-10)

    def test_min_and_spread_around_the_median(self):
        records, _ = run_scaling_sweep(
            make_rng(5), [64, 128], 8, KernelSpec(),
            evaluator_ids=["nala_linear"], reps=5,
        )
        for r in records:
            assert 0 < r.min_seconds <= r.wall_seconds
            assert r.iqr_seconds >= 0
        single, _ = run_scaling_sweep(
            make_rng(5), [64], 8, KernelSpec(),
            evaluator_ids=["nala_linear"], reps=1,
        )
        assert single[0].min_seconds == single[0].wall_seconds
        assert single[0].iqr_seconds == 0.0

    def test_grid_is_visited_round_robin(self, monkeypatch):
        # every warmup pass, then every timed pass, runs each point once,
        # largest N first, so a slow phase of the host lands on every N alike
        calls = []

        def recording(evaluator_id):
            def evaluate(Q, K, V, spec):
                calls.append((evaluator_id, Q.shape[0]))
                return types.SimpleNamespace(output=np.zeros(1))
            return evaluate

        monkeypatch.setattr(bench, "EVALUATORS", {e: recording(e) for e in ("nala_linear", "softmax")})
        records, _ = run_scaling_sweep(make_rng(6), [32, 64], 4, KernelSpec(), reps=3, quad_cap=32)
        one_pass = [("nala_linear", 64), ("softmax", 32), ("nala_linear", 32)]
        assert calls == one_pass * (bench._WARMUPS + 3)
        assert [(r.evaluator_id, r.n, r.reps) for r in records] == [
            ("nala_linear", 32, 3), ("softmax", 32, 3), ("nala_linear", 64, 3), ("softmax", 64, 0)
        ]

    def test_instances_drawn_up_front_in_grid_order(self, monkeypatch):
        # N by N, Q then K then V: the stream of drawing each N's instance
        # just before timing it, so checksums do not depend on the visiting order
        seen = {}

        def recording(Q, K, V, spec):
            seen.setdefault(Q.shape[0], (Q, K, V))
            return types.SimpleNamespace(output=np.zeros(1))

        monkeypatch.setattr(bench, "EVALUATORS", {"nala_linear": recording})
        run_scaling_sweep(make_rng(7), [16, 8], 4, KernelSpec(), reps=1)
        rng = make_rng(7)
        for n in (16, 8):
            for drawn in seen[n]:
                np.testing.assert_array_equal(drawn, rng.standard_normal((n, 4)))

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ValueError):
            run_scaling_sweep(make_rng(3), [32], 4, KernelSpec(), evaluator_ids=["nope"])

    @pytest.mark.parametrize("n_grid", [[], [0, 16], [16, 16]],
                             ids=["empty", "non_positive", "repeated"])
    def test_bad_grid_rejected(self, n_grid):
        with pytest.raises(ValueError, match="n_grid"):
            run_scaling_sweep(make_rng(3), n_grid, 4, KernelSpec(), evaluator_ids=["nala_linear"])

    def test_same_seed_same_checksums(self):
        a, _ = run_scaling_sweep(
            make_rng(4), [64], 8, KernelSpec(),
            evaluator_ids=["nala_linear"], reps=1,
        )
        b, _ = run_scaling_sweep(
            make_rng(4), [64], 8, KernelSpec(),
            evaluator_ids=["nala_linear"], reps=1,
        )
        assert a[0].checksum == b[0].checksum


@pytest.mark.parametrize("grid", [",", "0,16", "16,16"], ids=["empty", "non_positive", "repeated"])
def test_cli_bad_grid_exits_2(grid, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert parse_and_dispatch(["bench", "--n-grid", grid, "--reps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: n_grid") and not out.exists()
