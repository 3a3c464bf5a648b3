"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints a `criterion NN PASS` line with the
measured margins.  The full-scale benchmark criterion takes about half a
minute (26 s on a 2-core x86-64 host); everything else is seconds.
Criteria 3-9 call nala.checks functions with their own seeds (those of
3-6, 8 and 9 are the ones `nala verify-theorems` and `nala grad-check`
print); each asserts the verdict and that the bound is the one stated here.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nala import checks
from nala.attention import (
    BlockParams,
    block_forward,
    nala_causal_recurrent,
    nala_linear,
    nala_quadratic,
    random_block_params,
)
from nala.bench import run_scaling_sweep
from nala.cli import max_rel_dev, parse_and_dispatch
from nala.entropy import theorem1_scan
from nala.errors import DegenerateSequence
from nala.kernels import KernelSpec, phi_k, phi_q
from nala.linalg import make_rng


def _report(n, detail):
    print(f"criterion {n:02d} PASS: {detail}")


def test_criterion_01_oracle_equivalence():
    """Re-associated O(N) evaluator reproduces the explicit N x N form."""
    start = time.perf_counter()
    rng = make_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 17))
        lam = float(rng.choice([1.0, 2.0, 4.0]))
        spec = KernelSpec(lam=lam)
        Q, K, V = (rng.standard_normal((n, d)) for _ in range(3))
        dev = max_rel_dev(
            nala_linear(Q, K, V, spec).output, nala_quadratic(Q, K, V, spec).output
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _report(1, f"max rel deviation {worst:.3e} over 100 instances in {elapsed:.2f}s")


def test_criterion_02_causal_consistency():
    """Recurrent causal form equals the masked quadratic form at every row."""
    start = time.perf_counter()
    rng = make_rng(202)
    spec = KernelSpec(lam=2.0)
    worst = 0.0
    for _ in range(50):
        Q, K, V = (rng.standard_normal((32, 8)) for _ in range(3))
        dev = max_rel_dev(
            nala_causal_recurrent(Q, K, V, spec).output,
            nala_quadratic(Q, K, V, spec, causal=True).output,
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _report(2, f"max rel deviation {worst:.3e} over 50 instances in {elapsed:.2f}s")


def test_criterion_03_similarity_nonnegativity():
    """10^5 Gaussian query/key pairs produce no negative similarity."""
    spec = KernelSpec(lam=2.0)
    result = checks.similarity_nonnegative(make_rng(303), spec)
    assert result.bound == 0.0
    assert result.passed, result.detail
    # the rowwise sweep is the same quantity as the 1-D map product of one pair
    rng = make_rng(303)
    qs = rng.standard_normal((100_000, 16))
    ks = rng.standard_normal((100_000, 16))
    rows = [0, 1234, 99_999]
    sims = np.sum(phi_q(qs[rows], spec) * phi_k(ks[rows], spec), axis=1)
    for sim, i in zip(sims, rows):
        assert sim == pytest.approx(phi_q(qs[i], spec) @ phi_k(ks[i], spec), rel=1e-12)
    _report(3, f"0 violations over 100000 pairs, min similarity {result.measured:.3e}")


def test_criterion_04_trig_block_norm_preservation():
    """Sum of cos^2 + sin^2 over the sign-encoding block equals d."""
    d = 16
    result = checks.trig_block_norm(make_rng(404), d, KernelSpec(lam=2.0))
    assert result.bound == 1e-12
    assert result.passed, f"phi_k blocks: {result.detail}"
    # the same property on the angles themselves, computed here
    rng = make_rng(404)
    dirs = rng.standard_normal((1000, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    angles = (math.pi / 4) * np.tanh(dirs)
    totals = (np.cos(angles) ** 2 + np.sin(angles) ** 2).sum(axis=1)
    worst = float(np.abs(totals - d).max())
    assert worst <= 1e-12, f"max |total - d| = {worst:.3e}"
    _report(4, f"max |sum(cos^2+sin^2) - d| = {worst:.3e} over 1000 directions "
               f"({result.measured:.3e} from phi_k)")


def test_criterion_05_entropy_monotone_beyond_threshold():
    """Exponential-row entropy becomes strictly decreasing in the scale."""
    result = checks.exp_entropy_threshold(make_rng(505))
    assert result.bound == 300
    assert result.passed, result.detail
    with pytest.raises(DegenerateSequence):
        theorem1_scan(np.full(16, 0.3), np.geomspace(0.1, 20.0, 32))
    _report(5, f"monotone_after on {result.measured}/300 scans; constant rows rejected")


def test_criterion_06_scale_invariance_split():
    """Homogeneous kernels ignore query scale; the norm-aware kernel does not.

    checks.norm_response at verify-theorems' sizes and seed 7: one direction,
    N=128, d=16, 16 query scales in [0.5, 8].
    """
    results = checks.norm_response(make_rng(7), 1, 128, 16, np.geomspace(0.5, 8.0, 16), 2.0)
    nala, relu, fixed_power, _, softmax = results
    assert nala.bound == softmax.bound == -0.5
    assert relu.bound == fixed_power.bound == 1e-12
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    _report(6, f"relu {relu.measured:.2e}, fixed_power {fixed_power.measured:.2e} (<= 1e-12); "
               f"nala pearson {nala.measured:.4f} (< -0.5)")


def test_criterion_07_entropy_norm_correlations():
    """Inverse entropy-norm correlation for norm-aware kernels; flat baselines.

    checks.norm_response on 64 directions x 32 query norms over one key set;
    its docstring gives each kernel's clause and why.
    """
    start = time.perf_counter()
    results = checks.norm_response(make_rng(7), 64, 128, 16, np.geomspace(0.25, 16.0, 32), 2.0)
    elapsed = time.perf_counter() - start
    kernel_ids = [r.name.split()[0] for r in results]
    assert kernel_ids == ["nala", "relu", "fixed_power", "one_plus_elu", "softmax"]
    nala, relu, fixed_power, _, softmax = results
    assert nala.bound == softmax.bound == -0.5
    assert relu.bound == fixed_power.bound == 1e-12
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _report(7, "; ".join(f"{k}: {r.detail}" for k, r in zip(kernel_ids, results))
            + f"; runtime {elapsed:.1f}s")


def test_criterion_08_entropy_concavity_probe():
    """Finite-difference second differences of the entropy are nonpositive."""
    result = checks.entropy_concavity(make_rng(808))
    assert result.bound == 1e-8
    assert result.passed, result.detail
    _report(8, f"max second difference {result.measured:.3e} over 50 rows x 12 coordinates")


def test_criterion_09_jacobian_certification():
    """Analytic feature-map Jacobians match central finite differences."""
    query, key = checks.jacobians(make_rng(909), 8, KernelSpec(lam=2.0))
    assert query.bound == key.bound == 1e-6
    assert query.passed, f"query-map jacobian error {query.measured:.3e}"
    assert key.passed, f"key-map jacobian error {key.measured:.3e}"
    _report(9, f"max rel error: query map {query.measured:.2e}, key map {key.measured:.2e}")


def test_criterion_10_wall_clock_scaling():
    """O(N) and O(N^2) evaluators separate cleanly in fitted log-log slope.

    The two evaluators are swept separately from the same seed (identical
    instances, so checksums stay comparable); the O(N) sweep goes first so
    its millisecond-scale timings are not perturbed by the multi-GB
    allocations of the quadratic runs.
    """
    start = time.perf_counter()
    grid = [1024, 2048, 4096, 8192, 16384]
    spec = KernelSpec(lam=2.0)
    lin_records, lin_slopes = run_scaling_sweep(
        make_rng(10), grid, 32, spec, evaluator_ids=["nala_linear"],
        reps=7,
    )
    quad_records, quad_slopes = run_scaling_sweep(
        make_rng(10), grid, 32, spec, evaluator_ids=["nala_quadratic"],
        reps=5,
    )
    elapsed = time.perf_counter() - start

    timings = {
        r.evaluator_id: {} for r in (*lin_records, *quad_records)
    }
    for r in (*lin_records, *quad_records):
        assert r.reps > 0, f"{r.evaluator_id}@{r.n} skipped"
        timings[r.evaluator_id][r.n] = (r.wall_seconds, r.checksum)
    detail_times = "; ".join(
        f"{eid}: " + " ".join(f"{n}:{t[0]*1e3:.1f}ms" for n, t in sorted(by_n.items()))
        for eid, by_n in timings.items()
    )
    worst_checksum = max(
        abs(timings["nala_linear"][n][1] - timings["nala_quadratic"][n][1])
        / max(1.0, abs(timings["nala_quadratic"][n][1]))
        for n in grid
    )
    lin_slope = lin_slopes["nala_linear"]
    quad_slope = quad_slopes["nala_quadratic"]
    assert worst_checksum <= 1e-8, f"checksum disagreement {worst_checksum:.3e}"
    assert lin_slope <= 1.2, f"linear slope {lin_slope:.3f}; {detail_times}"
    assert quad_slope >= 1.8, f"quadratic slope {quad_slope:.3f}; {detail_times}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
    _report(
        10,
        f"slopes: linear {lin_slope:.3f} (<= 1.2), quadratic {quad_slope:.3f} "
        f"(>= 1.8); checksum dev {worst_checksum:.2e}; runtime {elapsed:.0f}s",
    )


def _zeroed(params: BlockParams) -> BlockParams:
    kwargs = {}
    for f in dataclasses.fields(params):
        v = getattr(params, f.name)
        if f.name.startswith(("w_", "ffn_")):
            v = np.zeros_like(v)
        kwargs[f.name] = v
    return BlockParams(**kwargs)


def test_criterion_11_block_identity_and_cli_determinism(tmp_path):
    """Zero-weight block is the identity; CLI output bytes depend only on flags.

    Benchmark timings are physical measurements, so their wall_seconds,
    min_seconds and iqr_seconds columns are excluded from the byte
    comparison; every seed-derived byte must still match.
    """
    rng = make_rng(1111)
    params = _zeroed(random_block_params(rng, 32, 4))
    X = rng.standard_normal((16, 32))
    out = block_forward(X, params, KernelSpec())
    assert np.array_equal(out, X), "zero-weight block is not the identity"

    invocations = {
        "entropy-scan": ["entropy-scan", "--seed", "7", "--n-dirs", "8", "--n", "32",
                         "--d", "8", "--c-steps", "8"],
        "equiv-check": ["equiv-check", "--seed", "7", "--n", "32", "--d", "8"],
        "grad-check": ["grad-check", "--seed", "7", "--d", "8"],
        "block-demo": ["block-demo", "--seed", "7", "--n", "16", "--d", "16",
                       "--heads", "4"],
        "verify-theorems": ["verify-theorems", "--seed", "7", "--n", "64", "--d", "8"],
        "bench": ["bench", "--seed", "7", "--n-grid", "64,128", "--reps", "5",
                  "--d", "8", "--evaluators", "nala_linear,nala_quadratic"],
    }
    for name, argv in invocations.items():
        paths = [tmp_path / f"{name}_{i}.out" for i in (0, 1)]
        for path in paths:
            code = parse_and_dispatch([*argv, "--out", str(path)])
            assert code == 0, f"{name} exited {code}"
        a, b = (p.read_text() for p in paths)
        if name == "bench":
            for column in ("wall_seconds", "min_seconds", "iqr_seconds"):
                a, b = _drop_column(a, column), _drop_column(b, column)
        assert a == b, f"{name} output differs between identical invocations"
    _report(11, "zero-weight identity exact; 6 subcommands byte-stable under fixed seed")


def _drop_column(csv_text, column):
    lines = csv_text.splitlines()
    idx = lines[0].split(",").index(column)
    return "\n".join(
        ",".join(v for i, v in enumerate(line.split(",")) if i != idx)
        for line in lines
    )
