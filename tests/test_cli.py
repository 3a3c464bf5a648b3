"""Tests for the command-line interface and CSV emission."""

import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nala.cli import (
    BlockDemoRecord,
    EquivRecord,
    build_parser,
    max_rel_dev,
    parse_and_dispatch,
    write_csv,
)
from nala.entropy import EntropyScanRecord


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = parse_and_dispatch([*argv, "--out", str(out)])
    return code, out


class TestWriteCsv:
    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path), EntropyScanRecord)
        assert path.read_bytes() == b"kernel_id,query_norm,entropy,direction_id\n"

    def test_schema_and_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv([EntropyScanRecord("nala", 0.25, 1.0 / 3.0, 4)], str(path), EntropyScanRecord)
        lines = path.read_text().splitlines()
        assert lines[0] == "kernel_id,query_norm,entropy,direction_id"
        assert lines[1] == "nala,0.25,0.333333333,4"

    def test_lambda_column_rename(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv([EquivRecord(8, 4, 2.0, 1e-15)], str(path), EquivRecord)
        assert path.read_text().splitlines()[0] == "n,d,lambda,max_rel_dev"

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = [BlockDemoRecord(0, 0, math.pi), BlockDemoRecord(0, 1, -1e-9)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, str(a), BlockDemoRecord)
        write_csv(records, str(b), BlockDemoRecord)
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv([BlockDemoRecord(0, 0, 1.0)], str(path), BlockDemoRecord)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_unwritable_path_reports_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv([BlockDemoRecord(0, 0, 1.0)], "no/such/dir/x.csv", BlockDemoRecord)


class TestMaxRelDev:
    def test_scales_small_magnitudes_absolutely(self):
        a = np.array([0.0, 1.0])
        b = np.array([1e-12, 1.0 + 1e-6])
        assert max_rel_dev(a, b) == pytest.approx(1e-6, rel=1e-3)


class _ReadRecorder:
    """Stands in for the parsed flags and records every attribute read."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


SMALL_ARGV = {
    "entropy-scan": ["--n", "16", "--d", "4", "--n-dirs", "2", "--c-steps", "4"],
    "equiv-check": ["--n", "16", "--d", "4"],
    "grad-check": ["--d", "4"],
    "bench": ["--n-grid", "32,64", "--reps", "1", "--d", "4", "--evaluators", "nala_linear"],
    "block-demo": ["--n", "4", "--d", "8", "--heads", "2"],
    "verify-theorems": ["--n", "16", "--d", "4"],
}


class TestFlags:
    @pytest.mark.parametrize("subcommand", SMALL_ARGV)
    def test_every_accepted_flag_is_read(self, subcommand, tmp_path):
        argv = [subcommand, *SMALL_ARGV[subcommand], "--out", str(tmp_path / "out")]
        args = build_parser().parse_args(argv)
        recorder = _ReadRecorder(args)
        args.run(recorder)
        assert recorder.read == set(vars(args)) - {"subcommand", "run"}

    @pytest.mark.parametrize("argv, message", [
        (["verify-theorems", "--kernel", "relu"], "unrecognized arguments: --kernel relu"),
        (["equiv-check", "--causal"], "unrecognized arguments: --causal"),
        (["grad-check", "--n", "64"], "unrecognized arguments: --n 64"),
        (["grad-check", "--kernel", "nala"], "unrecognized arguments: --kernel nala"),
        (["block-demo", "--kernel", "softmax"], "invalid choice: 'softmax'"),
    ])
    def test_flag_a_subcommand_does_not_read_is_usage_error(self, argv, message, capsys):
        assert parse_and_dispatch(argv) == 2
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_kernel_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "entropy-scan", "--kernel", "bogus")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert parse_and_dispatch(["frobnicate"]) == 2

    def test_negative_n_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "entropy-scan", "--n", "-4")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--lambda", "--c-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, flag, value):
        code, _ = run(tmp_path, "entropy-scan", flag, value)
        assert code == 2 and "expected a positive finite number" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert parse_and_dispatch(["--help"]) == 0
        assert "entropy-scan" in capsys.readouterr().out


class TestEntropyScan:
    def test_relu_scan_constant_per_direction(self, tmp_path):
        code, out = run(
            tmp_path, "entropy-scan", "--kernel", "relu", "--n-dirs", "4",
            "--n", "32", "--d", "8", "--c-steps", "8",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kernel_id,query_norm,entropy,direction_id"
        kernel_ids, _, ents, dir_ids = zip(*(line.split(",") for line in lines[1:]))
        assert set(kernel_ids) == {"relu"}
        # direction-major rows: 4 directions of 8 scales each
        assert [int(i) for i in dir_ids] == [i for i in range(4) for _ in range(8)]
        assert np.var(np.array(ents, dtype=float).reshape(4, 8), axis=1).max() <= 1e-12

    def test_softmax_pseudo_kernel(self, tmp_path):
        code, out = run(
            tmp_path, "entropy-scan", "--kernel", "softmax", "--n-dirs", "2",
            "--n", "16", "--d", "4", "--c-steps", "4",
        )
        assert code == 0
        body = out.read_text().splitlines()[1:]
        assert all(line.startswith("softmax,") for line in body)


class TestEquivCheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        code, out = run(tmp_path, "equiv-check", "--n", "64", "--d", "16")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,d,lambda,max_rel_dev"
        assert len(lines) == 11
        assert all(float(line.split(",")[3]) <= 1e-10 for line in lines[1:])


    def test_nan_record_fails(self, tmp_path, capsys):
        # at lambda 500 one seed-7 trial's similarities overflow to a NaN output
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "equiv-check", "--lambda", "500")
        assert code == 1
        assert "nan" in [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
        assert capsys.readouterr().err.endswith("max relative deviation quadratic vs linear: nan\n")


class TestGradCheck:
    def test_passes_and_reports(self, tmp_path):
        code, out = run(tmp_path, "grad-check", "--d", "8", name="report.txt")
        assert code == 0
        text = out.read_text()
        assert text.count("PASS") == 2 and "FAIL" not in text

    def test_nan_jacobians_fail(self, tmp_path, capsys):
        # at lambda 1e308 the Jacobians overflow: a named error, never a PASS
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "grad-check", "--lambda", "1e308", name="report.txt")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: Jacobian is not finite")

    def test_overflow_reports_one_line(self, tmp_path):
        # no numpy RuntimeWarning before the error line: the error names the overflow
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "nala.cli", "grad-check", "--lambda", "1e308",
             "--out", str(tmp_path / "report.txt")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        assert proc.stderr == ("error: Jacobian is not finite in float64 at this point "
                               "and lambda\n")

    def test_rejects_baseline_kernels(self, tmp_path):
        code, _ = run(tmp_path, "grad-check", "--kernel", "relu")
        assert code == 2

    def test_certifies_at_d_400(self, tmp_path):
        # query-direction entries shrink like 1/sqrt(d), and so does their floor
        code, out = run(tmp_path, "grad-check", "--d", "400", name="report.txt")
        assert code == 0
        text = out.read_text()
        assert text.count("PASS") == 2 and "FAIL" not in text

    def test_no_admissible_point_is_a_named_error(self, tmp_path, capsys):
        # at d=10000 a Gaussian query direction has ~32 entries below the
        # floor 1e-3 * 4/sqrt(d) = 4e-5, so no draw clears it
        code, _ = run(tmp_path, "grad-check", "--d", "10000", name="report.txt")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "d=10000" in err and "4e-05" in err


class TestBench:
    def test_small_sweep_schema(self, tmp_path):
        code, out = run(
            tmp_path, "bench", "--n-grid", "64,128", "--reps", "1",
            "--evaluators", "nala_linear,nala_quadratic", "--d", "8",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "evaluator_id,n,d,wall_seconds,min_seconds,iqr_seconds,reps,checksum"
        assert len(lines) == 5


class TestBlockDemo:
    def test_deterministic_output(self, tmp_path):
        args = ("block-demo", "--n", "8", "--d", "16", "--heads", "4")
        code_a, a = run(tmp_path, *args, name="a.csv")
        code_b, b = run(tmp_path, *args, name="b.csv")
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "row,col,value"

    def test_indivisible_heads_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "block-demo", "--d", "10", "--heads", "4")
        assert code == 2


class TestVerifyTheorems:
    def test_all_properties_pass(self, tmp_path):
        code, out = run(tmp_path, "verify-theorems", "--seed", "7", name="report.txt")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 6
        assert all(line.startswith("PASS") for line in lines)

    def test_report_is_deterministic(self, tmp_path):
        _, a = run(tmp_path, "verify-theorems", name="a.txt")
        _, b = run(tmp_path, "verify-theorems", name="b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_nan_similarity_fails(self, tmp_path):
        # at lambda 1000 key features overflow to inf: both clauses fail, and the
        # NaN similarity must survive the minimum
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "verify-theorems", "--seed", "1", "--lambda", "1000",
                            name="report.txt")
        assert code == 1
        (line,) = [x for x in out.read_text().splitlines() if "similarities" in x]
        assert line == ("FAIL kernel similarities are nonnegative: "
                        "min similarity nan over 1048576 Gaussian pairs; computed clause fails; "
                        "structural clause fails: a non-finite entry in 503 of 1024 key rows")

    @pytest.mark.parametrize("flag, value", [("--n", "3"), ("--d", "1")])
    def test_too_small_sizes_are_errors(self, tmp_path, capsys, flag, value):
        # the norm-response sweep needs N >= 4 keys and d >= 2 dimensions
        code, _ = run(tmp_path, "verify-theorems", flag, value, name="report.txt")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: experiment needs N >= 4 keys")

    def test_trig_block_line_skips_underflowed_magnitudes(self, tmp_path):
        # at lambda 70 some |u_i|**lambda are subnormal or zero: no nan, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, out = run(tmp_path, "verify-theorems", "--lambda", "70", name="r.txt")
        (line,) = [x for x in out.read_text().splitlines() if "trig-block" in x]
        assert "nan" not in line and line.startswith("PASS")
        assert re.search(r", [1-9]\d* magnitudes below the float64 normal range skipped$", line)


#: Full stdout at seed 7 and the default sizes.  Batching or vectorizing the
#: checks must not change a certified byte.
#: GRAD_CHECK_SEED_7 assumes numpy 2.4.6 running its AVX-512 (X86_V4) loops:
#: with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" numpy's power
#: and tan round as libm does, and it fails (README, "Tests and acceptance suite"); the
#: verify-theorems pins hold there.
GRAD_CHECK_SEED_7 = (
    "PASS phi_q: max rel error 1.37143075e-11 over 50 points (tol 1e-06)\n"
    "PASS phi_k: max rel error 3.6622673e-11 over 50 points (tol 1e-06)\n"
)
VERIFY_THEOREMS_SEED_7 = (
    "PASS exp-row entropy decreases beyond a scale threshold: 300/300 random unique-max rows, N in (4, 16, 64)\n"
    "PASS nala attention entropy falls with the query norm along every direction: 1/1 directions strictly decreasing, worst pearson -0.6977 (pooled -0.6977)\n"
    "PASS relu attention entropy is query-scale invariant along every direction: max per-direction spread 8.882e-16 over 1 direction\n"
    "PASS fixed_power attention entropy is query-scale invariant along every direction: max per-direction spread 8.882e-16 over 1 direction\n"
    "PASS one_plus_elu attention entropy moves less with the query norm than softmax's: largest one_plus_elu spread 0.014 vs smallest softmax spread 1.598\n"
    "PASS softmax attention entropy falls with the query norm: pooled pearson -0.9733 over 1 direction x 16 norms\n"
    "PASS entropy second differences nonpositive on random rows: max second difference -7.008e-02 over 50 rows x 12 coords\n"
    "PASS kernel similarities are nonnegative: min similarity 6.360e-03 over 1048576 Gaussian pairs, cos >= |sin| in all 2048 feature rows\n"
    "PASS sign encoding preserves the trig-block norm: max |sum(cos^2+sin^2) - d| = 3.553e-15 over 1000 directions\n"
)


#: sha256 of default stdout of the commands whose outputs pass through the
#: evaluators' readout.  A change to the block, the evaluators or their
#: normalization must not move an output byte.
#: The equiv-check entry assumes numpy 2.4.6 running its AVX-512 (X86_V4)
#: loops: with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"
#: numpy's power and tan round as libm does, and it fails (README, "Tests and acceptance suite").
STDOUT_SHA256 = {
    "block-demo": "6d79c2e4eab3827e0a14f5c53b48f19ca3662312113155c1b62190abdc84ab91",
    "block-demo --causal": "e0e858eb024f0b336938fe6d57cc16de6272730a5a3f73c46c3802040aed612c",
    "equiv-check": "a8f4eefec77163bd6a9310a4fa9527d24ee186d24826ea8417da0f91d8c20562",
    "entropy-scan": "f75b557ff844ea049e6cf0d15f53da29a6c5c7eb55d3430705cd002d104ee102",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_bytes(command, capsys):
    assert parse_and_dispatch(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[command]


@pytest.mark.parametrize(
    "subcommand, expected",
    [("grad-check", GRAD_CHECK_SEED_7), ("verify-theorems", VERIFY_THEOREMS_SEED_7)],
    ids=["grad-check", "verify-theorems"],
)
def test_seed_7_report_bytes(subcommand, expected, capsys):
    assert parse_and_dispatch([subcommand, "--seed", "7"]) == 0
    assert capsys.readouterr().out == expected


#: Full stdout of verify-theorems at seed 81.  Of seeds 1-300 it is the first
#: whose concavity line moves (to -6.724e-02) when pse divides its rows by
#: the maximum itself rather than by the power of two at the maximum.
VERIFY_THEOREMS_SEED_81 = (
    "PASS exp-row entropy decreases beyond a scale threshold: 300/300 random unique-max rows, N in (4, 16, 64)\n"
    "PASS nala attention entropy falls with the query norm along every direction: 1/1 directions strictly decreasing, worst pearson -0.6813 (pooled -0.6813)\n"
    "PASS relu attention entropy is query-scale invariant along every direction: max per-direction spread 0.000e+00 over 1 direction\n"
    "PASS fixed_power attention entropy is query-scale invariant along every direction: max per-direction spread 8.882e-16 over 1 direction\n"
    "PASS one_plus_elu attention entropy moves less with the query norm than softmax's: largest one_plus_elu spread 0.010 vs smallest softmax spread 1.651\n"
    "PASS softmax attention entropy falls with the query norm: pooled pearson -0.9871 over 1 direction x 16 norms\n"
    "PASS entropy second differences nonpositive on random rows: max second difference -6.723e-02 over 50 rows x 12 coords\n"
    "PASS kernel similarities are nonnegative: min similarity 7.706e-03 over 1048576 Gaussian pairs, cos >= |sin| in all 2048 feature rows\n"
    "PASS sign encoding preserves the trig-block norm: max |sum(cos^2+sin^2) - d| = 3.553e-15 over 1000 directions\n"
)


def test_seed_81_report_bytes(capsys):
    assert parse_and_dispatch(["verify-theorems", "--seed", "81"]) == 0
    assert capsys.readouterr().out == VERIFY_THEOREMS_SEED_81
