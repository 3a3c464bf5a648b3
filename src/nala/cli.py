"""Command-line entry point: seeded experiments in, CSV or PASS/FAIL reports out.

Every subcommand is a deterministic function of its flags: the same seed
produces the same bytes (benchmark timing columns excepted, since wall
clocks are not seedable).  Floats are rendered with 9 significant digits,
lines end with LF.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .attention import block_forward, nala_linear, nala_quadratic, random_block_params
from .bench import BenchRecord, DEFAULT_QUAD_CAP, EVALUATORS, run_scaling_sweep
from .checks import (
    CheckResult,
    entropy_concavity,
    exp_entropy_threshold,
    jacobians,
    norm_response,
    similarity_nonnegative,
    trig_block_norm,
)
from .entropy import EntropyScanRecord, SOFTMAX_ID, norm_entropy_experiment
from .kernels import KernelKind, KernelSpec
from .linalg import make_rng

KERNEL_CHOICES = [k.value for k in KernelKind]

EQUIV_TOL = 1e-10


@dataclass
class EquivRecord:
    n: int
    d: int
    lam: float = field(metadata={"csv": "lambda"})
    max_rel_dev: float


@dataclass
class BlockDemoRecord:
    row: int
    col: int
    value: float


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(records, path: str | None, record_type) -> None:
    """Write dataclass records as CSV: snake_case header, 9-digit floats, LF.

    record_type supplies the schema, so an empty list still gets its header.
    path None writes to stdout.
    """
    fields = dataclasses.fields(record_type)
    header = ",".join(f.metadata.get("csv", f.name) for f in fields)
    lines = [header]
    for r in records:
        lines.append(",".join(_format(getattr(r, f.name)) for f in fields))
    _write_text("\n".join(lines) + "\n", path)


def _render_checks(results: list[CheckResult], path: str | None) -> int:
    """One `PASS|FAIL name: detail` line per check; exit code 0 iff all passed."""
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    _write_text("\n".join(lines) + "\n", path)
    return 0 if all(r.passed for r in results) else 1


def _write_text(text: str, path: str | None) -> None:
    """Write text to path as UTF-8 with LF line ends, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def max_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise |a - b| / max(1, |b|), maximized."""
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())


def _c_grid(args) -> np.ndarray:
    return np.geomspace(args.c_min, args.c_max, args.c_steps)


def _spec(args) -> KernelSpec:
    return KernelSpec(kind=KernelKind(args.kernel), lam=args.lam)


# --- subcommands -----------------------------------------------------------


def cmd_entropy_scan(args) -> int:
    rng = make_rng(args.seed)
    if args.kernel == SOFTMAX_ID:
        spec_list, softmax_too = [], True
    else:
        spec_list, softmax_too = [_spec(args)], False
    records, correlations = norm_entropy_experiment(
        rng, spec_list, args.n_dirs, args.n, args.d, _c_grid(args), softmax_too
    )
    write_csv(records, args.out, EntropyScanRecord)
    for kernel_id, corr in correlations.items():
        print(f"pearson(query_norm, entropy) [{kernel_id}] = {corr:.9g}", file=sys.stderr)
    return 0


def cmd_equiv_check(args) -> int:
    records = []
    spec = _spec(args)
    for i in range(10):
        rng = make_rng(args.seed + i)
        Q = rng.standard_normal((args.n, args.d))
        K = rng.standard_normal((args.n, args.d))
        V = rng.standard_normal((args.n, args.d))
        dev = max_rel_dev(
            nala_linear(Q, K, V, spec).output, nala_quadratic(Q, K, V, spec).output
        )
        records.append(EquivRecord(args.n, args.d, args.lam, dev))
    write_csv(records, args.out, EquivRecord)
    worst = float(np.max([r.max_rel_dev for r in records]))  # a NaN record stays the worst
    print(f"max relative deviation quadratic vs linear: {worst:.9g}", file=sys.stderr)
    return 0 if worst <= EQUIV_TOL else 1


def cmd_grad_check(args) -> int:
    results = jacobians(make_rng(args.seed), args.d, KernelSpec(lam=args.lam))
    return _render_checks(results, args.out)


def cmd_bench(args) -> int:
    rng = make_rng(args.seed)
    n_grid = [int(s) for s in args.n_grid.split(",") if s]
    evaluator_ids = args.evaluators.split(",") if args.evaluators else None
    records, slopes = run_scaling_sweep(
        rng, n_grid, args.d, _spec(args), evaluator_ids, reps=args.reps,
        quad_cap=args.quad_cap,
    )
    write_csv(records, args.out, BenchRecord)
    for evaluator_id, slope in slopes.items():
        print(f"loglog slope [{evaluator_id}] = {slope:.3f}", file=sys.stderr)
    return 0


def cmd_block_demo(args) -> int:
    rng = make_rng(args.seed)
    params = random_block_params(rng, args.d, args.heads)
    X = rng.standard_normal((args.n, args.d))
    Z = block_forward(X, params, _spec(args), causal=args.causal)
    records = [
        BlockDemoRecord(i, j, float(Z[i, j]))
        for i in range(Z.shape[0])
        for j in range(Z.shape[1])
    ]
    write_csv(records, args.out, BlockDemoRecord)
    return 0


def cmd_verify_theorems(args) -> int:
    rng = make_rng(args.seed)
    spec = KernelSpec(lam=args.lam)
    results = [
        exp_entropy_threshold(rng),
        *norm_response(rng, 1, args.n, args.d, np.geomspace(0.5, 8.0, 16), args.lam),
        entropy_concavity(rng),
        similarity_nonnegative(rng, spec),
        trig_block_norm(rng, args.d, spec),
    ]
    return _render_checks(results, args.out)


# --- parser ----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


#: Every flag, by name; each subcommand takes the ones it reads.
_FLAGS = {
    "seed": dict(type=int, default=7),
    "n": dict(type=_positive_int, default=128),
    "d": dict(type=_positive_int, default=16),
    "heads": dict(type=_positive_int, default=4),
    "lambda": dict(dest="lam", type=_positive_float, default=2.0),
    "kernel": dict(choices=KERNEL_CHOICES, default="nala"),
    "causal": dict(action="store_true"),
    "c-min": dict(type=_positive_float, default=0.25),
    "c-max": dict(type=_positive_float, default=16.0),
    "c-steps": dict(type=_positive_int, default=32),
    "n-dirs": dict(type=_positive_int, default=64),
    "n-grid": dict(default="1024,2048,4096,8192,16384"),
    "evaluators": dict(default=None, help=f"comma list from {','.join(EVALUATORS)}"),
    "reps": dict(type=_positive_int, default=5),
    "quad-cap": dict(type=_positive_int, default=DEFAULT_QUAD_CAP),
    "out": dict(default=None, help="output file (default stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nala", description="norm-aware linear attention toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help, flags):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(run=run)
        return p

    p = add("entropy-scan", cmd_entropy_scan, "entropy-vs-query-norm sweep as CSV",
            "seed n d lambda c-min c-max c-steps n-dirs out")
    # softmax has no feature map, so only the entropy scan can take it
    p.add_argument("--kernel", choices=[*KERNEL_CHOICES, SOFTMAX_ID], default="nala")
    add("equiv-check", cmd_equiv_check, "quadratic vs re-associated evaluator deviation",
        "seed n d lambda kernel out")
    add("grad-check", cmd_grad_check, "analytic vs finite-difference Jacobians",
        "seed d lambda out")
    add("bench", cmd_bench, "wall-clock scaling sweep as CSV",
        "seed d lambda kernel n-grid evaluators reps quad-cap out")
    add("block-demo", cmd_block_demo, "gated block forward pass as CSV",
        "seed n d heads lambda kernel causal out")
    add("verify-theorems", cmd_verify_theorems, "PASS/FAIL battery of the core properties",
        "seed n d lambda out")
    return parser


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
