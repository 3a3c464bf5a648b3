"""Command-line entry point: seeded experiments in, CSV or PASS/FAIL reports out.

Every subcommand is a deterministic function of its flags: the same seed
produces the same bytes (benchmark timing columns excepted, since wall
clocks are not seedable).  Floats are rendered with 9 significant digits,
lines end with LF.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    scale_invariance_split,
    similarity_nonnegative,
    trig_block_norm,
)
from .entropy import EntropyScanRecord, SOFTMAX_ID, norm_entropy_experiment
from .kernels import KernelKind, KernelSpec
from .linalg import make_rng

KERNEL_CHOICES = [k.value for k in KernelKind] + [SOFTMAX_ID]

EQUIV_TOL = 1e-10


@dataclass
class EquivRecord:
    n: int
    d: int
    lam: float = field(metadata={"csv": "lambda"})
    max_rel_dev: float = field(metadata={"csv": "max_rel_dev"})


@dataclass
class BlockDemoRecord:
    row: int
    col: int
    value: float


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(records, path: str | None, record_type=None) -> None:
    """Write dataclass records as CSV: snake_case header, 9-digit floats, LF.

    record_type supplies the schema when records may be empty.  path None
    writes to stdout.
    """
    if record_type is None:
        if not records:
            raise ValueError("empty record list needs an explicit record_type")
        record_type = type(records[0])
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


def _spec_nala(args) -> KernelSpec:
    return KernelSpec(kind=KernelKind.NALA, lam=args.lam)


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


def cmd_equiv_check(args, instances: int = 10) -> int:
    records = []
    spec = _spec(args)
    for i in range(instances):
        rng = make_rng(args.seed + i)
        Q = rng.standard_normal((args.n, args.d))
        K = rng.standard_normal((args.n, args.d))
        V = rng.standard_normal((args.n, args.d))
        dev = max_rel_dev(
            nala_linear(Q, K, V, spec).output, nala_quadratic(Q, K, V, spec).output
        )
        records.append(EquivRecord(args.n, args.d, args.lam, dev))
    write_csv(records, args.out, EquivRecord)
    worst = max(r.max_rel_dev for r in records)
    print(f"max relative deviation quadratic vs linear: {worst:.9g}", file=sys.stderr)
    return 0 if worst <= EQUIV_TOL else 1


def cmd_grad_check(args) -> int:
    if args.kernel != KernelKind.NALA.value:
        print("grad-check applies to the nala kernel only", file=sys.stderr)
        return 2
    return _render_checks(jacobians(make_rng(args.seed), args.d, _spec_nala(args)), args.out)


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
    spec = _spec_nala(args)
    results = [
        exp_entropy_threshold(rng),
        *scale_invariance_split(rng, args.n, args.d, args.lam),
        entropy_concavity(rng),
        similarity_nonnegative(rng, spec),
        trig_block_norm(rng, args.d, spec),
    ]
    return _render_checks(results, args.out)


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nala", description="norm-aware linear attention toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--n", type=_positive_int, default=128)
        p.add_argument("--d", type=_positive_int, default=16)
        p.add_argument("--heads", type=_positive_int, default=4)
        p.add_argument("--lambda", dest="lam", type=_positive_float, default=2.0)
        p.add_argument("--kernel", choices=KERNEL_CHOICES, default="nala")
        p.add_argument("--causal", action="store_true")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--c-min", type=_positive_float, default=0.25)
        p.add_argument("--c-max", type=_positive_float, default=16.0)
        p.add_argument("--c-steps", type=_positive_int, default=32)

    p = sub.add_parser("entropy-scan", help="entropy-vs-query-norm sweep as CSV")
    common(p)
    p.add_argument("--n-dirs", type=_positive_int, default=64)
    p.set_defaults(run=cmd_entropy_scan)

    p = sub.add_parser("equiv-check", help="quadratic vs re-associated evaluator deviation")
    common(p)
    p.set_defaults(run=cmd_equiv_check)

    p = sub.add_parser("grad-check", help="analytic vs finite-difference Jacobians")
    common(p)
    p.set_defaults(run=cmd_grad_check)

    p = sub.add_parser("bench", help="wall-clock scaling sweep as CSV")
    common(p)
    p.add_argument("--n-grid", default="1024,2048,4096,8192,16384")
    p.add_argument("--evaluators", default=None,
                   help=f"comma list from {','.join(EVALUATORS)}")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--quad-cap", type=_positive_int, default=DEFAULT_QUAD_CAP)
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("block-demo", help="gated block forward pass as CSV")
    common(p)
    p.set_defaults(run=cmd_block_demo)

    p = sub.add_parser("verify-theorems", help="PASS/FAIL battery of the core properties")
    common(p)
    p.set_defaults(run=cmd_verify_theorems)

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


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
