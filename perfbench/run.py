"""Benchmark of the nala library: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload linear_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workloads, the metric names, their units and bounds live in
BENCHMARK.json at the repository root; the workloads themselves are in
workloads.py.  One process runs one workload (``all`` starts one child
process per workload), so the peak resident memory belongs to that workload.

With ``--trace 0`` each op is followed by runs of a fixed numpy calibration
op, and the op metrics are op time divided by the median time of the
calibration runs that followed it.  The raw times are printed too, but they
are not the metrics: on the shared 2-core host this was built on, raw medians
of back-to-back 25 s runs moved by 33% (linear_long) and 41% (entropy_sweep)
while calibration-normalized medians moved by 4% and 8%.  Process CPU time
tracked wall time and steal stayed flat, so that drift is the host's
throughput, which the calibration op sees as well.  Pairing each op with the
calibration right after it, rather than dividing run medians, halved the
run-to-run spread of causal_block and entropy_sweep there.  The tail metric
is the highest percentile with ten ops beyond it; every run times enough ops
for that to be at least the workload's TAIL_PCT_MIN.  setup_s is scaled in
the same spirit, to seconds of a reference host (set_up()).

With ``--trace 1`` the run alternates untraced ops with ops traced through
tracing.py and reports per-layer self times, call counts and row counts, plus
the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Every line before it is for people.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one client on a small shared host, and
# BLAS threads would compete with the neighbours whose noise the calibration
# op is there to cancel.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; setup_s is the median of their scaled times.
SETUP_REPEATS = 5
#: Ops beyond the tail percentile.  A run times at least enough ops for the
#: tail to lie at its workload's TAIL_PCT_MIN, whatever --seconds says: 100
#: ops for p90.
TAIL_OPS = 10
#: Fewest untraced/traced op pairs a traced run times.
TRACE_MIN_PAIRS = 10
#: How far the traced ops' summed self times may stray from the untraced op
#: time beyond the tracing overhead (medians of different ops, timer reads).
SUM_TOL = 0.01

#: Calibration time after each op, as a share of the op's time, and the
#: fewest calibration runs after it.  A long op gets several calibration runs,
#: so that the median it is divided by is taken over enough samples to be
#: steady; a short one gets CALIB_RUNS.
CALIB_SHARE = 0.1
CALIB_RUNS = 2

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nala; "
    "print(time.perf_counter() - t)"
)
#: The same for a fixed set of standard-library modules, none of which nala
#: is: the host's import speed around each import of nala.
REF_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import argparse, asyncio, decimal, "
    "email.message, http.client, json, unittest, xml.dom.minidom; "
    "print(time.perf_counter() - t)"
)
#: Seconds REF_IMPORT_PROBE and one Calibration() run take on the reference
#: host (2-core x86-64 VM, Python 3.11, numpy 2.x, one BLAS thread).  setup_s
#: is in seconds of that host; see set_up().
REF_IMPORT_S = 0.075
REF_CALIB_S = 0.016


class Calibration:
    """Fixed numpy and Python work that never calls nala, timed after each op.

    It mixes the kinds of work the workloads are made of, so that host
    slow-downs reach it in about the same proportion as they reach the ops:
    transcendental elementwise calls over a block of rows (the feature maps),
    small gemms, a loop of tiny numpy calls (the per-token recurrence, the
    entropy sweep's one-row evaluations), plain interpreter work (argument
    handling, records) and elementwise passes over arrays too large for the
    caches (the block's gate and FFN).  On the 2-core host this was built
    on, a busy neighbour slowed the elementwise part by 1.25x and the tiny
    calls by 1.6x; with all five parts the op/calibration ratio moved least.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(20250626))
        self.x = rng.standard_normal((2048, 32))
        self.a = rng.standard_normal((160, 160))
        self.u = rng.standard_normal((300, 64))
        self.v = rng.standard_normal((300, 16))
        self.big = rng.standard_normal((1024, 512))
        self.buf = np.empty_like(self.big)

    def __call__(self) -> float:
        import numpy as np
        from scipy.special import erf

        angles = np.tanh(self.x)
        mags = np.abs(self.x) ** 2.5
        acc = float(np.concatenate([np.cos(angles) * mags, np.sin(angles) * mags], axis=1).sum())
        for _ in range(8):
            acc += float((self.a @ self.a.T)[0, 0])
        state = np.zeros((64, 16))
        z = np.zeros(64)
        for u, v in zip(self.u, self.v):
            state += np.outer(u, v)
            z += u
            acc += float((u @ state).sum() / (u @ z + 100.0))
        count = 0
        for i in range(15000):
            count += i * i % 7
        np.tanh(self.big, out=self.buf)
        np.multiply(self.buf, self.big, out=self.buf)
        np.exp(self.buf, out=self.buf)
        acc += float(self.buf.sum()) + float(erf(self.big[:256]).sum())
        return acc + count


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_revision() -> str:
    """Revision of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_rev": git_revision(),
        "seed": seed,
    }


def child_seconds(probe: str) -> float:
    """Seconds a fresh interpreter reports for one of the import probes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def calibrate(calib, seconds: float, runs: int = 1) -> list[float]:
    """Times of calibration runs lasting at least `seconds`, at least `runs` of them."""
    times = []
    while sum(times) < seconds or len(times) < runs:
        t0 = time.perf_counter()
        calib()
        times.append(time.perf_counter() - t0)
    return times


def set_up(workload_cls, seed: int, calib):
    """Set the workload up SETUP_REPEATS times; (median scaled seconds,
    raw seconds of each set-up, workload).

    One set-up is importing nala in a fresh interpreter, then generating the
    inputs, computing the oracle reference and one warm-up op with its check.
    Its raw time follows the host's speed, which on the reference host
    changes by up to 2x within seconds: over 40 set-ups of causal_block the
    raw time spread 0.24 (IQR / median).  The import keeps in step with a
    fresh interpreter's import of fixed standard-library modules, the rest
    with the calibration op.  So the import is scaled by REF_IMPORT_S / the
    mean REF_IMPORT_PROBE time right before and after it, and the rest by
    REF_CALIB_S / the mean of the calibration medians right before and after
    it; over the same 40 set-ups the scaled time spread 0.07.  The result is
    in seconds of the reference host.
    """

    def calib_median():
        return statistics.median(calibrate(calib, 0.0, runs=3))

    scaled, raw, workload = [], [], None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        probe = child_seconds(REF_IMPORT_PROBE)
        imported = child_seconds(IMPORT_PROBE)
        probe = (probe + child_seconds(REF_IMPORT_PROBE)) / 2
        calib_s = calib_median()
        t0 = time.perf_counter()
        workload = workload_cls(seed)
        if not workload.check(workload.op()):
            raise RuntimeError("the warm-up op failed its correctness check")
        built = time.perf_counter() - t0
        calib_s = (calib_s + calib_median()) / 2
        raw.append(imported + built)
        scaled.append(imported * REF_IMPORT_S / probe + built * REF_CALIB_S / calib_s)
    return statistics.median(scaled), raw, workload


def run_checked(workload, op):
    """Run one op and its check; (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        out = op()
    except Exception as exc:  # a failing op is counted, not fatal
        elapsed = time.perf_counter() - t0
        print(f"# op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(workload.check(out))
    except Exception as exc:
        print(f"# check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    return elapsed, ok


def min_ops(tail_pct: float) -> int:
    """Fewest ops that leave TAIL_OPS of them beyond the tail_pct percentile."""
    return math.ceil(TAIL_OPS * 100 / (100 - tail_pct))


def tail(sorted_values):
    """(value, percentile) of the highest percentile with TAIL_OPS values
    beyond it."""
    n = len(sorted_values)
    return sorted_values[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def timed_loop(workload, calib, seconds: float):
    """Closed loop of ops, each followed by CALIB_RUNS or more calibration
    runs worth at least CALIB_SHARE of its time.

    Returns (op seconds, op seconds / median of the calibration runs that
    followed the op, all calibration seconds, failures).
    """
    op_s, norm, calib_s, failed = [], [], [], 0
    fewest = min_ops(workload.TAIL_PCT_MIN)
    deadline = time.perf_counter() + seconds
    while len(op_s) < fewest or time.perf_counter() < deadline:
        elapsed, ok = run_checked(workload, workload.op)
        op_s.append(elapsed)
        failed += not ok
        after = calibrate(calib, CALIB_SHARE * elapsed, runs=CALIB_RUNS)
        norm.append(elapsed / statistics.median(after))
        calib_s.extend(after)
    return op_s, norm, calib_s, failed


def traced_loop(workload, seconds: float):
    """Alternate untraced and traced ops; per-op span aggregates of the traced ones."""
    from tracing import Tracer, distinct_rows, row_count, self_times

    tracer = Tracer()
    plain_s, traced_s, per_op, first_spans, failed = [], [], [], [], 0

    def traced_op():
        tracer.install()
        try:
            return tracer.run_op(len(traced_s), workload.op)
        finally:
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    while len(traced_s) < TRACE_MIN_PAIRS or time.perf_counter() < deadline:
        elapsed, ok = run_checked(workload, workload.op)
        plain_s.append(elapsed)
        failed += not ok
        elapsed, ok = run_checked(workload, traced_op)
        traced_s.append(elapsed)
        failed += not ok
        if not ok:
            continue
        op_s, names = self_times(tracer.spans)
        per_op.append({
            "op_s": op_s,
            "names": dict(names),
            "phi_k_rows": row_count(tracer.key_inputs),
            "phi_k_distinct": distinct_rows(tracer.key_inputs),
            "feature_bytes": tracer.feature_bytes,
        })
        if not first_spans:
            first_spans = tracer.spans
    return plain_s, traced_s, per_op, failed, first_spans


def layer_metrics(per_op, plain_s, traced_s):
    """(every per-layer metric as a per-op median over the traced ops,
    names of the counts that were not the same in every op)."""
    med = statistics.median
    names = sorted({n for op in per_op for n in op["names"]})
    out = {}
    for name in names:
        calls = [op["names"].get(name, [0, 0.0])[0] for op in per_op]
        selfs = [op["names"].get(name, [0, 0.0])[1] for op in per_op]
        shares = [s / op["op_s"] for s, op in zip(selfs, per_op)]
        out[f"{name}.calls"] = med(calls)
        out[f"{name}.self_s"] = med(selfs)
        out[f"{name}.share"] = med(shares)
    out["kernels.phi_k.rows"] = med(op["phi_k_rows"] for op in per_op)
    out["kernels.phi_k.useful_frac"] = med(
        op["phi_k_distinct"] / op["phi_k_rows"] if op["phi_k_rows"] else 0.0 for op in per_op
    )
    out["kernels.feature_bytes"] = med(op["feature_bytes"] for op in per_op)
    out["trace.overhead_frac"] = med(traced_s) / med(plain_s) - 1.0
    out["trace.unattributed_share"] = out.get("op.share", 0.0)
    varying = sorted(
        key for key in out
        if key.endswith(".calls")
        and len({op["names"].get(key[: -len(".calls")], [0])[0] for op in per_op}) > 1
    )
    if len({op["phi_k_rows"] for op in per_op}) > 1:
        varying.append("kernels.phi_k.rows")
    return out, varying


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))


def run_one(args) -> int:
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import nala
    except ImportError as exc:
        print(f"error: cannot import nala from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(nala.__file__).resolve().parent != SRC / "nala":
        print(f"error: imported {nala.__file__}, not the checkout's {SRC / 'nala'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    facts = machine_facts(args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    calib = Calibration()
    calib()
    setup_s, setup_raw, workload = set_up(WORKLOADS[args.workload], args.seed, calib)
    print(f"# raw set-up seconds {', '.join(f'{t:.4f}' for t in setup_raw)} "
          f"(median {statistics.median(setup_raw):.4f}); scaled to the reference "
          f"host, median {setup_s:.4f}")
    for note in workload.notes:
        print(f"# {note}")

    if args.trace:
        plain_s, traced_s, per_op, failed, first_spans = traced_loop(workload, args.seconds)
        attempted = len(plain_s) + len(traced_s)
        values, varying = layer_metrics(per_op, plain_s, traced_s)
        wanted = spec["per_layer"]
        metrics = {}
        for m in wanted:
            value = values.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<14} "
                  f"(traced ops={len(per_op)})")
        # The spans' self times must account for the untraced op's time: they
        # may exceed it by the tracing overhead measured from outside the
        # spans, and lose none of it.
        summed = statistics.median(sum(v[1] for v in op["names"].values()) for op in per_op)
        plain = statistics.median(plain_s)
        excess = summed / plain - 1.0
        overhead = values["trace.overhead_frac"]
        sums_ok = abs(excess) <= abs(overhead) + SUM_TOL
        print(f"# self_s summed over all spans, per-op median {summed:.6f} s, is the "
              f"untraced op p50 {plain:.6f} s {excess:+.4f}; trace.overhead_frac "
              f"{overhead:+.4f}, tolerance {SUM_TOL}: {'ok' if sums_ok else 'FAILED'}")
        if varying:
            print(f"# FAILED: counts that varied between ops: {', '.join(varying)}")
        write_spans(args, first_spans)
        trace_ok = sums_ok and not varying
    else:
        trace_ok = True
        op_s, norm, calib_s, failed = timed_loop(workload, calib, args.seconds)
        attempted = len(op_s)
        norm_tail, pct = tail(sorted(norm))
        op_tail, _ = tail(sorted(op_s))
        values = {
            "op_p50_norm": statistics.median(norm),
            "op_tail_norm": norm_tail,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "op_p50_norm": f"ops={attempted}",
            "op_tail_norm": f"p{pct:.1f}, {TAIL_OPS} ops beyond, ops={attempted}",
            "setup_s": f"median of {SETUP_REPEATS} set-ups, reference-host seconds",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<14} {values[m['name']]:>14.6g} {m['unit']:<8} "
                  f"({notes[m['name']]})")
        print(f"failed_frac    {failed / attempted:>14.6g} frac     "
              f"({failed}/{attempted} ops failed)")
        print(f"# raw op_p50_s={statistics.median(op_s):.6f} op_tail_s={op_tail:.6f} "
              f"calib_p50_s={statistics.median(calib_s):.6f} "
              f"(calibration runs={len(calib_s)})")
    emit(failed == 0 and attempted > 0 and trace_ok, attempted, failed, metrics)
    return 0


def write_spans(args, spans) -> None:
    """Write the first traced op's spans, one JSON array per line."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["op_id", "span_id", "parent_id", "name", "start_s", "end_s"]) + "\n")
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")
    print(f"# spans of the first traced op ({len(spans)}) written to "
          f"{path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own child process; prints a combined summary."""
    names = [w["name"] for w in load_spec()["workloads"]]
    results, code = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name}: exit code {done.returncode}")
            code = code or done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print("# summary")
    for name, r in results.items():
        print(f"# {name:<14} correct={r['correct']} ops={r['attempted']} "
              f"failed={r['failed']} failed_frac={r['failed'] / r['attempted']:.3g}")
    if code:
        return code
    metrics = {
        f"{name}.{key}": value
        for name, r in results.items() for key, value in r["metrics"].items()
    }
    emit(
        all(r["correct"] for r in results.values()),
        sum(r["attempted"] for r in results.values()),
        sum(r["failed"] for r in results.values()),
        metrics,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "BENCHMARK.json").exists():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names + ['all'])}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
