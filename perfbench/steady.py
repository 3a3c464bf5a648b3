"""Steadiness mode: run workloads repeatedly and compare run-to-run spread with the bounds.

    python3 perfbench/steady.py --seeds 101-110 [--workloads linear_long,certify]
                                [--sets 2]
    python3 perfbench/steady.py --seeds 101-103 --trace 1

Runs ``run.py --trace 0`` once per (set, workload, seed), one run at a time
and for BENCHMARK.json's run_seconds, and for every end-to-end metric prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound and a third of it.  A spread
over the bound fails.  With --sets 2 the seed list runs twice and the second
set's median is compared with the first's, the way a later change is
compared with its parent.

With ``--trace 1`` it runs ``run.py --trace 1`` instead and checks that every
count metric (unit ``count``) is the same in every run of a workload.

Every run's JSON result is appended to perfbench/out/steady.jsonl; the exit
code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def counts_repeat(workload: str, spec: dict, results: list[dict]) -> bool:
    """Print and check that every count metric is the same in every run."""
    ok = True
    for m in spec["per_layer"]:
        if m["unit"] != "count":
            continue
        values = sorted({r["metrics"][m["name"]]["value"] for r in results})
        same = len(values) == 1
        ok &= same
        print(f"{workload:<14} {m['name']:<36} {'same' if same else 'DIFFERS'} "
              f"over {len(results)} runs: {', '.join(f'{v:g}' for v in values)}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 3,5,9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    (HERE / "out").mkdir(exist_ok=True)
    log = open(HERE / "out" / "steady.jsonl", "a", encoding="utf-8")

    ok = True
    with log:
        for workload in args.workloads.split(","):
            sets = []
            for set_no in range(args.sets):
                results = []
                for seed in seeds:
                    t0 = time.perf_counter()
                    r = run(workload, seed, spec["run_seconds"], args.trace)
                    wall = time.perf_counter() - t0
                    log.write(json.dumps({"workload": workload, "set": set_no, "seed": seed,
                                          "trace": args.trace, "result": r}) + "\n")
                    log.flush()
                    ok &= r["correct"]
                    results.append(r)
                    print(f"{workload} set {set_no} seed {seed} ({wall:.1f} s): "
                          f"correct={r['correct']} "
                          + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                          flush=True)
                sets.append(results)
            if args.trace:
                ok &= counts_repeat(workload, spec, [r for results in sets for r in results])
                continue
            for m in spec["end_to_end"]:
                name, bound = m["name"], m["bound"]
                medians = []
                for set_no, results in enumerate(sets):
                    med, q1, q3, s = spread([r["metrics"][name]["value"] for r in results])
                    medians.append(med)
                    verdict = ("ok" if s < bound / 3 else "WITHIN BOUND" if s <= bound
                               else "OVER BOUND")
                    ok &= s <= bound
                    print(f"{workload:<14} {name:<13} set {set_no} median {med:.5g} "
                          f"q1 {q1:.5g} q3 {q3:.5g} spread {s:.4f} bound {bound} "
                          f"(bound/3 {bound / 3:.4f}) {verdict}")
                for set_no in range(1, len(medians)):
                    change = medians[set_no] / medians[0] - 1.0
                    worse = change if m["better"] == "lower" else -change
                    ok &= worse <= bound
                    print(f"{workload:<14} {name:<13} set {set_no} vs set 0 median "
                          f"{change:+.4f} (bound {bound}) {'ok' if worse <= bound else 'WORSE'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
