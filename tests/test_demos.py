"""The narrative demos run to completion and print their walk-through."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DEMOS = [
    "01_norm_aware_kernel",
    "02_entropy_vs_query_norm",
    "03_linear_equals_quadratic",
    "04_gradient_check",
    "05_scaling_benchmark",
    "06_gated_block",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
