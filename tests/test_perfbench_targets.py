"""The benchmark's tracer wraps nala functions by name; a renamed or deleted
target would only surface as a failing ``--trace 1`` run.  This test loads
``perfbench/tracing.py`` by path (the benchmark is not a package) and checks
that every target still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_on_nala():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in targets
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, f"tracer targets missing from nala: {missing}"
