"""The benchmark names nala functions and `verify-theorems` lines, and
calls the library with its own arguments; a rename or an API change would
only surface as a failing benchmark run.  These tests load ``perfbench/``
files by path (the benchmark is not a package) and check that every traced
function and every allowed FAIL line still resolves, that one op of every
workload runs and passes its own check, and that two traced ops agree on
what the benchmark's traced run requires to be the same in every op."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nala.cli import parse_and_dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_on_nala():
    targets = _load("tracing").TARGETS
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in targets
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, f"tracer targets missing from nala: {missing}"


def test_certify_known_fail_matches_exactly_the_homogeneous_kernel_lines(capsys):
    known = _load("workloads").Certify.KNOWN_FAIL
    assert parse_and_dispatch(["verify-theorems", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    matching = [line.split()[1] for line in lines if known in line]
    assert matching == ["relu", "fixed_power"], lines


@pytest.mark.parametrize("name", list(_load("workloads").WORKLOADS))
def test_workload_op_passes_its_check(name):
    workload = _load("workloads").WORKLOADS[name](1)
    assert workload.check(workload.op())


@pytest.mark.parametrize("name", list(_load("workloads").WORKLOADS))
def test_traced_ops_pass_and_repeat_their_counts(name):
    # a traced run reads incorrect when an op fails its check or when a call
    # count or kernels.phi_k.rows differs between ops
    tracing = _load("tracing")
    workload = _load("workloads").WORKLOADS[name](1)
    tracer = tracing.Tracer()
    seen = []
    for op_id in range(2):
        tracer.install()
        try:
            result = tracer.run_op(op_id, workload.op)
        finally:
            tracer.uninstall()
        assert workload.check(result)
        _, names = tracing.self_times(tracer.spans)
        calls = {span_name: calls for span_name, (calls, _) in names.items()}
        seen.append((calls, tracing.row_count(tracer.key_inputs)))
    assert seen[0] == seen[1]
