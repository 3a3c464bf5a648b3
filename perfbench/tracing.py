"""Spans around calls into nala's public functions, recorded from outside the library.

The traced run replaces each function listed in TARGETS with a recording
wrapper at every ``nala.*`` module attribute bound to it - the attribute the
caller looks the function up on - and puts the originals back afterwards.
``nala.kernels.phi_k``, for example, is reached from ``feature_maps`` through
the kernels module and from the CLI through ``nala.cli.phi_k``; both bindings
are wrapped under one span name.  Nothing under ``src/`` changes.

A span is (op id, span id, parent span id, name, start, end).  Every op has a
root span ``op``; a span's self time is its duration minus the durations of
its direct children, so the self times of one op sum to the op's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

#: (home module, function).  The span name is "<module>.<function>" without
#: the package prefix, e.g. "attention.nala_linear".
TARGETS = [
    ("nala.linalg", "as_matrix"),
    ("nala.kernels", "phi_q"),
    ("nala.kernels", "phi_k"),
    ("nala.kernels", "baseline_map"),
    ("nala.attention", "nala_linear"),
    ("nala.attention", "nala_causal_recurrent"),
    ("nala.attention", "nala_quadratic"),
    ("nala.attention", "softmax_attention"),
    ("nala.attention", "row_entropy_nats"),
    ("nala.attention", "layer_norm"),
    ("nala.attention", "block_forward"),
    ("nala.entropy", "norm_entropy_experiment"),
    ("nala.entropy", "entropy_deviation_scan"),
    ("nala.entropy", "attention_row_entropy"),
    ("nala.entropy", "theorem1_scan"),
    ("nala.entropy", "concavity_probe"),
    ("nala.gradcheck", "finite_diff_jacobian"),
    ("nala.gradcheck", "jac_phi_q"),
    ("nala.gradcheck", "jac_phi_k"),
    ("nala.cli", "parse_and_dispatch"),
]

ROOT = "op"
FEATURE_MAPS = ("kernels.phi_q", "kernels.phi_k", "kernels.baseline_map")


class Tracer:
    """Collects the spans of one op at a time while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.key_inputs: list = []  # arguments of every phi_k call in the op
        self.feature_bytes = 0
        self._op_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        wrappers = {}
        for module_name, attr in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrappers[id(fn)] = self._wrap(f"{module_name.split('.', 1)[1]}.{attr}", fn)
        # The originals stay referenced by the wrappers, so their ids are unique.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "nala" or module_name.startswith("nala.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = None
        if name in FEATURE_MAPS:
            keys = name == "kernels.phi_k"

            def hook(args, result):
                tracer.feature_bytes += result.nbytes
                if keys:
                    tracer.key_inputs.append(args[0])

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            sid = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (tracer._op_id, sid, parent, name, t0, t1)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def run_op(self, op_id: int, op):
        """Run op() under a root span; its spans are left in self.spans."""
        self._op_id = op_id
        self.spans, self.key_inputs, self.feature_bytes = [None], [], 0
        self._stack = [0]
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            self.spans[0] = (op_id, 0, None, ROOT, t0, time.perf_counter())


def self_times(spans) -> tuple[float, dict[str, list]]:
    """(op duration, {span name: [calls, self seconds]}) for one op's spans."""
    child = defaultdict(float)
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    per_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    op_s = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        entry = per_name[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - child[sid]
        if parent is None:
            op_s = t1 - t0
    return op_s, per_name


def distinct_rows(arrays) -> int:
    """Number of distinct rows (by bytes) over a list of (..., d) arrays."""
    seen, rows = set(), set()
    for x in arrays:
        if id(x) in seen:
            continue
        seen.add(id(x))
        a = np.ascontiguousarray(x, dtype=np.float64)
        a = a.reshape(-1, a.shape[-1])
        rows.update(a.view(np.dtype((np.void, a.shape[1] * 8))).ravel().tolist())
    return len(rows)


def row_count(arrays) -> int:
    return sum(int(np.prod(np.shape(x)[:-1], dtype=np.int64)) for x in arrays)
