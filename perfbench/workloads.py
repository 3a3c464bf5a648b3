"""The four benchmark workloads: seeded inputs, one op, and a correctness check.

Each workload is one closed-loop client: the runner calls ``op()`` again only
after the previous call returned, then hands the result to ``check()``.  The
inputs are generated here from the workload seed; the library only ever sees
the generated arrays (or, for ``certify``, the seed as a CLI argument).

Library functions are looked up on their module at call time
(``attention.nala_linear`` rather than a name bound at import) so that the
traced run, which replaces module attributes, records the call.

Why these four (measured with one BLAS thread on a 2-core host):

* ``linear_long`` - one long non-causal evaluation; feature maps are ~73% of
  the op, the rest is two gemms.  Exercises the maps and validation, never the
  causal loop or the small-call paths.
* ``causal_block`` - the gated block in causal mode; half the op is the
  per-token recurrence, a third the projections/gate/FFN, the maps only ~10%.
* ``entropy_sweep`` - the norm-entropy sweep at the default grid and sizes
  but a quarter of the directions: thousands of tiny evaluator calls per op,
  each re-validating and re-mapping one key set.
* ``certify`` - ``grad-check`` then ``verify-theorems`` through the CLI: the
  only workload that runs the Jacobians and the CLI, and the kernels both on
  one 100k-row call and on ~1,600 single vectors.

The tail metric is the highest percentile with ten ops beyond it.  Every
workload names the lowest percentile that may be, ``TAIL_PCT_MIN``, and the
runner times at least the ops that takes (100 at p90).  The sizes are chosen
so that those ops fit in a 20 s run: ``causal_block`` and ``entropy_sweep``
are smaller than the CLI defaults for that reason (0.1-0.2 s per op instead
of 0.6-1.0 s at N=4096 and 64 directions).  ``certify`` runs the CLI
defaults, which have no size knob for ``verify-theorems`` (~0.45 s of its
~0.55 s op); its floor is the 80th percentile, 50 ops, because the 100 ops
of a 90th would take ~55 s per run.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
from scipy.special import erf

from nala import attention, cli, entropy
from nala.kernels import KernelKind, KernelSpec

#: Largest entrywise |a - b| / max(1, |b|) allowed against an oracle; the
#: same bound the library's own equivalence checks use.
ORACLE_TOL = 1e-10


def input_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def max_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())


class LinearLong:
    """nala_linear, N=16384, d=32, lambda=2, Gaussian Q, K, V."""

    N, D, CHECK_ROWS = 16384, 32, 64
    TAIL_PCT_MIN = 90
    notes = ()  # lines the runner prints after set-up

    def __init__(self, seed: int):
        rng = input_rng(seed)
        self.Q, self.K, self.V = (rng.standard_normal((self.N, self.D)) for _ in range(3))
        self.spec = KernelSpec(lam=2.0)
        self.rows = np.sort(rng.choice(self.N, self.CHECK_ROWS, replace=False))
        # Output rows of the N x N oracle for a fixed subset of queries.
        self.expected = attention.nala_quadratic(
            self.Q[self.rows], self.K, self.V, self.spec
        ).output

    def op(self):
        return attention.nala_linear(self.Q, self.K, self.V, self.spec).output

    def check(self, out) -> bool:
        return out.shape == (self.N, self.D) and (
            max_rel_dev(out[self.rows], self.expected) <= ORACLE_TOL
        )


def _ln(x, gain=1.0, bias=0.0):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-6) * gain + bias


def reference_block(X, p, spec):
    """The gated block written out in plain numpy, attention by the causal
    N x N oracle.  Every stage is rowwise or causal, so the block output on a
    prefix of X equals the prefix of the block output on all of X."""
    h = _ln(X, p.ln1_gain, p.ln1_bias)
    Q, K, V, G = h @ p.w_q, h @ p.w_k, h @ p.w_v, h @ p.w_g
    w = p.dim // p.heads
    heads = [slice(i * w, (i + 1) * w) for i in range(p.heads)]
    attn = np.concatenate(
        [attention.nala_quadratic(Q[:, s], K[:, s], V[:, s], spec, causal=True).output
         for s in heads],
        axis=1,
    )
    Y = X + (_ln(attn) * (G / (1.0 + np.exp(-G)))) @ p.w_o
    F = _ln(Y, p.ln2_gain, p.ln2_bias) @ p.ffn_w1
    return Y + (0.5 * F * (1.0 + erf(F / np.sqrt(2.0)))) @ p.ffn_w2


class CausalBlock:
    """block_forward(causal=True), N=512, dim=256, 4 heads, random_block_params."""

    N, DIM, HEADS, PREFIX = 512, 256, 4, 256
    TAIL_PCT_MIN = 90
    notes = ()

    def __init__(self, seed: int):
        rng = input_rng(seed)
        self.params = attention.random_block_params(rng, self.DIM, self.HEADS)
        self.X = rng.standard_normal((self.N, self.DIM))
        self.spec = KernelSpec(lam=2.0)
        self.expected = reference_block(self.X[: self.PREFIX], self.params, self.spec)

    def op(self):
        return attention.block_forward(self.X, self.params, self.spec, causal=True)

    def check(self, out) -> bool:
        return out.shape == (self.N, self.DIM) and (
            max_rel_dev(out[: self.PREFIX], self.expected) <= ORACLE_TOL
        )


class EntropySweep:
    """norm_entropy_experiment over nala, relu, fixed_power and softmax;
    16 directions x 32 scales, N=128, d=16 (the CLI defaults but for the
    directions, which are 64 there)."""

    N_DIRS, N, D = 16, 128, 16
    TAIL_PCT_MIN = 90
    KINDS = (KernelKind.NALA, KernelKind.RELU, KernelKind.FIXED_POWER)

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [KernelSpec(kind=k, lam=2.0) for k in self.KINDS]
        self.c_grid = np.geomspace(0.25, 16.0, 32)
        self.expected = None
        records = self.op()
        if not self._spreads_ok(records):
            raise RuntimeError("entropy sweep violates the scale-spread properties")
        self.expected = records

    def op(self):
        records, _ = entropy.norm_entropy_experiment(
            input_rng(self.seed), self.specs, self.N_DIRS, self.N, self.D,
            self.c_grid, softmax_too=True,
        )
        return records

    def _spreads_ok(self, records) -> bool:
        """Homogeneous kernels: entropy flat in the query scale for every
        direction (variance <= 1e-12, acceptance criterion 7's bound); nala:
        it moves by more than 1e-3 for every direction.

        The homogeneous spread itself (max - min) is not held to 1e-12: the
        absolute DENOM_EPS in the evaluators breaks exact homogeneity by up
        to ~1e-9 at some seeds.  The largest one goes into ``notes`` so the
        runner prints it.
        """
        ents: dict[tuple[str, int], list[float]] = {}
        for r in records:
            ents.setdefault((r.kernel_id, r.direction_id), []).append(r.entropy)
        spread = 0.0
        for (kernel_id, _), e in ents.items():
            if kernel_id in ("relu", "fixed_power"):
                spread = max(spread, max(e) - min(e))
                if not np.var(e) <= 1e-12:
                    return False
            if kernel_id == "nala" and not max(e) - min(e) > 1e-3:
                return False
        self.notes = [f"relu/fixed_power max entropy spread over scales {spread:.3e} "
                      "(DENOM_EPS breaks exact homogeneity)"]
        expected_len = (len(self.KINDS) + 1) * self.N_DIRS * len(self.c_grid)
        return len(records) == expected_len

    def check(self, records) -> bool:
        # The reference records passed the spread properties at set-up, so
        # identical records pass them too.
        return records == self.expected


class Certify:
    """`nala grad-check` then `nala verify-theorems`, in-process, seed = workload seed.

    An op is correct when grad-check exits 0, verify-theorems reports PASS on
    every property except, possibly, the homogeneous kernels' scale
    invariance, and the stdout bytes equal those of the set-up run.  That one
    property fails at about one seed in twelve (deviation ~1.1e-12 against a
    1e-12 bound) because of the absolute DENOM_EPS in the evaluators; its
    FAIL lines go into ``notes`` so the runner prints them.
    """

    KNOWN_FAIL = "attention entropy is query-scale invariant"
    TAIL_PCT_MIN = 80

    def __init__(self, seed: int):
        self.argvs = [
            ["grad-check", "--seed", str(seed)],
            ["verify-theorems", "--seed", str(seed)],
        ]
        self.expected = None
        codes, out = self.op()
        fails = [line for line in out.splitlines() if not line.startswith("PASS ")]
        known = [line for line in fails if self.KNOWN_FAIL in line]
        if codes[0] != 0 or codes[1] != (1 if fails else 0) or fails != known:
            raise RuntimeError(f"certify exit codes {codes}:\n{out}")
        self.notes = [f"verify-theorems at this seed: {line} (DENOM_EPS)" for line in known]
        self.expected = (codes, out)

    def op(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [cli.parse_and_dispatch(argv) for argv in self.argvs]
        return codes, out.getvalue()

    def check(self, result) -> bool:
        return result == self.expected


WORKLOADS = {
    "linear_long": LinearLong,
    "causal_block": CausalBlock,
    "entropy_sweep": EntropySweep,
    "certify": Certify,
}
