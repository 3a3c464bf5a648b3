"""Feature maps for kernelized attention.

The norm-aware map ("nala") factors a vector into norm and direction with
_norm_direction, the one split: both maps run it, and the analytic
Jacobians in nala.gradcheck differentiate it.  The two parts are treated
differently:

* query magnitudes are the direction entries raised elementwise to a
  norm-dependent power p(n) = lambda * (0.5 + tanh(n)), so a longer query
  sharpens the weighting of its own coordinates.  p > 0, so the magnitude
  is continuous in the entry and exactly zero at a zero entry;
* key magnitudes are the raw entries raised to the fixed power lambda, so
  key length survives the map;
* signs are carried separately: each direction entry is squashed into
  (-SQUASH_SCALE, SQUASH_SCALE) = (-pi/4, pi/4) and encoded as a
  [cos; sin] pair, doubling the feature dimension.  The product of two
  such features is, per coordinate, a cosine of an angle difference in
  (-pi/2, pi/2) - strictly positive, and smallest when the coordinates
  have opposite signs.

Both maps run one fill, which differs between them only in the magnitude,
and one chunk loop, which maps any (..., d) input as rows, copied first
if its rows are strided, so the bytes do not depend on the layout.  The
split rescales out-of-range rows by an exact power of two
(linalg.rescale_rows), so every non-zero finite row has a direction.

A zero row maps to zero features under both maps.  For keys this is the
limit of phi_k(c*k) = c**lambda * phi_k(k), so a zero key adds nothing to
any attention sum.  phi_q(c*u) has no limit as c -> 0, so for queries it
is a convention: the row's similarities are zero, and so is its output.

The [m cos a; m sin a] pair is computed from the half-angle identity: with
t = tan(a/2), cos a = (1 - t^2) / (1 + t^2) and sin a = 2t / (1 + t^2), so
a map costs one tan and a few multiplies and adds per entry.  numpy runs
float64 tan through SIMD loops but cos and sin through scalar libm: on a
2-core x86-64 host with numpy 2.4.6, one 16384x32 pass took 2.9 ms for cos,
3.9 ms for sin and 1.0 ms for tan (min of 50 calls).  The fill runs every
pass on contiguous (rows, d) arrays and writes each half of the (rows, 2d)
output once, since numpy runs a strided half row by row; its operation
order, which keeps a finite magnitude finite, is given in _fill_trig_blocks.

The baseline maps (relu, one_plus_elu, fixed_power) are the usual
elementwise non-negative maps, kept here as experimental controls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, WrongKernel
from .linalg import rescale_rows


class KernelKind(str, enum.Enum):
    NALA = "nala"
    RELU = "relu"
    ONE_PLUS_ELU = "one_plus_elu"
    FIXED_POWER = "fixed_power"


#: Kernel kinds whose feature map is positively homogeneous: phi(c*x) is a
#: positive scalar multiple of phi(x) for c > 0, so normalized attention
#: weights cannot depend on the input's scale.
HOMOGENEOUS_KINDS = frozenset({KernelKind.RELU, KernelKind.FIXED_POWER})

_FLOAT64 = np.finfo(np.float64)

#: Angle bound of the sign encoding.  Two squashed angles in
#: (-pi/4, pi/4) differ by less than pi/2, so every per-coordinate cosine
#: factor of a query/key feature product is positive; a larger bound would
#: let it turn negative.
SQUASH_SCALE = math.pi / 4


@dataclass(frozen=True)
class KernelSpec:
    """Kernel identity plus its one hyperparameter.

    lambda, positive and finite, controls both the key exponent and the
    range of the query exponent p(n) in [0.5*lambda, 1.5*lambda).  The
    angle bound of the sign encoding is the module constant SQUASH_SCALE.
    """

    kind: KernelKind = KernelKind.NALA
    lam: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kind", KernelKind(self.kind))
        if not 0 < self.lam < math.inf:  # NaN fails both comparisons
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


def power_exponent(norm, spec: KernelSpec):
    """Query exponent p(n) = lambda * (0.5 + tanh(n)), in [0.5*lambda, 1.5*lambda)."""
    return spec.lam * (0.5 + np.tanh(norm))


def direction_squash(u):
    """Odd, bounded squash SQUASH_SCALE * tanh(u) mapping R into (-pi/4, pi/4)."""
    return SQUASH_SCALE * np.tanh(u)


def _norm_direction(x):
    """Rowwise (norm, direction) over the last axis.

    An all-zero row gets norm 0 and direction 0; a row with a NaN or
    infinite entry raises NonFinite.  A row whose squared norm leaves the
    float64 normal range is first rescaled by linalg.rescale_rows, an
    exact power of two, so every non-zero finite row has a direction.
    """
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("...i,...i->...", x, x)[..., None]
    if sq.min() >= _FLOAT64.tiny and sq.max() <= _FLOAT64.max:
        norms = np.sqrt(sq)
        return norms, x / norms
    # A non-finite entry makes its row's squared norm NaN or inf, which
    # fails the test above (a NaN fails both comparisons), so only this
    # branch can meet one; rescale_rows raises NonFinite for it.
    x, e = rescale_rows(x, ~((sq >= _FLOAT64.tiny) & (sq <= _FLOAT64.max)))
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    return np.ldexp(norms, e), np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


#: Elements per chunk of the map driver, so every temporary stays
#: cache-resident; the maps are the hot path of all O(N) evaluators.
#: Swept with one BLAS thread, variants alternated, two sweeps of 36 timed
#: calls each (ms, min / median):
#:
#:   elements per block            16k         32k         64k         128k
#:   nala_linear N=16384, d=32     36.3/48.6   38.1/46.8   37.9/47.9   40.1/52.9
#:                                 39.6/53.0   38.1/48.3   37.3/49.0   40.5/49.8
#:   phi_q*phi_k, 100k x 16 rows   114/142     107/137     112/140     118/137
#:                                 110/139     110/138     105/135     110/144
#:
#: No size wins at both shapes beyond the noise, so the value stays.  (The
#: nala_linear rows predate its block loop: it then mapped Q and K whole.)
#:
#: It also sets the rows per block of the O(N) evaluators' block loop
#: (attention._stream), max(1, _MAP_BLOCK_ELEMS // d): 1024 at d=32.
#: Those rows, swept at N=16384, d=32 with the map chunks left at 32768
#: elements (one BLAS thread, interleaved, two sweeps of 30 calls, ms,
#: min / median):
#:
#:   rows     256        512        1024       2048       4096       16384
#:            25.8/28.1  24.4/26.4  24.4/27.0  25.1/27.2  26.3/29.0  32.0/35.6
#:            25.3/36.9  24.5/35.1  24.6/33.0  25.3/32.4  26.7/34.1  32.3/41.7
#:
#: 512 and 1024 rows tie; one block of all 16384 rows is about 30% slower.
_MAP_BLOCK_ELEMS = 32768


def _fill_trig_blocks(out, d, magnitudes, half_angles):
    """Write [m * cos(a); m * sin(a)] into out from m and the half-angles a/2.

    With t = tan(a/2), cos a = (1 - t^2) / (1 + t^2) and sin a = 2t / (1 + t^2).
    One SIMD tan replaces the scalar libm cos and sin, which took about
    60% of a map over a 32768-element block.  The blocks are
    formed as r = m / (1 + t^2), r * (1 - t^2) and (2t) * r: 2*m is never
    formed, so a finite magnitude near the float64 maximum still gives a
    finite feature.  |a| <= pi/4 bounds t^2 by tan^2(pi/8) ~ 0.17, so
    1 - t^2 does not cancel.  Both input buffers are overwritten.

    Every pass runs on contiguous (rows, d) arrays, and each half of out is
    written once, by a slice assignment at the end.  out[..., :d] and
    out[..., d:] are strided, and numpy runs a strided (rows, d) operand as
    one inner loop of d elements per row: on a 2-core x86-64 host with
    numpy 2.4.6, np.add(1.0, .) into a 1024 x 32 half took 27 us, against
    12 us into a contiguous array (min of 3000).  Run as seven passes into
    the halves, the fill of a 1024 x 32 block inside nala_linear took
    322 us; as contiguous passes and two copies, 192 us (min of 1280).
    Each element sees the same operations in the same order either way,
    so the output is bit-identical.
    """
    t = np.tan(half_angles, out=half_angles)
    t_sq = t * t
    den = np.add(1.0, t_sq)
    r = np.divide(magnitudes, den, out=magnitudes)
    cos = np.multiply(np.subtract(1.0, t_sq, out=den), r, out=den)
    sin = np.multiply(np.add(t, t, out=t_sq), r, out=t_sq)
    out[..., :d] = cos
    out[..., d:] = sin
    return out


def _map_rows_into(x, spec: KernelSpec, query: bool, out):
    """Fill out with phi_q (query) or phi_k rows of x; the maps differ only in m."""
    norms, u = _norm_direction(x)
    if query:
        m, power = np.abs(u), power_exponent(norms, spec)
    else:
        m, power = np.abs(x), spec.lam
    np.power(m, power, out=m)
    half_angles = np.tanh(u, out=u)  # direction no longer needed past this point
    half_angles *= 0.5 * SQUASH_SCALE
    return _fill_trig_blocks(out, u.shape[-1], m, half_angles)


def _map(x, spec: KernelSpec, query: bool) -> np.ndarray:
    """Map any (..., d) input as rows, _MAP_BLOCK_ELEMS elements per chunk."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionMismatch(f"feature map requires rows of at least one entry, got {x.shape}")
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    if rows.strides[-1] != rows.itemsize:
        # the split's einsum row sum follows the memory layout, so a strided
        # row would map to other bytes than its contiguous copy
        rows = np.ascontiguousarray(rows)
    out = np.empty((rows.shape[0], 2 * d))
    step = max(1, _MAP_BLOCK_ELEMS // d)
    for i in range(0, rows.shape[0], step):
        _map_rows_into(rows[i : i + step], spec, query, out[i : i + step])
    return out.reshape(x.shape[:-1] + (2 * d,))


def phi_q(q, spec: KernelSpec) -> np.ndarray:
    """Norm-aware query feature map; input (..., d) -> output (..., 2d).

    With (n, u) the norm-direction split of a query row, the magnitude of
    coordinate i is |u_i| ** p(n), and its angle is the squashed direction
    entry.
    """
    if spec.kind is not KernelKind.NALA:
        raise WrongKernel(f"phi_q requires the nala kernel, got {spec.kind.value}")
    return _map(q, spec, query=True)


def phi_k(k, spec: KernelSpec) -> np.ndarray:
    """Norm-aware key feature map; input (..., d) -> output (..., 2d).

    Magnitudes are |k_i| ** lambda on the raw entries, so the key's length
    scales the whole feature (phi_k(c*k) = c**lambda * phi_k(k) for c > 0);
    angles come from the direction entries exactly as in phi_q.
    """
    if spec.kind is not KernelKind.NALA:
        raise WrongKernel(f"phi_k requires the nala kernel, got {spec.kind.value}")
    return _map(k, spec, query=False)


def baseline_map(x, spec: KernelSpec) -> np.ndarray:
    """Elementwise non-negative control maps, (..., d) -> (..., d); NonFinite on NaN or inf."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFinite("feature map requires finite entries")
    if spec.kind is KernelKind.RELU:
        return np.maximum(x, 0.0)
    if spec.kind is KernelKind.ONE_PLUS_ELU:
        return np.where(x >= 0, 1.0 + x, np.exp(x))
    if spec.kind is KernelKind.FIXED_POWER:
        return np.maximum(x, 0.0) ** spec.lam
    raise WrongKernel(f"baseline_map does not handle kernel {spec.kind.value}")


def feature_maps(spec: KernelSpec):
    """(query map, key map) pair selected by the spec's kind."""
    if spec.kind is KernelKind.NALA:
        return (lambda x: phi_q(x, spec)), (lambda x: phi_k(x, spec))
    fn = lambda x: baseline_map(x, spec)  # noqa: E731 - shared by both sides
    return fn, fn

