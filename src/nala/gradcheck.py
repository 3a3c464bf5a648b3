"""Analytic Jacobians of the norm-aware feature maps, certified by finite differences.

The query map composes four pieces - the norm, the direction, the
norm-dependent exponent, and the angle squash - so its Jacobian is
assembled by the chain rule:

    du/dq = (I - u u^T) / n          with (n, u) the norm-direction split,
    dp/dq = lambda * sech^2(n) u^T,
    dm_i  = m_i [ p * d|u_i| / |u_i| + ln|u_i| * dp ],
    da_i  = SQUASH_SCALE * sech^2(u_i) du_i,

and the cos/sin blocks follow by the product rule.  The key map is the
same on the angle side with a diagonal lambda |k_i|^(lambda-1) sign(k_i)
magnitude path.  Both Jacobians differentiate the maps' own split,
kernels._norm_direction.

finite_diff_jacobian differentiates any map that takes rows: it evaluates
the d perturbed points of each side as one (d, d) batch.

|u|^p has a kink at zero that a central difference must not straddle.  One
rule, _near_kink, rejects points too close to it, in both Jacobians and in
the sampler admissible_point, so the two cannot disagree about a point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingular, NonFinite
from .kernels import SQUASH_SCALE, KernelSpec, _norm_direction, direction_squash, power_exponent
from .linalg import as_vector

#: Entries below this in magnitude are too near the |.|^p kink for a
#: central difference of step 1e-5.
SINGULAR_FLOOR = 1e-3


def _kink_floor(d: int, direction: bool) -> float:
    """SINGULAR_FLOOR, times min(1, 4/sqrt(d)) for query directions: their entries
    and their central-difference steps both shrink like 1/sqrt(d)."""
    return SINGULAR_FLOOR * (min(1.0, 4.0 / math.sqrt(d)) if direction else 1.0)


def _near_kink(entries: np.ndarray, direction: bool) -> bool:
    """True when an entry (of a query direction, when `direction`) lies below its floor."""
    return bool(np.any(np.abs(entries) < _kink_floor(entries.size, direction)))


def admissible_point(rng: np.random.Generator, d: int, direction: bool) -> np.ndarray:
    """A Gaussian draw jac_phi_q (`direction`) or jac_phi_k accepts; NearSingular after 1000."""
    for _ in range(1000):
        x = rng.standard_normal(d)
        if not _near_kink(_norm_direction(x)[1] if direction else x, direction):
            return x
    raise NearSingular(f"no admissible point in 1000 Gaussian draws at d={d}: every draw had "
                       f"an entry below {_kink_floor(d, direction):g} in magnitude")


def finite_diff_jacobian(f, x, step_scale: float = 1e-5) -> np.ndarray:
    """Central-difference (out_dim, d) Jacobian, step h_j = step_scale * max(1, |x_j|).

    f maps rows: given a (d, d) array it returns one output row per input
    row, as phi_q and phi_k do.  The d perturbed points of each side go
    through one call, f(x + diag(h)) and f(x - diag(h)).
    """
    x = as_vector(x)
    h = step_scale * np.maximum(1.0, np.abs(x))
    step = np.diag(h)
    diff = np.asarray(f(x + step)) - np.asarray(f(x - step))
    return (diff / (2.0 * h)[:, None]).T


def _sech2(x):
    return 1.0 / np.cosh(x) ** 2


def _angle_path(u, n):
    """Angles, their u-derivatives, and du/dq for a unit direction u = q/n."""
    du = (np.eye(u.size) - np.outer(u, u)) / n
    a = direction_squash(u)
    da = (SQUASH_SCALE * _sech2(u))[:, None] * du
    return a, da, du


def _assemble(m, dm, a, da):
    """The [cos; sin] blocks' Jacobian from the magnitude and angle paths; NonFinite if not finite."""
    top = dm * np.cos(a)[:, None] - (m * np.sin(a))[:, None] * da
    bottom = dm * np.sin(a)[:, None] + (m * np.cos(a))[:, None] * da
    jac = np.vstack([top, bottom])
    if not np.isfinite(jac).all():
        raise NonFinite("Jacobian is not finite in float64 at this point and lambda")
    return jac


def jac_phi_q(q, spec: KernelSpec) -> np.ndarray:
    """Analytic 2d x d Jacobian of the query feature map at q; NonFinite if it overflows."""
    norms, u = _norm_direction(as_vector(q))
    if _near_kink(u, direction=True):
        raise NearSingular(f"direction entry below {_kink_floor(u.size, True):g}; resample")
    n = norms[0]
    au = np.abs(u)
    p = float(power_exponent(n, spec))
    dp = spec.lam * _sech2(n) * u  # row: dp/dq_j
    a, da, du = _angle_path(u, n)
    m = au**p
    dm = m[:, None] * (
        np.log(au)[:, None] * dp[None, :] + (p * np.sign(u) / au)[:, None] * du
    )
    return _assemble(m, dm, a, da)


def jac_phi_k(k, spec: KernelSpec) -> np.ndarray:
    """Analytic 2d x d Jacobian of the key feature map at k; NonFinite if it overflows."""
    k = as_vector(k)
    if _near_kink(k, direction=False):
        raise NearSingular(f"key entry below {SINGULAR_FLOOR:g}; resample the point")
    norms, u = _norm_direction(k)
    a, da, _ = _angle_path(u, norms[0])
    m = np.abs(k) ** spec.lam
    dm = np.diag(spec.lam * np.sign(k) * np.abs(k) ** (spec.lam - 1.0))
    return _assemble(m, dm, a, da)


def max_rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max-norm difference relative to max(1, max-norm of the reference fd).

    One temporary: the difference, made absolute in place.  abs is exact,
    so max |fd| is max(fd.max(), -fd.min()) without a second array.
    """
    diff = analytic - fd
    np.abs(diff, out=diff)
    return float(diff.max() / max(1.0, fd.max(), -fd.min()))
