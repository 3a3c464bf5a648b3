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

jac_phi_q, jac_phi_k and finite_diff_jacobian take one point (d,) or an
(m, d) stack of points; one point runs as a stack of one, and each point
of a stack gets the bytes of its own one-point call.  finite_diff_jacobian
differentiates any map that takes rows: it evaluates the m*d perturbed
points of each side as one (m, d, d) batch.  max_rel_error takes the
matching Jacobian or stack of Jacobians.

|u|^p has a kink at zero that a central difference must not straddle.  One
rule, _near_kink, rejects points too close to it, point by point, in both
Jacobians and in the sampler admissible_point, so the two cannot disagree
about a point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingular, NonFinite
from .kernels import SQUASH_SCALE, KernelSpec, _norm_direction, direction_squash, power_exponent
from .linalg import as_rows

#: Entries below this in magnitude are too near the |.|^p kink for a
#: central difference of step 1e-5.
SINGULAR_FLOOR = 1e-3


def _kink_floor(d: int, direction: bool) -> float:
    """SINGULAR_FLOOR, times min(1, 4/sqrt(d)) for query directions: their entries
    and their central-difference steps both shrink like 1/sqrt(d)."""
    return SINGULAR_FLOOR * (min(1.0, 4.0 / math.sqrt(d)) if direction else 1.0)


def _near_kink(entries: np.ndarray, direction: bool) -> np.ndarray:
    """Per row: True when an entry (of a query direction, when `direction`) lies below its floor."""
    return np.any(np.abs(entries) < _kink_floor(entries.shape[-1], direction), axis=-1)


def admissible_point(rng: np.random.Generator, d: int, direction: bool) -> np.ndarray:
    """A Gaussian draw jac_phi_q (`direction`) or jac_phi_k accepts; NearSingular after 1000."""
    for _ in range(1000):
        x = rng.standard_normal(d)
        if not _near_kink(_norm_direction(x)[1] if direction else x, direction):
            return x
    raise NearSingular(f"no admissible point in 1000 Gaussian draws at d={d}: every draw had "
                       f"an entry below {_kink_floor(d, direction):g} in magnitude")


def _quiet_overflow():
    """No numpy warning for overflow at extreme lambda: the result reports it, as
    NonFinite from the Jacobians or a NaN error against the finite differences."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _diag(v) -> np.ndarray:
    """A stack of diagonal matrices, np.diag of each row of v."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def finite_diff_jacobian(f, x, step_scale: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian, step h_j = step_scale * max(1, |x_j|).

    x is one point (d,), giving an (out_dim, d) array, or an (m, d) stack,
    giving (m, out_dim, d).  f maps rows: given an (m, d, d) array it
    returns one output row per input row, as phi_q and phi_k do.  The m*d
    perturbed points of each side go through one call, f(x + diag(h)) and
    f(x - diag(h)) with one diagonal per point.
    """
    pts = np.atleast_2d(as_rows(x))
    h = step_scale * np.maximum(1.0, np.abs(pts))
    step = _diag(h)
    with _quiet_overflow():
        diff = np.asarray(f(pts[:, None, :] + step)) - np.asarray(f(pts[:, None, :] - step))
    jac = np.swapaxes(diff / (2.0 * h)[..., None], -1, -2)
    return jac[0] if np.ndim(x) == 1 else jac


def _sech2(x):
    return 1.0 / np.cosh(x) ** 2


def _angle_path(u, n):
    """Angles, their u-derivatives, and du/dq for (m, d) unit directions u = q/n, n (m, 1)."""
    du = (np.eye(u.shape[-1]) - u[..., :, None] * u[..., None, :]) / n[..., None]
    a = direction_squash(u)
    da = (SQUASH_SCALE * _sech2(u))[..., None] * du
    return a, da, du


def _assemble(m, dm, a, da):
    """The [cos; sin] blocks' (m, 2d, d) Jacobians from the magnitude and angle paths.

    NonFinite if any entry is not finite.
    """
    top = dm * np.cos(a)[..., None] - (m * np.sin(a))[..., None] * da
    bottom = dm * np.sin(a)[..., None] + (m * np.cos(a))[..., None] * da
    jac = np.concatenate([top, bottom], axis=-2)
    if not np.isfinite(jac).all():
        raise NonFinite("Jacobian is not finite in float64 at this point and lambda")
    return jac


def jac_phi_q(q, spec: KernelSpec) -> np.ndarray:
    """Analytic 2d x d Jacobian of the query feature map at q, or (m, 2d, d) at an (m, d) stack.

    NearSingular if any point is near the kink; NonFinite if any overflows.
    """
    n, u = _norm_direction(np.atleast_2d(as_rows(q)))
    if _near_kink(u, direction=True).any():
        raise NearSingular(f"direction entry below {_kink_floor(u.shape[-1], True):g}; resample")
    with _quiet_overflow():
        au = np.abs(u)
        p = power_exponent(n, spec)
        dp = spec.lam * _sech2(n) * u  # row: dp/dq_j
        a, da, du = _angle_path(u, n)
        m = au**p
        dm = m[..., None] * (
            np.log(au)[..., None] * dp[:, None, :] + (p * np.sign(u) / au)[..., None] * du
        )
        jac = _assemble(m, dm, a, da)
    return jac[0] if np.ndim(q) == 1 else jac


def jac_phi_k(k, spec: KernelSpec) -> np.ndarray:
    """Analytic 2d x d Jacobian of the key feature map at k, or (m, 2d, d) at an (m, d) stack.

    NearSingular if any point is near the kink; NonFinite if any overflows.
    """
    pts = np.atleast_2d(as_rows(k))
    if _near_kink(pts, direction=False).any():
        raise NearSingular(f"key entry below {SINGULAR_FLOOR:g}; resample the point")
    n, u = _norm_direction(pts)
    with _quiet_overflow():
        a, da, _ = _angle_path(u, n)
        m = np.abs(pts) ** spec.lam
        dm = _diag(spec.lam * np.sign(pts) * np.abs(pts) ** (spec.lam - 1.0))
        jac = _assemble(m, dm, a, da)
    return jac[0] if np.ndim(k) == 1 else jac


def max_rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max-norm difference relative to max(1, max-norm of the reference fd).

    analytic and fd are one (out, d) Jacobian or an (m, out, d) stack; each
    point is normalized by its own max(1, max |fd|), and the worst point's
    error is returned.  One temporary: the difference, made absolute in
    place.  abs is exact, so max |fd| is max(fd.max(), -fd.min()) without a
    second array.  A NaN entry makes the error NaN: np.max and np.maximum
    keep it.
    """
    diff = analytic - fd
    np.abs(diff, out=diff)
    axes = (-2, -1)
    scale = np.maximum(1.0, np.maximum(fd.max(axis=axes), -fd.min(axis=axes)))
    return float((diff.max(axis=axes) / scale).max())
