"""Dense linear-algebra substrate: validated arrays, norm-direction splits, seeded RNG.

Everything downstream works on float64 numpy arrays.  The helpers here add
the validation the rest of the package relies on (finite entries, shape
agreement, non-zero vectors) and pin the random number generator to a fixed
algorithm so that identical seeds give identical streams.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ZeroVector

# Norms at or below this are treated as zero: a direction cannot be extracted.
ZERO_NORM_FLOOR = 1e-300


class NDParts(NamedTuple):
    """A non-zero vector split into its Euclidean length and unit direction."""

    norm: float
    direction: np.ndarray


def as_vector(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 vector, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if d is not None and v.size != d:
        raise DimensionMismatch(f"expected length {d}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 matrix, optionally checking its shape."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def nd_decompose(x) -> NDParts:
    """Split a non-zero vector into (Euclidean norm, unit direction).

    Raises ZeroVector when the norm is indistinguishable from zero; the
    direction of a zero vector is undefined.
    """
    v = as_vector(x)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_FLOOR:
        raise ZeroVector("cannot extract a direction from a zero vector")
    return NDParts(norm, v / norm)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator with a pinned bit stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_fill(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal draws from the stream."""
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"invalid shape ({rows}, {cols})")
    return rng.standard_normal((rows, cols))
