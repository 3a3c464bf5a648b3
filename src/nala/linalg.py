"""Dense linear-algebra substrate: validated arrays and a seeded RNG.

Everything downstream works on float64 numpy arrays.  The helpers here add
the validation the rest of the package relies on (finite entries, shape
agreement) and pin the random number generator to a fixed algorithm so
that identical seeds give identical streams.  The norm-direction split of
the feature maps lives with the maps, in nala.kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite


def as_vector(x) -> np.ndarray:
    """Coerce to a finite float64 vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("vector entries must be finite")
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
        raise NonFinite("matrix entries must be finite")
    return m


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator with a pinned bit stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))
