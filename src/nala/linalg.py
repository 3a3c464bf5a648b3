"""Dense linear-algebra substrate: validated arrays, an exact rescale and a seeded RNG.

Everything downstream works on float64 numpy arrays.  The helpers here add
the validation the rest of the package relies on (finite entries, shape
agreement) and pin the random number generator to a fixed algorithm so
that identical seeds give identical streams.  rescale_rows is the one
exact power-of-two rescale: the norm-direction split of the feature maps
(nala.kernels), layer_norm (nala.attention) and pse (nala.entropy) run
it on rows whose squares or sums would leave the float64 range.
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


def as_rows(x) -> np.ndarray:
    """One finite row (as_vector), or a finite (m, N) stack of rows (as_matrix) when x is 2-D."""
    return as_matrix(x) if np.ndim(x) == 2 else as_vector(x)


def rescale_rows(x, rows=True) -> tuple[np.ndarray, np.ndarray]:
    """(x / 2**e, e), e the frexp exponent of each row's largest |entry|; NonFinite on NaN or inf.

    Rows are the last axis; e keeps it as a length-1 axis and is 0 where
    the mask rows, broadcast against e, is False.  A rescaled non-zero row
    has its largest |entry| in [0.5, 1).  Dividing by a power of two is exact,
    except for entries so far below their row's largest that they become
    subnormal.
    """
    if not np.isfinite(x).all():
        raise NonFinite("entries must be finite")
    _, e = np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))
    e = np.where(rows, e, 0)
    return np.ldexp(x, -e), e


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator with a pinned bit stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))
