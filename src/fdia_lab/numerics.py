"""Validation and the linear solve shared by all modules.

Matrices and vectors are plain float64 ``numpy`` arrays (row-major).
``solve`` checks the condition number before it calls LAPACK, so a
singular or nearly singular system raises a structured error carrying
its reciprocal condition number instead of returning garbage.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, NumericalError, SingularMatrixError

# A matrix whose reciprocal condition number 1 / cond(a) is at most this is
# treated as singular; the scalar-measurement filter paths apply the same
# bound to their 1 x 1 innovation covariance.
PIVOT_RTOL = 1e-12


def as_matrix(data) -> np.ndarray:
    """Validate and convert to a finite 2-D float array."""
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix contains non-finite entries")
    return a


def as_vector(data, length: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D float array."""
    v = np.asarray(data, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={v.ndim}")
    if length is not None and v.shape[0] != length:
        raise DimensionError(f"expected length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DataError("vector contains non-finite entries")
    return v


def solve(a: np.ndarray, b) -> np.ndarray:
    """Solve the square system a @ x = b for a vector or matrix b.

    A matrix whose reciprocal condition number 1 / cond(a) is at most
    PIVOT_RTOL raises SingularMatrixError carrying that number; any other
    goes to ``np.linalg.solve``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve needs a square matrix, got {a.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise DimensionError(f"right-hand side {b.shape} does not match {a.shape[0]} rows")
    if not np.all(np.isfinite(a)):
        raise NumericalError("cannot solve a system with non-finite entries")
    rcond = 1.0 / np.linalg.cond(a)
    if rcond <= PIVOT_RTOL:
        raise SingularMatrixError(rcond=float(rcond))
    return np.linalg.solve(a, b)
