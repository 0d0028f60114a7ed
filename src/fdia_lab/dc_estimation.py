"""DC-model weighted-least-squares state estimation and its bad-data threshold.

The classic workflow that the stealthy injection ac = H d bypasses: estimate
x from z = Hx + e by minimizing the weighted quadratic objective, then flag
the measurement when the objective value exceeds a chi-square threshold.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import as_matrix, as_vector, solve


@dataclass(frozen=True)
class DcSystem:
    """A measurement model: m x n Jacobian and per-channel weights."""

    jacobian: np.ndarray    # H, (m, n)
    weights: np.ndarray     # diagonal of W, (m,)

    def __post_init__(self):
        h = as_matrix(self.jacobian)
        w = as_vector(self.weights, length=h.shape[0])
        if h.shape[0] < h.shape[1]:
            raise ConfigError("system must have at least as many measurements as states")
        if np.any(w <= 0):
            raise ConfigError("weights must be strictly positive")

    @property
    def m(self) -> int:
        return self.jacobian.shape[0]

    @property
    def n(self) -> int:
        return self.jacobian.shape[1]


def wls_estimate(sys: DcSystem, z: np.ndarray) -> np.ndarray:
    """argmin over x of (z - Hx)' W (z - Hx), via the normal equations."""
    z = as_vector(z, length=sys.m)
    h = sys.jacobian
    wh = sys.weights[:, None] * h
    return solve(h.T @ wh, h.T @ (sys.weights * z))


def objective(sys: DcSystem, z: np.ndarray, x_hat: np.ndarray) -> float:
    """Weighted squared residual (z - H x_hat)' W (z - H x_hat)."""
    z = as_vector(z, length=sys.m)
    x_hat = as_vector(x_hat, length=sys.n)
    r = z - sys.jacobian @ x_hat
    return float(np.dot(r, sys.weights * r))


def chi_square_threshold(dof: int, significance: float) -> float:
    """Upper-tail chi-square quantile via the Wilson-Hilferty cube approximation.

    Accurate to about 1% for dof >= 3, which is enough for a flag threshold;
    no table and no external dependency.
    """
    if dof < 1:
        raise ConfigError("degrees of freedom must be at least 1")
    if not 0.0 < significance < 1.0:
        raise ConfigError("significance must lie in (0, 1)")
    z = statistics.NormalDist().inv_cdf(1.0 - significance)
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * a ** 0.5) ** 3

