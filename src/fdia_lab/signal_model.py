"""Two-state sinusoidal voltage measurement process.

A single-point voltage signal V_a*cos(omega*t + psi) is carried by the
state pair (x1, x2) = (V_a*cos(psi), V_a*sin(psi)). The state is constant
up to process noise (the transition matrix is the identity) and the scalar
measurement at tick t reads the state through the time-varying row
[cos(omega*t), -sin(omega*t)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class SignalParams:
    """Process parameters: angular rate per tick, noise levels, RNG seed."""

    omega: float
    sigma_process: float = 0.0
    sigma_meas: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class SignalState:
    """Amplitude-phase components of the voltage signal."""

    x1: float
    x2: float


@dataclass(frozen=True)
class Trace:
    """A simulated run: per-tick true states and scalar measurements."""

    ticks: np.ndarray   # (n,) int
    states: np.ndarray  # (n, 2)
    z: np.ndarray       # (n,)

    def __post_init__(self):
        n = len(self.ticks)
        if self.states.shape != (n, 2) or self.z.shape != (n,):
            raise DataError("trace arrays have inconsistent lengths")

    def __len__(self) -> int:
        return len(self.ticks)


def observation_row(t: int, omega: float) -> np.ndarray:
    """The 1x2 measurement row [cos(omega*t), -sin(omega*t)] at tick t."""
    angle = omega * t
    return np.array([[math.cos(angle), -math.sin(angle)]])


def observation_rows(ticks, omega: float) -> np.ndarray:
    """``observation_row`` at every tick, stacked to shape (n, 1, 2).

    The trigonometry goes through ``math`` like ``observation_row`` does, so
    the two agree bit for bit whatever numpy's own sin/cos would round to.
    """
    angles = (omega * np.asarray(ticks, dtype=float)).tolist()
    rows = np.empty((len(angles), 1, 2))
    rows[:, 0, 0] = [math.cos(a) for a in angles]
    rows[:, 0, 1] = [-math.sin(a) for a in angles]
    return rows


def simulate(params: SignalParams, initial: SignalState, n: int) -> Trace:
    """Run the process for n ticks; deterministic for a fixed seed.

    x(t+1) = x(t) + eta(t) with eta ~ N(0, sigma_process^2 I), and
    z(t) = [cos(omega t), -sin(omega t)] . x(t) + zeta(t),
    zeta ~ N(0, sigma_meas^2).
    """
    if n < 1:
        raise ConfigError("trace length must be at least 1")
    rng = np.random.default_rng(params.seed)
    etas = rng.normal(0.0, params.sigma_process, size=(n - 1, 2))
    zetas = rng.normal(0.0, params.sigma_meas, size=n)

    states = np.empty((n, 2))
    states[0] = (initial.x1, initial.x2)
    if n > 1:
        states[1:] = states[0] + np.cumsum(etas, axis=0)

    ticks = np.arange(n)
    angles = params.omega * ticks
    z = np.cos(angles) * states[:, 0] - np.sin(angles) * states[:, 1] + zetas
    return Trace(ticks=ticks, states=states, z=z)

