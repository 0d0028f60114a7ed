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
from .io_utils import parse_column, read_csv, write_columns
from .numerics import Matrix


@dataclass(frozen=True)
class SignalParams:
    """Process parameters: angular rate per tick, noise levels, RNG seed."""

    omega: float
    sigma_process: float = 0.0
    sigma_meas: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.omega <= 0:
            raise ConfigError("omega must be positive")
        if self.sigma_process < 0 or self.sigma_meas < 0:
            raise ConfigError("noise standard deviations must be non-negative")


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
        if n > 1 and not np.all(np.diff(self.ticks) > 0):
            raise DataError("trace ticks must be strictly increasing")

    def __len__(self) -> int:
        return len(self.ticks)


def observation_row(t: int, omega: float) -> Matrix:
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


def amplitude_phase(state: SignalState) -> tuple[float, float]:
    """Recover (V_a, psi) from the state components."""
    return math.hypot(state.x1, state.x2), math.atan2(state.x2, state.x1)


TRACE_HEADER = ["t", "x1", "x2", "z"]
LABELS_HEADER = ["t", "label"]


def write_trace_csv(ticks, states: np.ndarray, z, path) -> None:
    """Write a trace's columns; ``ticks`` and ``z`` may be given as the cells
    ``io_utils.fmt_column`` made of them, to share them with other files."""
    write_columns(path, TRACE_HEADER, [ticks, states[:, 0], states[:, 1], z])


def _data_rows(path, expected_header: list[str]) -> list[list[str]]:
    """The rows of a CSV file with the given header; a file without data
    rows is a DataError naming it."""
    header, rows = read_csv(path)
    if header != expected_header:
        raise DataError(f"{path}: unexpected header {header}, expected {expected_header}")
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    return rows


def read_trace_csv(path) -> Trace:
    rows = _data_rows(path, TRACE_HEADER)
    ticks, x1, x2, z = (parse_column(path, rows, i, name, int if name == "t" else float)
                        for i, name in enumerate(TRACE_HEADER))
    return Trace(ticks=ticks, states=np.column_stack([x1, x2]), z=z)


def write_labels_csv(ticks, labels, path) -> None:
    """Write 0/1 (or boolean) labels; either column may be given as cells."""
    write_columns(path, LABELS_HEADER, [ticks, labels])


def read_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _data_rows(path, LABELS_HEADER)
    return (parse_column(path, rows, 0, "t", int),
            parse_column(path, rows, 1, "label", int))
