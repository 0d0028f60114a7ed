"""Knowledge-driven detection on filter outputs.

Two per-tick metrics with 3-sigma thresholds: the absolute deviation
between predicted and observed measurement (Euclidean channel) and the
normalized state residual ||x - x_hat|| / (||x|| * ||x_hat||) where the
reference x is the one-step prediction (the true state is unavailable in
live detection). The sigma of each channel is calibrated from signed,
zero-mean samples on an attack-free warm-up window so that the k-sigma
rule attains the expected two-sided false-alarm rate (~0.27% at k = 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .akf import FilterRun
from .errors import ConfigError, DataError, DimensionError
from .io_utils import write_columns
from .numerics import Vector, as_vector, norm2

MIN_CALIBRATION_SAMPLES = 100
SETTLE_TICKS = 10  # first ticks of the warm-up left out of calibration
VERDICTS_HEADER = ["t", "euclidean_d", "residual_r", "flag"]


@dataclass(frozen=True)
class Thresholds:
    sigma: float
    k: float = 3.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError("threshold sigma must be positive")
        if self.k <= 0:
            raise ConfigError("threshold multiplier must be positive")

    @property
    def limit(self) -> float:
        return self.k * self.sigma


@dataclass(frozen=True)
class PassiveVerdict:
    t: int
    euclidean_d: float
    residual_r: float
    flag: bool


def calibrate_sigma(clean_metrics: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator) of an attack-free window."""
    values = np.asarray(clean_metrics, dtype=float)
    if values.ndim != 1 or len(values) < MIN_CALIBRATION_SAMPLES:
        raise DataError(
            f"calibration needs at least {MIN_CALIBRATION_SAMPLES} attack-free samples, "
            f"got {values.size}"
        )
    if np.ptp(values) == 0.0:
        raise DataError("calibration window is constant; threshold undefined")
    return float(np.std(values, ddof=1))


def euclidean_deviation(estimated: float, observed: float) -> float:
    """Absolute deviation between predicted and observed signal values."""
    return abs(float(estimated) - float(observed))


def residual_metric(x: Vector, x_hat: Vector) -> float:
    """Normalized residual ||x - x_hat|| / (||x|| * ||x_hat||)."""
    x = as_vector(x)
    x_hat = as_vector(x_hat, length=len(x))
    nx, nh = norm2(x), norm2(x_hat)
    if nx == 0.0 or nh == 0.0:
        raise DataError("residual metric undefined for zero-norm state")
    return norm2(x - x_hat) / (nx * nh)


def decide(metric: float, th: Thresholds) -> bool:
    """True iff the metric reaches k * sigma (inclusive)."""
    if metric < 0:
        raise DataError("detection metrics are non-negative")
    return metric >= th.limit


def _channels(outputs, zs, obs_rows) -> tuple[FilterRun, np.ndarray, np.ndarray]:
    """Per-tick signed deviation H x_pred - z and residual metric, as arrays.

    The same arithmetic as ``euclidean_deviation`` and ``residual_metric``
    tick by tick, with the same DataErrors, which here name the tick.
    """
    run = FilterRun.from_steps(outputs)
    n = len(run)
    z = np.asarray(zs, dtype=float)
    if len(z) != n:
        raise DimensionError(f"{len(z)} measurements for {n} filter steps")
    if n == 0:
        return run, np.empty(0), np.empty(0)
    x, x_hat = run.x_pred, run.x_hat
    h = np.asarray(obs_rows, dtype=float).reshape(n, -1, x.shape[1])[:, 0, :]
    deviations = (h * x).sum(axis=1) - z
    finite = np.isfinite(x).all(axis=1) & np.isfinite(x_hat).all(axis=1)
    if not finite.all():
        raise DataError(f"filter state is non-finite at tick {run.t[np.argmin(finite)]}")
    nx = np.sqrt((x * x).sum(axis=1))
    nh = np.sqrt((x_hat * x_hat).sum(axis=1))
    zero = (nx == 0.0) | (nh == 0.0)
    if zero.any():
        raise DataError("residual metric undefined for zero-norm state "
                        f"at tick {run.t[np.argmax(zero)]}")
    diff = x - x_hat
    residuals = np.sqrt((diff * diff).sum(axis=1)) / (nx * nh)
    return run, deviations, residuals


def channel_samples(outputs, zs, obs_rows) -> tuple[np.ndarray, np.ndarray]:
    """Signed per-tick calibration samples for both channels.

    Euclidean channel: H x_pred - z (zero-mean under no attack).
    Residual channel: the normalized residual with the sign of the
    Euclidean deviation attached, likewise zero-mean by symmetry.
    ``outputs`` is a FilterRun or a sequence of StepOutput.
    """
    _, deviations, residuals = _channels(outputs, zs, obs_rows)
    return deviations, np.where(deviations != 0.0,
                                np.copysign(residuals, deviations), residuals)


def calibrate_channels(outputs, zs, obs_rows, warmup: int,
                       k: float = 3.0) -> tuple[Thresholds, Thresholds]:
    """Fit both channel thresholds on an attack-free warm-up window.

    The first ``SETTLE_TICKS`` ticks are excluded to let the filter settle.
    """
    if warmup > len(outputs):
        raise DataError(f"warm-up window {warmup} exceeds run length {len(outputs)}")
    devs, signed_res = channel_samples(outputs[SETTLE_TICKS:warmup], zs[SETTLE_TICKS:warmup],
                                       obs_rows[SETTLE_TICKS:warmup])
    return (Thresholds(sigma=calibrate_sigma(devs), k=k),
            Thresholds(sigma=calibrate_sigma(signed_res), k=k))


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class PassiveVerdicts:
    """A stream's verdicts as columns; iterating yields PassiveVerdict rows."""

    t: np.ndarray
    euclidean_d: np.ndarray
    residual_r: np.ndarray
    residual_flag: np.ndarray   # armed residual-channel decision, the fusion input
    flag: np.ndarray            # armed union of both channel decisions

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[PassiveVerdict]:
        for row in zip(self.t.tolist(), self.euclidean_d.tolist(),
                       self.residual_r.tolist(), self.flag.tolist()):
            yield PassiveVerdict(*row)


def evaluate_stream(outputs, zs, obs_rows, euclid_th: Thresholds,
                    resid_th: Thresholds, armed_from: int = 0) -> PassiveVerdicts:
    """Per-tick verdicts; the flag is the union of both channel decisions.

    Ticks before ``armed_from`` (typically the calibration warm-up window)
    record their metric values but never flag: the thresholds do not exist
    yet while they are being fitted.
    """
    run, deviations, residuals = _channels(outputs, zs, obs_rows)
    d = np.abs(deviations)
    armed = run.t >= armed_from
    residual_flag = armed & (residuals >= resid_th.limit)
    flag = residual_flag | (armed & (d >= euclid_th.limit))
    return PassiveVerdicts(t=run.t, euclidean_d=d, residual_r=residuals,
                           residual_flag=residual_flag, flag=flag)


def write_verdicts_csv(t, euclidean_d, residual_r, flag, path) -> None:
    """Write a verdict stream's columns (``PassiveVerdicts`` fields of those
    names); any column may be given as the cells ``io_utils.fmt_column`` made
    of it, to share them with other files."""
    write_columns(path, VERDICTS_HEADER, [t, euclidean_d, residual_r, flag])
