"""Knowledge-driven detection on filter outputs.

Two per-tick metrics with 3-sigma thresholds: the absolute deviation
between predicted and observed measurement (Euclidean channel) and the
normalized state residual ||x - x_hat|| / (||x|| * ||x_hat||) where the
reference x is the one-step prediction (the true state is unavailable in
live detection). The sigma of each channel is calibrated from signed,
zero-mean samples on an attack-free warm-up window so that the k-sigma
rule attains the expected two-sided false-alarm rate (~0.27% at k = 3).
``detect_stream``, the pipeline's call, and ``calibrate_channels`` share
one fit: both channels are computed once over the whole filter run as
arrays, and the thresholds are fitted on their warm-up slice.
``detect_stream`` then decides every tick of that pass with ``decide``;
``evaluate_stream`` decides a run for given thresholds. Row i of a run is
tick i. ``PassiveVerdicts`` iterates its columns as rows, and ``decide`` on
one value is the same inclusive rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .akf import FilterRun
from .errors import ConfigError, DataError, DimensionError

MIN_CALIBRATION_SAMPLES = 100
SETTLE_TICKS = 10  # first ticks of the warm-up left out of calibration


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


def decide(metric, th: Thresholds):
    """True where the metric reaches k * sigma (inclusive): a bool for one
    value, a boolean array for an array of them."""
    metric = np.asarray(metric)
    if (metric < 0).any():
        raise DataError("detection metrics are non-negative")
    flags = metric >= th.limit
    return bool(flags) if flags.ndim == 0 else flags


def _channels(outputs, zs, obs_rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-tick signed deviation H x_pred - z and residual metric
    ||x_pred - x_hat|| / (||x_pred|| * ||x_hat||), as arrays, with a
    DataError naming the first tick whose state is non-finite or of zero norm.
    """
    run = FilterRun.from_steps(outputs)
    x, x_hat = run.x_pred, run.x_hat
    n = len(x)
    z = np.asarray(zs, dtype=float)
    if len(z) != n:
        raise DimensionError(f"{len(z)} measurements for {n} filter steps")
    h = np.asarray(obs_rows, dtype=float).reshape(n, -1, x.shape[1])[:, 0, :]
    deviations = (h * x).sum(axis=1) - z
    finite = np.isfinite(x).all(axis=1) & np.isfinite(x_hat).all(axis=1)
    if not finite.all():
        raise DataError(f"filter state is non-finite at tick {np.argmin(finite)}")
    nx = np.sqrt((x * x).sum(axis=1))
    nh = np.sqrt((x_hat * x_hat).sum(axis=1))
    zero = (nx == 0.0) | (nh == 0.0)
    if zero.any():
        raise DataError("residual metric undefined for zero-norm state "
                        f"at tick {np.argmax(zero)}")
    diff = x - x_hat
    return deviations, np.sqrt((diff * diff).sum(axis=1)) / (nx * nh)


def _calibrated(outputs, zs, obs_rows, warmup: int,
                k: float) -> tuple[np.ndarray, np.ndarray, Thresholds, Thresholds]:
    """Both channels over the whole run, and both thresholds fitted on their
    warm-up ticks after the first ``SETTLE_TICKS``, which let the filter settle:
    the signed, zero-mean Euclidean deviation H x_pred - z, and the residual
    metric with that deviation's sign."""
    run = FilterRun.from_steps(outputs)
    if warmup > len(run.x_pred):
        raise DataError(f"warm-up window {warmup} exceeds run length {len(run.x_pred)}")
    deviations, residuals = _channels(run, zs, obs_rows)
    d, r = deviations[SETTLE_TICKS:warmup], residuals[SETTLE_TICKS:warmup]
    signed = np.where(d != 0.0, np.copysign(r, d), r)
    return (deviations, residuals, Thresholds(sigma=calibrate_sigma(d), k=k),
            Thresholds(sigma=calibrate_sigma(signed), k=k))


def calibrate_channels(outputs, zs, obs_rows, warmup: int,
                       k: float = 3.0) -> tuple[Thresholds, Thresholds]:
    """``detect_stream``'s thresholds. ``outputs`` is a FilterRun or a
    sequence of StepOutput."""
    return _calibrated(outputs, zs, obs_rows, warmup, k)[2:]


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class PassiveVerdicts:
    """A stream's verdicts as columns, row i being tick i; iterating yields
    PassiveVerdict rows."""

    euclidean_d: np.ndarray
    residual_r: np.ndarray
    residual_flag: np.ndarray   # armed residual-channel decision, the fusion input
    flag: np.ndarray            # armed union of both channel decisions

    def __iter__(self) -> Iterator[PassiveVerdict]:
        for row in zip(range(len(self.flag)), self.euclidean_d.tolist(),
                       self.residual_r.tolist(), self.flag.tolist()):
            yield PassiveVerdict(*row)


def _verdicts(deviations, residuals, euclid_th: Thresholds, resid_th: Thresholds,
              armed_from: int) -> PassiveVerdicts:
    d = np.abs(deviations)
    armed = np.arange(len(d)) >= armed_from
    residual_flag = armed & decide(residuals, resid_th)
    flag = residual_flag | (armed & decide(d, euclid_th))
    return PassiveVerdicts(euclidean_d=d, residual_r=residuals,
                           residual_flag=residual_flag, flag=flag)


def evaluate_stream(outputs, zs, obs_rows, euclid_th: Thresholds,
                    resid_th: Thresholds, armed_from: int = 0) -> PassiveVerdicts:
    """Per-tick verdicts; the flag is the union of both channel decisions.

    Ticks before ``armed_from`` (typically the calibration warm-up window)
    record their metric values but never flag: the thresholds do not exist
    yet while they are being fitted.
    """
    return _verdicts(*_channels(outputs, zs, obs_rows), euclid_th, resid_th, armed_from)


def detect_stream(outputs, zs, obs_rows, warmup: int, k: float = 3.0) -> PassiveVerdicts:
    """``calibrate_channels`` then ``evaluate_stream`` armed from the warm-up's end,
    on the one channel pass the thresholds are fitted on."""
    return _verdicts(*_calibrated(outputs, zs, obs_rows, warmup, k), warmup)

