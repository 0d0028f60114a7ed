"""Knowledge-driven detection on filter outputs.

Two per-tick metrics with 3-sigma thresholds: the absolute deviation
between predicted and observed measurement (Euclidean channel) and the
normalized state residual ||x - x_hat|| / (||x|| * ||x_hat||) where the
reference x is the one-step prediction (the true state is unavailable in
live detection). The sigma of each channel is calibrated from signed,
zero-mean samples on an attack-free warm-up window so that the k-sigma
rule attains the expected two-sided false-alarm rate (~0.27% at k = 3).
``detect_stream``, the pipeline's call, computes both channels once per
filter run as arrays, fits the thresholds on their warm-up slice and
decides every tick with ``decide``. The other entry points are views of
that pass: ``calibrate_channels`` is its fit, ``evaluate_stream`` its
decisions, ``PassiveVerdicts`` iterates its columns as rows, and ``decide``
on one value is the same inclusive rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .akf import FilterRun
from .errors import ConfigError, DataError, DimensionError
from .io_utils import write_columns

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


def decide(metric, th: Thresholds):
    """True where the metric reaches k * sigma (inclusive): a bool for one
    value, a boolean array for an array of them."""
    metric = np.asarray(metric)
    if (metric < 0).any():
        raise DataError("detection metrics are non-negative")
    flags = metric >= th.limit
    return bool(flags) if flags.ndim == 0 else flags


def _channels(outputs, zs, obs_rows) -> tuple[FilterRun, np.ndarray, np.ndarray]:
    """Per-tick signed deviation H x_pred - z and residual metric
    ||x_pred - x_hat|| / (||x_pred|| * ||x_hat||), as arrays, with a
    DataError naming the first tick whose state is non-finite or of zero norm.
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


def _fit(deviations, residuals, k: float) -> tuple[Thresholds, Thresholds]:
    """Both channel thresholds from signed, zero-mean samples: the Euclidean
    deviation H x_pred - z, and the residual metric with that deviation's sign."""
    signed = np.where(deviations != 0.0, np.copysign(residuals, deviations), residuals)
    return (Thresholds(sigma=calibrate_sigma(deviations), k=k),
            Thresholds(sigma=calibrate_sigma(signed), k=k))


def _calibration_ticks(outputs, warmup: int) -> slice:
    """The warm-up's ticks after the first ``SETTLE_TICKS``, which let the filter settle."""
    if warmup > len(outputs):
        raise DataError(f"warm-up window {warmup} exceeds run length {len(outputs)}")
    return slice(SETTLE_TICKS, warmup)


def calibrate_channels(outputs, zs, obs_rows, warmup: int,
                       k: float = 3.0) -> tuple[Thresholds, Thresholds]:
    """``detect_stream``'s thresholds, fitted on the channels of the warm-up
    ticks alone. ``outputs`` is a FilterRun or a sequence of StepOutput."""
    ticks = _calibration_ticks(outputs, warmup)
    return _fit(*_channels(outputs[ticks], zs[ticks], obs_rows[ticks])[1:], k)


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


def _verdicts(run: FilterRun, deviations, residuals, euclid_th: Thresholds,
              resid_th: Thresholds, armed_from: int) -> PassiveVerdicts:
    t, d = run.t, np.abs(deviations)
    armed = t >= armed_from
    residual_flag = armed & decide(residuals, resid_th)
    flag = residual_flag | (armed & decide(d, euclid_th))
    return PassiveVerdicts(t=t, euclidean_d=d, residual_r=residuals,
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
    on one channel pass: the thresholds are fitted on the warm-up slice of it."""
    ticks = _calibration_ticks(outputs, warmup)
    run, deviations, residuals = _channels(outputs, zs, obs_rows)
    return _verdicts(run, deviations, residuals,
                     *_fit(deviations[ticks], residuals[ticks], k), warmup)


def write_verdicts_csv(t, euclidean_d, residual_r, flag, path) -> None:
    """Write a verdict stream's columns (``PassiveVerdicts`` fields of those
    names); any column may be given as the cells ``io_utils.fmt_column`` made
    of it, to share them with other files."""
    write_columns(path, VERDICTS_HEADER, [t, euclidean_d, residual_r, flag])
