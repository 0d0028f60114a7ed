"""Knowledge-driven detection on filter outputs.

Two per-tick metrics with 3-sigma thresholds, read from a filter run alone:
the absolute deviation between predicted and observed measurement, the run's
own ``deviation`` column H x_pred - z (Euclidean channel), and the
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
one value is the same inclusive rule. A non-finite filter state, or one whose
norm overflows, is a failure of the filter, a ``NumericalError``; a state of
zero norm is a ``DataError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .akf import FilterRun
from .errors import ConfigError, DataError, NumericalError

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


def _channels(run: FilterRun) -> tuple[np.ndarray, np.ndarray]:
    """Per-tick signed deviation H x_pred - z, the run's own ``deviation``
    column, and residual metric ||x_pred - x_hat|| / (||x_pred|| * ||x_hat||),
    as arrays. A NumericalError names the first tick whose state, or one of the
    metric's norms, is non-finite, a DataError one of zero norm.
    """
    x, x_hat = run.x_pred, run.x_hat
    # a state beyond about 1e154 squares to inf: the filter has diverged, and
    # the metric would read 0 instead
    with np.errstate(over="ignore", invalid="ignore"):
        nx, nh, nd = (np.sqrt((v * v).sum(axis=1)) for v in (x, x_hat, x - x_hat))
    finite = np.isfinite(nx) & np.isfinite(nh) & np.isfinite(nd)
    if not finite.all():
        t = np.argmin(finite)
        overflow = np.isfinite(x[t]).all() and np.isfinite(x_hat[t]).all()
        cause = "state norm overflows" if overflow else "state is non-finite"
        raise NumericalError(f"filter {cause} at tick {t}")
    zero = (nx == 0.0) | (nh == 0.0)
    if zero.any():
        raise DataError("residual metric undefined for zero-norm state "
                        f"at tick {np.argmax(zero)}")
    return run.deviation[:, 0], nd / (nx * nh)


def _calibrated(run: FilterRun, warmup: int,
                k: float) -> tuple[np.ndarray, np.ndarray, Thresholds, Thresholds]:
    """Both channels over the whole run, and both thresholds fitted on their
    warm-up ticks after the first ``SETTLE_TICKS``, which let the filter settle:
    the signed, zero-mean Euclidean deviation H x_pred - z, and the residual
    metric with that deviation's sign."""
    if warmup > len(run.x_pred):
        raise DataError(f"warm-up window {warmup} exceeds run length {len(run.x_pred)}")
    deviations, residuals = _channels(run)
    d, r = deviations[SETTLE_TICKS:warmup], residuals[SETTLE_TICKS:warmup]
    signed = np.where(d != 0.0, np.copysign(r, d), r)
    return (deviations, residuals, Thresholds(sigma=calibrate_sigma(d), k=k),
            Thresholds(sigma=calibrate_sigma(signed), k=k))


def calibrate_channels(outputs, warmup: int, k: float = 3.0) -> tuple[Thresholds, Thresholds]:
    """``detect_stream``'s thresholds. ``outputs`` is a FilterRun or a
    sequence of StepOutput."""
    return _calibrated(FilterRun.from_steps(outputs), warmup, k)[2:]


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


def evaluate_stream(outputs, euclid_th: Thresholds, resid_th: Thresholds,
                    armed_from: int = 0) -> PassiveVerdicts:
    """Per-tick verdicts; the flag is the union of both channel decisions.

    Ticks before ``armed_from`` (typically the calibration warm-up window)
    record their metric values but never flag: the thresholds do not exist
    yet while they are being fitted.
    """
    return _verdicts(*_channels(FilterRun.from_steps(outputs)), euclid_th, resid_th,
                     armed_from)


def detect_stream(outputs, warmup: int, k: float = 3.0) -> PassiveVerdicts:
    """``calibrate_channels`` then ``evaluate_stream`` armed from the warm-up's end,
    on the one channel pass the thresholds are fitted on."""
    return _verdicts(*_calibrated(FilterRun.from_steps(outputs), warmup, k), warmup)

