"""Injection of false-data attack sequences into a scalar measurement trace.

Two attack kinds, each on the sensor the selection marks:

* ``RANDOM_SINUSOID``: an arbitrary sinusoidal bias amplitude * sin(omega t).
* ``FRACTION_SCALE``: a fixed fraction of the current measurement added
  on top of it (e.g. +5%).

Injection is confined to [onset, onset + duration); an optional period /
duty pair turns the window into a repeating on-off cycle. ``inject_series``
attacks a whole series in one pass; ``inject`` is its one-tick view.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numerics import as_vector


class AttackKind(enum.Enum):
    RANDOM_SINUSOID = "random_sinusoid"
    FRACTION_SCALE = "fraction_scale"


@dataclass(frozen=True)
class SensorSelection:
    """Which sensors the attacker controls (diagonal of the selection matrix)."""

    deltas: tuple[bool, ...]

    def __post_init__(self):
        if not all(type(d) is bool for d in self.deltas):
            raise TypeError("a sensor selection is a list of booleans")


@dataclass(frozen=True)
class AttackScenario:
    selection: SensorSelection
    kind: AttackKind
    onset: int
    duration: int
    amplitude: float | None = None       # random sinusoid peak
    sinusoid_omega: float | None = None  # random sinusoid angular rate per tick
    fraction: float | None = None        # fractional scaling, e.g. 0.05
    period: int | None = None            # on-off cycle length; None = continuous
    duty: int | None = None              # on-ticks per period

    def __post_init__(self):
        if self.kind is AttackKind.RANDOM_SINUSOID:
            if self.amplitude is None or self.sinusoid_omega is None:
                raise ConfigError("config keys 'attack.amplitude' and 'attack.sinusoid_omega' "
                                  "are required by the random_sinusoid kind")
        elif self.fraction is None:
            raise ConfigError("config key 'attack.fraction' is required by the "
                              "fraction_scale kind")
        if (self.period is None) != (self.duty is None):
            raise ConfigError("config keys 'attack.period' and 'attack.duty' go together")
        if self.period is not None and not 0 < self.duty <= self.period:
            raise ConfigError(f"config key 'attack.duty' must lie in (0, period]: {self.duty}")


def active_mask(scenario: AttackScenario, ticks: np.ndarray) -> np.ndarray:
    """Whether the attack injects at each tick of an integer array (window
    plus duty cycle), as a boolean mask."""
    ticks = np.asarray(ticks)
    since = ticks - scenario.onset
    active = (since >= 0) & (since < scenario.duration)
    if scenario.period is not None:
        active &= since % scenario.period < scenario.duty
    return active


def inject_series(z: np.ndarray, scenario: AttackScenario,
                  ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the attack to a scalar-measurement series z (n,) at the given ticks.

    Returns the attacked series and the mask of the ticks whose sensor was
    attacked: active ticks, if the sensor is selected. An active tick gets
    z + delta * y, where y is fraction * z or amplitude * sin(omega t); the
    sinusoid is taken with ``math.sin`` tick by tick, so a tick's value does
    not depend on the series around it.
    """
    z = as_vector(z)
    ticks = np.asarray(ticks)
    if ticks.shape != z.shape:
        raise DimensionError(f"{len(ticks)} ticks for {len(z)} measurements")
    if len(scenario.selection.deltas) != 1:
        raise DimensionError(
            f"measurement has 1 sensors, scenario selects over "
            f"{len(scenario.selection.deltas)}"
        )
    active = active_mask(scenario, ticks)
    hit = np.flatnonzero(active)
    if scenario.kind is AttackKind.RANDOM_SINUSOID:
        omega = scenario.sinusoid_omega
        value = scenario.amplitude * np.array(
            [math.sin(omega * t) for t in ticks[hit].tolist()])
    else:
        value = scenario.fraction * z[hit]
    attacked = z.copy()
    attacked[hit] = z[hit] + float(scenario.selection.deltas[0]) * value
    return attacked, active & scenario.selection.deltas[0]


def inject(z_t: np.ndarray, scenario: AttackScenario, t: int) -> np.ndarray:
    """``inject_series`` at the single tick t, on a 1-vector measurement."""
    return inject_series(z_t, scenario, np.array([t]))[0]
