"""Construction and injection of false-data attack sequences.

Three attack kinds against a measurement vector:

* ``RANDOM_SINUSOID``: an arbitrary sinusoidal bias on selected sensors.
* ``FRACTION_SCALE``: a fixed fraction of the current measurement added
  on top of it (e.g. +5%).
* ``STEALTHY``: a precomputed bias ac = H d that shifts the estimate by d
  while leaving the weighted-least-squares residual unchanged.

Injection is confined to [onset, onset + duration); an optional period /
duty pair turns the window into a repeating on-off cycle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numerics import Matrix, Vector, as_matrix, as_vector, norm2


class AttackKind(enum.Enum):
    RANDOM_SINUSOID = "random_sinusoid"
    STEALTHY = "stealthy"
    FRACTION_SCALE = "fraction_scale"


@dataclass(frozen=True)
class SensorSelection:
    """Which sensors the attacker controls (diagonal of the selection matrix)."""

    deltas: tuple[bool, ...]

    def __post_init__(self):
        if not all(type(d) is bool for d in self.deltas):
            raise TypeError("a sensor selection is a list of booleans")

    def as_array(self) -> np.ndarray:
        return np.array(self.deltas, dtype=float)


@dataclass(frozen=True)
class AttackScenario:
    selection: SensorSelection
    kind: AttackKind
    onset: int
    duration: int
    amplitude: float | None = None       # random sinusoid peak
    sinusoid_omega: float | None = None  # random sinusoid angular rate per tick
    fraction: float | None = None        # fractional scaling, e.g. 0.05
    bias: np.ndarray | None = None       # precomputed stealthy ac
    period: int | None = None            # on-off cycle length; None = continuous
    duty: int | None = None              # on-ticks per period

    def __post_init__(self):
        if self.kind is AttackKind.RANDOM_SINUSOID:
            if self.amplitude is None or self.sinusoid_omega is None:
                raise ConfigError("config keys 'attack.amplitude' and 'attack.sinusoid_omega' "
                                  "are required by the random_sinusoid kind")
        elif self.kind is AttackKind.FRACTION_SCALE:
            if self.fraction is None:
                raise ConfigError("config key 'attack.fraction' is required by the "
                                  "fraction_scale kind")
        elif self.kind is AttackKind.STEALTHY:
            if self.bias is None:
                raise ConfigError("stealthy attack needs a precomputed bias vector")
            if len(self.bias) != len(self.selection.deltas):
                raise DimensionError("stealthy bias length must match sensor count")
        if (self.period is None) != (self.duty is None):
            raise ConfigError("config keys 'attack.period' and 'attack.duty' go together")
        if self.period is not None and not 0 < self.duty <= self.period:
            raise ConfigError(f"config key 'attack.duty' must lie in (0, period]: {self.duty}")


def active_at(scenario: AttackScenario, t: int) -> bool:
    """Whether the attack injects at tick t (window plus duty cycle)."""
    if not scenario.onset <= t < scenario.onset + scenario.duration:
        return False
    if scenario.period is None:
        return True
    return (t - scenario.onset) % scenario.period < scenario.duty


def attack_sequence_value(scenario: AttackScenario, z_t: Vector, t: int) -> np.ndarray:
    """The raw attack sequence y_ac(t) before sensor selection."""
    if scenario.kind is AttackKind.RANDOM_SINUSOID:
        return np.full(len(z_t), scenario.amplitude * math.sin(scenario.sinusoid_omega * t))
    if scenario.kind is AttackKind.FRACTION_SCALE:
        return scenario.fraction * z_t
    return np.asarray(scenario.bias, dtype=float)


def inject(z_t: Vector, scenario: AttackScenario, t: int) -> Vector:
    """Apply the attack to one measurement vector at tick t."""
    z_t = as_vector(z_t)
    if len(z_t) != len(scenario.selection.deltas):
        raise DimensionError(
            f"measurement has {len(z_t)} sensors, scenario selects over "
            f"{len(scenario.selection.deltas)}"
        )
    if not active_at(scenario, t):
        return z_t
    return z_t + scenario.selection.as_array() * attack_sequence_value(scenario, z_t, t)


def active_mask(scenario: AttackScenario, ticks: np.ndarray) -> np.ndarray:
    """``active_at`` for every tick of an integer array, as a boolean mask."""
    ticks = np.asarray(ticks)
    since = ticks - scenario.onset
    active = (since >= 0) & (since < scenario.duration)
    if scenario.period is not None:
        active &= since % scenario.period < scenario.duty
    return active


def inject_series(z: np.ndarray, scenario: AttackScenario,
                  ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``inject`` over a scalar-measurement series z (n,) at the given ticks.

    Returns the attacked series and the mask of the ticks whose sensor was
    attacked: active ticks, if the sensor is selected. Each active
    tick gets the same arithmetic as ``inject`` on its 1-vector, so the
    result is bit-identical to the per-tick loop; the sinusoid is taken
    with ``math.sin`` tick by tick for that reason. A stealthy scenario is
    rejected: its ac = H d needs ``inject`` on measurement vectors.
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
    elif scenario.kind is AttackKind.FRACTION_SCALE:
        value = scenario.fraction * z[hit]
    else:
        raise ConfigError("inject_series takes no stealthy scenario; apply "
                          "attack.build_stealthy's ac = H d with attack.inject")
    attacked = z.copy()
    attacked[hit] = z[hit] + scenario.selection.as_array() * value
    return attacked, active & scenario.selection.deltas[0]


def build_stealthy(h: Matrix, d: Vector) -> Vector:
    """The stealthy bias ac = H d for a desired estimate shift d."""
    h = as_matrix(h)
    d = as_vector(d, length=h.shape[1])
    return h @ d


def attacked_residual_bound(z: Vector, ac: Vector, h: Matrix, x_hat: Vector,
                            d: Vector) -> tuple[float, float]:
    """Attacked residual norm and its triangle-inequality bound.

    e_ac = ||(z + ac) - H(x_hat + d)|| <= ||z - H x_hat|| + ||ac - H d||.
    """
    z = as_vector(z)
    ac = as_vector(ac, length=len(z))
    h = as_matrix(h, rows=len(z))
    x_hat = as_vector(x_hat, length=h.shape[1])
    d = as_vector(d, length=h.shape[1])
    e_ac = norm2((z + ac) - h @ (x_hat + d))
    bound = norm2(z - h @ x_hat) + norm2(ac - h @ d)
    return e_ac, bound
