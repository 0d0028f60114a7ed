"""Adaptive Kalman filtering with online noise-statistics estimation.

Two per-sample state machines over the same predict/update skeleton:

* ``Classic``: jointly re-estimates the process-noise mean/covariance and
  the measurement-noise mean/covariance with a forgetting factor. Both
  covariance updates contain subtracted mean-square-error terms, so on
  higher-order systems the estimated covariance diagonals can be driven
  negative and the filter diverges. That behaviour is intentional here;
  it is the documented deficiency the improved variant removes.
* ``Improved``: treats the measurement noise as known (covariance held
  fixed, mean zero) and rebuilds the process-noise covariance purely from
  the gained-residual outer product, a convex combination of positive
  semidefinite terms. Diagonals therefore stay non-negative at every step.

Measurements are vectors of any width; the rest of this package drives the
filters with the scalar sinusoidal measurement model.

Determinism: ``run`` returns a columnar ``FilterRun``. For a config with two
states, identity transition and noise gain and a scalar measurement (the
sinusoidal model) it runs a kernel on Python floats; every other config
stacks ``step``, the general numpy implementation that stays the oracle.
The kernel performs the oracle's arithmetic in the oracle's order, so it
is bit-identical to ``step`` wherever numpy's BLAS does not fuse
multiply-adds (OpenBLAS's Sandybridge kernel, say) and within rounding
elsewhere. Its pivot test is not the same operations but the oracle's test
in closed form: it raises on exactly the values of the innovation variance
where the oracle raises, including +-inf, and never on NaN. Its results
depend on no BLAS kernel, so artifacts are byte-identical on a given
machine and no longer move with the OpenBLAS kernel numpy picks. The
classic filter amplifies rounding (a covariance diagonal goes negative at
tick 0), so its demo trajectory used to depend on that kernel; see the
README.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, SingularMatrixError
from .numerics import PIVOT_RTOL, solve
from .signal_model import SignalParams, Trace, observation_row


class Variant(enum.Enum):
    CLASSIC = "classic"
    IMPROVED = "improved"


@dataclass(frozen=True)
class FilterInit:
    """Initial state estimate and noise statistics."""

    x0: np.ndarray          # (n,)
    err_cov0: np.ndarray    # (n, n)
    proc_cov0: np.ndarray   # (n, n) process-noise covariance guess
    meas_cov0: np.ndarray   # (k, k) measurement-noise covariance guess
    proc_mean0: np.ndarray  # (n,)
    meas_mean0: np.ndarray  # (k,)


@dataclass(frozen=True)
class FilterConfig:
    transition: np.ndarray                     # (n, n) state transition
    noise_gain: np.ndarray                     # (n, n) noise driving matrix
    obs_at: Callable[[int], np.ndarray]        # tick -> (k, n) measurement matrix
    init: FilterInit
    forgetting: float = 0.98
    meas_cov_fixed: np.ndarray | None = None   # (k, k); required by Improved

    def __post_init__(self):
        if not 0.0 < self.forgetting < 1.0:
            raise ConfigError("forgetting factor must lie strictly in (0, 1)")
        n = self.transition.shape[0]
        if self.transition.shape != (n, n) or self.noise_gain.shape != (n, n):
            raise ConfigError("transition and noise_gain must be square and same size")


@dataclass
class FilterState:
    """Everything carried from one sample to the next."""

    t: int
    x: np.ndarray            # state estimate
    err_cov: np.ndarray      # estimation error covariance
    proc_mean: np.ndarray    # estimated process-noise mean
    proc_cov: np.ndarray     # estimated process-noise covariance
    meas_mean: np.ndarray    # estimated measurement-noise mean
    meas_cov: np.ndarray     # estimated measurement-noise covariance


@dataclass(frozen=True)
class StepOutput:
    t: int
    x_pred: np.ndarray
    x_hat: np.ndarray
    innovation: np.ndarray   # (k,)
    gain: np.ndarray         # (n, k)


def initial_state(cfg: FilterConfig) -> FilterState:
    init = cfg.init
    return FilterState(
        t=0,
        x=np.array(init.x0, dtype=float),
        err_cov=np.array(init.err_cov0, dtype=float),
        proc_mean=np.array(init.proc_mean0, dtype=float),
        proc_cov=np.array(init.proc_cov0, dtype=float),
        meas_mean=np.array(init.meas_mean0, dtype=float),
        meas_cov=np.array(init.meas_cov0, dtype=float),
    )


def weighting_coefficient(t: int, forgetting: float) -> float:
    """Forgetting-factor weight c_t = (1 - g) / (1 - g^(t+1)).

    Equals 1 at t = 0 and decreases monotonically toward 1 - g.
    """
    if not 0.0 < forgetting < 1.0:
        raise ConfigError("forgetting factor must lie strictly in (0, 1)")
    if t < 0:
        raise ConfigError("tick must be non-negative")
    return (1.0 - forgetting) / (1.0 - forgetting ** (t + 1))


def predict(state: FilterState, cfg: FilterConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-step state and covariance prediction."""
    b, u = cfg.transition, cfg.noise_gain
    x_pred = b @ state.x + u @ state.proc_mean
    cov_pred = b @ state.err_cov @ b.T + u @ state.proc_cov @ u.T
    return x_pred, cov_pred


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _measurement_update(state, cfg, z_t, meas_cov, meas_mean):
    """Shared gain/update core; returns intermediates for the variants."""
    z_t = np.atleast_1d(np.asarray(z_t, dtype=float))
    h = np.atleast_2d(cfg.obs_at(state.t))
    if h.shape != (len(z_t), len(state.x)):
        raise DimensionError(
            f"observation matrix {h.shape} does not map state {len(state.x)} "
            f"to measurement {len(z_t)}"
        )
    x_pred, cov_pred = predict(state, cfg)
    innovation = z_t - h @ x_pred - meas_mean
    innov_cov = h @ cov_pred @ h.T + meas_cov
    # gain = cov_pred H' (H cov_pred H' + meas_cov)^-1; the scalar-measurement
    # path avoids the general solve, everything else goes through it.
    if innov_cov.shape == (1, 1):
        s = innov_cov[0, 0]
        if abs(s) <= PIVOT_RTOL * max(abs(s), 1e-300):
            raise SingularMatrixError(rcond=abs(s) / max(abs(s), 1e-300))
        gain = (cov_pred @ h.T) / s
    else:
        gain = solve(innov_cov, (cov_pred @ h.T).T).T
    x_new = x_pred + gain @ innovation
    eye = np.eye(len(state.x))
    cov_new = _symmetrize((eye - gain @ h) @ cov_pred)
    return z_t, h, x_pred, cov_pred, innovation, gain, x_new, cov_new


def update_classic(state: FilterState, z_t, cfg: FilterConfig) -> tuple[FilterState, StepOutput]:
    """One classic adaptive step: update the estimate, then re-estimate all
    four noise statistics with the forgetting-factor weight."""
    c = weighting_coefficient(state.t, cfg.forgetting)
    (z_vec, h, x_pred, cov_pred, innovation, gain,
     x_new, cov_new) = _measurement_update(state, cfg, z_t, state.meas_cov, state.meas_mean)

    b = cfg.transition
    gained = gain @ innovation
    proc_mean = (1.0 - c) * state.proc_mean + c * (x_new - b @ state.x)
    proc_cov = (1.0 - c) * state.proc_cov + c * (
        np.outer(gained, gained) + cov_new - b @ state.err_cov @ b.T
    )
    meas_mean = (1.0 - c) * state.meas_mean + c * (z_vec - h @ x_pred)
    meas_cov = (1.0 - c) * state.meas_cov + c * (
        np.outer(innovation, innovation) - h @ cov_pred @ h.T
    )

    new_state = FilterState(
        t=state.t + 1, x=x_new, err_cov=cov_new,
        proc_mean=proc_mean, proc_cov=proc_cov,
        meas_mean=meas_mean, meas_cov=meas_cov,
    )
    out = StepOutput(t=state.t, x_pred=x_pred, x_hat=x_new,
                     innovation=innovation, gain=gain)
    return new_state, out


def update_improved(state: FilterState, z_t, cfg: FilterConfig) -> tuple[FilterState, StepOutput]:
    """One improved step: measurement noise fixed and zero-mean, and the
    process-noise covariance rebuilt only from the gained-residual outer
    product, so its diagonal can never go negative."""
    if cfg.meas_cov_fixed is None:
        raise ConfigError("improved variant requires meas_cov_fixed")
    c = weighting_coefficient(state.t, cfg.forgetting)
    zero_mean = np.zeros_like(state.meas_mean)
    (_, _, x_pred, _, innovation, gain,
     x_new, cov_new) = _measurement_update(state, cfg, z_t, cfg.meas_cov_fixed, zero_mean)

    b = cfg.transition
    gained = gain @ innovation
    proc_mean = (1.0 - c) * state.proc_mean + c * (x_new - b @ state.x)
    proc_cov = (1.0 - c) * state.proc_cov + c * np.outer(gained, gained)

    new_state = FilterState(
        t=state.t + 1, x=x_new, err_cov=cov_new,
        proc_mean=proc_mean, proc_cov=proc_cov,
        meas_mean=zero_mean, meas_cov=np.array(cfg.meas_cov_fixed, dtype=float),
    )
    out = StepOutput(t=state.t, x_pred=x_pred, x_hat=x_new,
                     innovation=innovation, gain=gain)
    return new_state, out


def step(state: FilterState, z_t, cfg: FilterConfig,
         variant: Variant) -> tuple[FilterState, StepOutput]:
    if variant is Variant.CLASSIC:
        return update_classic(state, z_t, cfg)
    return update_improved(state, z_t, cfg)


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class FilterRun:
    """A whole run's step outputs as columns; row i belongs to step i."""

    t: np.ndarray            # (n,) step index
    x_pred: np.ndarray       # (n, states)
    x_hat: np.ndarray        # (n, states)
    innovation: np.ndarray   # (n, k)
    gain: np.ndarray         # (n, states, k)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows: slice) -> FilterRun:
        if not isinstance(rows, slice):
            raise TypeError("a FilterRun is indexed by slices of rows")
        return FilterRun(self.t[rows], self.x_pred[rows], self.x_hat[rows],
                         self.innovation[rows], self.gain[rows])

    @classmethod
    def from_steps(cls, steps: FilterRun | Sequence[StepOutput]) -> FilterRun:
        """Stack ``StepOutput``s into columns; a FilterRun passes through."""
        if isinstance(steps, FilterRun):
            return steps
        if len(steps) == 0:
            return cls(np.empty(0, dtype=int), np.empty((0, 0)), np.empty((0, 0)),
                       np.empty((0, 0)), np.empty((0, 0, 0)))
        return cls(np.array([s.t for s in steps]),
                   np.stack([s.x_pred for s in steps]),
                   np.stack([s.x_hat for s in steps]),
                   np.stack([s.innovation for s in steps]),
                   np.stack([s.gain for s in steps]))


def _is_scalar_two_state(cfg: FilterConfig) -> bool:
    """True iff ``cfg`` is the shape the 2-state kernel handles: two states,
    identity transition and noise gain, and a scalar measurement."""
    init, eye = cfg.init, np.eye(2)
    shapes = [np.shape(a) for a in (init.x0, init.proc_mean0, init.err_cov0,
                                    init.proc_cov0, init.meas_cov0, init.meas_mean0)]
    return (np.array_equal(cfg.transition, eye) and np.array_equal(cfg.noise_gain, eye)
            and shapes == [(2,), (2,), (2, 2), (2, 2), (1, 1), (1,)]
            and (cfg.meas_cov_fixed is None or np.shape(cfg.meas_cov_fixed) == (1, 1)))


def _run_scalar_two_state(zs: np.ndarray, rows: np.ndarray, cfg: FilterConfig,
                          variant: Variant) -> FilterRun:
    """``update_classic``/``update_improved`` on Python floats for the
    2-state, scalar-measurement model.

    Every arithmetic operation is the one the oracle's numpy calls perform,
    in the same order, with products by the identity transition and noise
    gain dropped (they are exact). Matrices are carried entry by entry, so a
    non-symmetric initial covariance is handled as the oracle handles it.
    """
    classic = variant is Variant.CLASSIC
    if not classic and cfg.meas_cov_fixed is None:
        raise ConfigError("improved variant requires meas_cov_fixed")
    init, g = cfg.init, cfg.forgetting
    weights = [(1.0 - g) / (1.0 - g ** (t + 1)) for t in range(len(zs))]
    # the oracle's pivot test in closed form: |s| <= PIVOT_RTOL * max(|s|, 1e-300)
    # holds exactly for |s| <= b and for s = +-inf, and never for NaN
    b, inf = PIVOT_RTOL * 1e-300, math.inf
    x0, x1 = np.asarray(init.x0, dtype=float).tolist()
    (p00, p01), (p10, p11) = np.asarray(init.err_cov0, dtype=float).tolist()
    pm0, pm1 = np.asarray(init.proc_mean0, dtype=float).tolist()
    (m00, m01), (m10, m11) = np.asarray(init.proc_cov0, dtype=float).tolist()
    if classic:
        sm, nc = float(init.meas_mean0[0]), float(init.meas_cov0[0, 0])
    else:
        sm, nc = 0.0, float(cfg.meas_cov_fixed[0, 0])
    out = []
    for z, h0, h1, c in zip(zs.tolist(), rows[:, 0, 0].tolist(), rows[:, 0, 1].tolist(),
                            weights):
        # predict
        xp0, xp1 = x0 + pm0, x1 + pm1
        c00, c01, c10, c11 = p00 + m00, p01 + m01, p10 + m10, p11 + m11
        # gain and measurement update
        hx = h0 * xp0 + h1 * xp1
        e = (z - hx) - sm
        hc0, hc1 = h0 * c00 + h1 * c10, h0 * c01 + h1 * c11
        hph = hc0 * h0 + hc1 * h1
        s = hph + nc
        if s <= b and s >= -b or s == inf or s == -inf:
            raise SingularMatrixError(rcond=abs(s) / max(abs(s), 1e-300))
        k0, k1 = (c00 * h0 + c01 * h1) / s, (c10 * h0 + c11 * h1) / s
        g0, g1 = k0 * e, k1 * e
        xn0, xn1 = xp0 + g0, xp1 + g1
        a00, a01 = 1.0 - k0 * h0, 0.0 - k0 * h1
        a10, a11 = 0.0 - k1 * h0, 1.0 - k1 * h1
        q00, q01 = a00 * c00 + a01 * c10, a00 * c01 + a01 * c11
        q10, q11 = a10 * c00 + a11 * c10, a10 * c01 + a11 * c11
        n00, n01, n11 = 0.5 * (q00 + q00), 0.5 * (q01 + q10), 0.5 * (q11 + q11)
        # forgetting-factor noise statistics
        oc = 1.0 - c
        pm0, pm1 = oc * pm0 + c * (xn0 - x0), oc * pm1 + c * (xn1 - x1)
        if classic:
            m00 = oc * m00 + c * ((g0 * g0 + n00) - p00)
            m01 = oc * m01 + c * ((g0 * g1 + n01) - p01)
            m10 = oc * m10 + c * ((g1 * g0 + n01) - p10)
            m11 = oc * m11 + c * ((g1 * g1 + n11) - p11)
            sm = oc * sm + c * (z - hx)
            nc = oc * nc + c * (e * e - hph)
        else:
            m00, m01 = oc * m00 + c * (g0 * g0), oc * m01 + c * (g0 * g1)
            m10, m11 = oc * m10 + c * (g1 * g0), oc * m11 + c * (g1 * g1)
        x0, x1, p00, p01, p10, p11 = xn0, xn1, n00, n01, n01, n11
        out.extend((xp0, xp1, xn0, xn1, e, k0, k1))
    cols = np.array(out).reshape(len(zs), 7)
    return FilterRun(t=np.arange(len(zs)), x_pred=cols[:, 0:2], x_hat=cols[:, 2:4],
                     innovation=cols[:, 4:5], gain=cols[:, 5:7, None])


def run(trace: Trace, cfg: FilterConfig, variant: Variant,
        obs_rows: np.ndarray | None = None) -> FilterRun:
    """Filter every sample of a trace in order; step i reads ``cfg.obs_at(i)``.

    A config of the 2-state, scalar-measurement shape (see
    ``_is_scalar_two_state``) runs on the float kernel; every other config
    stacks ``step``, which stays the reference both are tested against.
    ``obs_rows`` may pass in the kernel's (n, 1, 2) observation rows when the
    caller already has them; they must equal ``cfg.obs_at(i)`` stacked.
    """
    n = len(trace)
    if n == 0:
        raise ConfigError("trace must be non-empty")
    bad = np.flatnonzero(~np.isfinite(trace.z))
    if len(bad):
        raise DataError(f"measurement at tick {int(trace.ticks[bad[0]])} is not finite")
    if _is_scalar_two_state(cfg):
        if obs_rows is None:
            rows = [np.atleast_2d(cfg.obs_at(t)) for t in range(n)]
            # a row of another shape is left to the oracle, which raises at its step
            if all(h.shape == (1, 2) for h in rows):
                return _run_scalar_two_state(trace.z, np.array(rows, dtype=float),
                                             cfg, variant)
        elif np.shape(obs_rows) == (n, 1, 2):
            return _run_scalar_two_state(trace.z, np.asarray(obs_rows, dtype=float),
                                         cfg, variant)
        else:
            raise DimensionError(f"observation rows of shape {np.shape(obs_rows)} "
                                 f"do not match {n} scalar measurements of 2 states")
    state = initial_state(cfg)
    outputs = []
    for z_t in trace.z:
        state, out = step(state, z_t, cfg, variant)
        outputs.append(out)
    return FilterRun.from_steps(outputs)


def config_for_sinusoid(params: SignalParams, z0: float,
                        forgetting: float = 0.98) -> FilterConfig:
    """Filter configuration for the 2-state sinusoidal measurement model.

    Identity transition and noise gain; the estimate starts at [z0, 0]
    (the first measurement read at tick 0, where the observation row is
    [1, 0]); noise statistics start from the model's sigmas.
    """
    init = FilterInit(
        x0=np.array([z0, 0.0]),
        err_cov0=np.eye(2),
        proc_cov0=params.sigma_process ** 2 * np.eye(2),
        meas_cov0=np.array([[params.sigma_meas ** 2]]),
        proc_mean0=np.zeros(2),
        meas_mean0=np.zeros(1),
    )
    return FilterConfig(
        transition=np.eye(2),
        noise_gain=np.eye(2),
        obs_at=lambda t: observation_row(t, params.omega),
        init=init,
        forgetting=forgetting,
        meas_cov_fixed=np.array([[params.sigma_meas ** 2]]),
    )

