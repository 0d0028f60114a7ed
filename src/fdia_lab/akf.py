"""Adaptive Kalman filtering with online noise-statistics estimation.

One per-sample update, ``step``, serves both variants. They differ in three
places, where it tests ``classic``:

* the innovation: ``Classic`` uses the estimated measurement-noise mean and
  covariance; ``Improved`` treats the noise as known (mean zero,
  covariance ``meas_cov_fixed``, a field every ``FilterConfig`` requires
  and ``Classic`` ignores);
* the process-noise covariance: ``Classic`` subtracts mean-square-error
  terms from the gained-residual outer product, so on higher-order systems
  its diagonals can be driven negative and the filter diverges (the
  documented deficiency, kept on purpose); ``Improved`` keeps only the
  outer product, a convex combination of positive semidefinite terms, so
  its diagonals stay non-negative at every step;
* the measurement noise: ``Classic`` re-estimates its mean and covariance
  with the forgetting factor; ``Improved`` holds them fixed.

Two implementations, one role each. ``step`` is the general numpy update
for any config and measurement width, one sample at a time, and the
reference oracle. ``run`` filters a whole trace on a kernel written on
Python floats for the model the pipeline drives (two states, identity
transition and noise gain, the scalar sinusoidal measurement, symmetric
initial covariances) and refuses any other config with a ConfigError;
stack ``step`` for it. It carries only each covariance's distinct entries,
and its ``FilterRun`` has no tick or gain column: row i is tick i. It
performs the oracle's arithmetic in the oracle's order, with its ``if
classic`` branches at the same places, so it is bit-identical to ``step``
wherever numpy's BLAS does not fuse multiply-adds (OpenBLAS's Sandybridge
kernel, say) and within rounding elsewhere. Its pivot test is not the same
operations but the oracle's test in closed form: it raises on exactly the
values of the innovation variance where the oracle raises, including
+-inf, and never on NaN. It uses no BLAS, so its outputs do not depend on
the OpenBLAS kernel numpy picks, which matters most for the classic filter:
it amplifies rounding (a covariance diagonal goes negative at tick 0).
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
    meas_cov_fixed: np.ndarray                 # (k, k) the improved variant's noise
    forgetting: float = 0.98

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


def step(state: FilterState, z_t, cfg: FilterConfig,
         variant: Variant) -> tuple[FilterState, StepOutput]:
    """One adaptive step: predict, update the estimate, then re-estimate the
    noise statistics with the forgetting-factor weight. The variants differ
    where ``classic`` is tested, as in the float kernel (see the module doc)."""
    classic = variant is Variant.CLASSIC
    c = weighting_coefficient(state.t, cfg.forgetting)
    if classic:
        meas_mean, meas_cov = state.meas_mean, state.meas_cov
    else:
        meas_mean, meas_cov = np.zeros_like(state.meas_mean), cfg.meas_cov_fixed
    z_t = np.atleast_1d(np.asarray(z_t, dtype=float))
    h = np.atleast_2d(cfg.obs_at(state.t))
    if h.shape != (len(z_t), len(state.x)):
        raise DimensionError(
            f"observation matrix {h.shape} does not map state {len(state.x)} "
            f"to measurement {len(z_t)}"
        )
    x_pred, cov_pred = predict(state, cfg)
    resid = z_t - h @ x_pred
    innovation = resid - meas_mean
    hph = h @ cov_pred @ h.T
    innov_cov = hph + meas_cov
    # gain = cov_pred H' (H cov_pred H' + meas_cov)^-1; the scalar-measurement
    # path avoids the general solve, everything else goes through it.
    if innov_cov.shape == (1, 1):
        s = innov_cov[0, 0]
        if abs(s) <= PIVOT_RTOL * max(abs(s), 1e-300):
            raise SingularMatrixError(rcond=abs(s) / max(abs(s), 1e-300))
        gain = (cov_pred @ h.T) / s
    else:
        gain = solve(innov_cov, (cov_pred @ h.T).T).T
    gained = gain @ innovation
    x_new = x_pred + gained
    cov_new = (np.eye(len(state.x)) - gain @ h) @ cov_pred
    cov_new = 0.5 * (cov_new + cov_new.T)

    b, oc = cfg.transition, 1.0 - c
    proc_mean = oc * state.proc_mean + c * (x_new - b @ state.x)
    spread = np.outer(gained, gained)
    if classic:
        proc_cov = oc * state.proc_cov + c * (spread + cov_new - b @ state.err_cov @ b.T)
        meas_mean = oc * meas_mean + c * resid
        meas_cov = oc * meas_cov + c * (np.outer(innovation, innovation) - hph)
    else:
        proc_cov = oc * state.proc_cov + c * spread
        meas_cov = np.array(cfg.meas_cov_fixed, dtype=float)

    new_state = FilterState(t=state.t + 1, x=x_new, err_cov=cov_new,
                            proc_mean=proc_mean, proc_cov=proc_cov,
                            meas_mean=meas_mean, meas_cov=meas_cov)
    out = StepOutput(t=state.t, x_pred=x_pred, x_hat=x_new,
                     innovation=innovation, gain=gain)
    return new_state, out


def update_classic(state: FilterState, z_t, cfg: FilterConfig) -> tuple[FilterState, StepOutput]:
    """``step`` of the classic variant, which re-estimates all four noise statistics."""
    return step(state, z_t, cfg, Variant.CLASSIC)


def update_improved(state: FilterState, z_t, cfg: FilterConfig) -> tuple[FilterState, StepOutput]:
    """``step`` of the improved variant: measurement noise fixed and zero-mean."""
    return step(state, z_t, cfg, Variant.IMPROVED)


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class FilterRun:
    """A whole run's step outputs as columns; row i is tick i, since every
    run starts at tick 0."""

    x_pred: np.ndarray       # (n, states)
    x_hat: np.ndarray        # (n, states)
    innovation: np.ndarray   # (n, k)

    @classmethod
    def from_steps(cls, steps: FilterRun | Sequence[StepOutput]) -> FilterRun:
        """Stack ``StepOutput``s' states and innovations; a FilterRun passes through."""
        if isinstance(steps, FilterRun):
            return steps
        return cls(*(np.stack([getattr(s, name) for s in steps])
                     for name in ("x_pred", "x_hat", "innovation")))


def _is_scalar_two_state(cfg: FilterConfig) -> bool:
    """True iff ``cfg`` is the shape the 2-state kernel handles: two states,
    identity transition and noise gain, a scalar measurement and symmetric
    initial covariances."""
    init, eye = cfg.init, np.eye(2)
    shapes = [np.shape(a) for a in (init.x0, init.proc_mean0, init.err_cov0,
                                    init.proc_cov0, init.meas_cov0, init.meas_mean0)]
    return (np.array_equal(cfg.transition, eye) and np.array_equal(cfg.noise_gain, eye)
            and shapes == [(2,), (2,), (2, 2), (2, 2), (1, 1), (1,)]
            and all(np.array_equal(a, np.transpose(a), equal_nan=True)
                    for a in (init.err_cov0, init.proc_cov0))
            and np.shape(cfg.meas_cov_fixed) == (1, 1))


def _run_scalar_two_state(zs: np.ndarray, rows: np.ndarray, cfg: FilterConfig,
                          variant: Variant) -> FilterRun:
    """``step`` on Python floats for the 2-state, scalar-measurement model.

    Every arithmetic operation is the one the oracle's numpy calls perform,
    in the same order, with products by the identity transition and noise
    gain dropped (they are exact). The covariances start symmetric (``run``
    checks) and the update keeps them so bit for bit: only their distinct
    entries are carried, and the gain numerators C h' are the products h C.
    """
    classic = variant is Variant.CLASSIC
    init, g, og = cfg.init, cfg.forgetting, 1.0 - cfg.forgetting
    weights = [og / (1.0 - g ** t) for t in range(1, len(zs) + 1)]
    # the oracle's pivot test in closed form: |s| <= PIVOT_RTOL * max(|s|, 1e-300)
    # holds exactly for |s| <= b and for s = +-inf, and never for NaN
    b, inf, ninf = PIVOT_RTOL * 1e-300, math.inf, -math.inf
    x0, x1 = np.asarray(init.x0, dtype=float).tolist()
    (p00, p01), (_, p11) = np.asarray(init.err_cov0, dtype=float).tolist()
    pm0, pm1 = np.asarray(init.proc_mean0, dtype=float).tolist()
    (m00, m01), (_, m11) = np.asarray(init.proc_cov0, dtype=float).tolist()
    if classic:
        sm, nc = float(init.meas_mean0[0]), float(init.meas_cov0[0, 0])
    else:
        sm, nc = 0.0, float(cfg.meas_cov_fixed[0, 0])
    out = []
    for z, h0, h1, c in zip(zs.tolist(), rows[:, 0, 0].tolist(), rows[:, 0, 1].tolist(),
                            weights):
        # predict
        xp0, xp1 = x0 + pm0, x1 + pm1
        c00, c01, c11 = p00 + m00, p01 + m01, p11 + m11
        # gain and measurement update
        hx = h0 * xp0 + h1 * xp1
        e = (z - hx) - sm
        hc0, hc1 = h0 * c00 + h1 * c01, h0 * c01 + h1 * c11
        hph = hc0 * h0 + hc1 * h1
        s = hph + nc
        if s <= b and s >= -b or s == inf or s == ninf:
            raise SingularMatrixError(rcond=abs(s) / max(abs(s), 1e-300), tick=len(out) // 5)
        k0, k1 = hc0 / s, hc1 / s
        g0, g1 = k0 * e, k1 * e
        xn0, xn1 = xp0 + g0, xp1 + g1
        a00, a01 = 1.0 - k0 * h0, 0.0 - k0 * h1
        a10, a11 = 0.0 - k1 * h0, 1.0 - k1 * h1
        q00, q01 = a00 * c00 + a01 * c01, a00 * c01 + a01 * c11
        q10, q11 = a10 * c00 + a11 * c01, a10 * c01 + a11 * c11
        n00, n01, n11 = 0.5 * (q00 + q00), 0.5 * (q01 + q10), 0.5 * (q11 + q11)
        # forgetting-factor noise statistics
        oc = 1.0 - c
        pm0, pm1 = oc * pm0 + c * (xn0 - x0), oc * pm1 + c * (xn1 - x1)
        if classic:
            m00 = oc * m00 + c * ((g0 * g0 + n00) - p00)
            m01 = oc * m01 + c * ((g0 * g1 + n01) - p01)
            m11 = oc * m11 + c * ((g1 * g1 + n11) - p11)
            sm = oc * sm + c * (z - hx)
            nc = oc * nc + c * (e * e - hph)
        else:
            m00, m01 = oc * m00 + c * (g0 * g0), oc * m01 + c * (g0 * g1)
            m11 = oc * m11 + c * (g1 * g1)
        x0, x1 = xn0, xn1
        p00, p01, p11 = n00, n01, n11
        out.extend((xp0, xp1, xn0, xn1, e))
    cols = np.array(out).reshape(len(zs), 5)
    return FilterRun(x_pred=cols[:, 0:2], x_hat=cols[:, 2:4], innovation=cols[:, 4:5])


def run(trace: Trace, cfg: FilterConfig, variant: Variant,
        obs_rows: np.ndarray | None = None) -> FilterRun:
    """Filter every sample of a trace in order on the float kernel; step i
    reads ``cfg.obs_at(i)``. The config must be of the shape
    ``_is_scalar_two_state`` accepts; for any other, stack ``step``, the
    oracle the kernel is tested against. ``obs_rows`` may pass in the (n, 1, 2)
    observation rows when the caller already has them; they must equal
    ``cfg.obs_at(i)`` stacked.
    """
    n = len(trace)
    if n == 0:
        raise ConfigError("trace must be non-empty")
    bad = np.flatnonzero(~np.isfinite(trace.z))
    if len(bad):
        raise DataError(f"measurement at tick {int(trace.ticks[bad[0]])} is not finite")
    if not _is_scalar_two_state(cfg):
        raise ConfigError("akf.run takes only two states, identity transition and noise "
                          "gain, a scalar measurement and symmetric initial covariances; "
                          "stack akf.step for this config")
    if obs_rows is None:
        rows = [np.atleast_2d(cfg.obs_at(t)) for t in range(n)]
        off = next((t for t, h in enumerate(rows) if h.shape != (1, 2)), None)
        if off is not None:
            raise DimensionError(f"observation matrix {rows[off].shape} at tick {off} "
                                 f"does not map 2 states to a scalar measurement")
        obs_rows = np.array(rows, dtype=float)
    elif np.shape(obs_rows) != (n, 1, 2):
        raise DimensionError(f"observation rows of shape {np.shape(obs_rows)} "
                             f"do not match {n} scalar measurements of 2 states")
    return _run_scalar_two_state(trace.z, np.asarray(obs_rows, dtype=float), cfg, variant)


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

