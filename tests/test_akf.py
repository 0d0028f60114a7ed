import dataclasses
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from fdia_lab import akf
from fdia_lab.errors import ConfigError, DataError, DimensionError, SingularMatrixError
from fdia_lab.numerics import PIVOT_RTOL
from fdia_lab.signal_model import (SignalParams, SignalState, Trace, observation_row,
                                   observation_rows, simulate)


def scalar_config(h_row, g=0.95, x0=(0.0, 0.0), q0=None, m0=None, n0=1.0,
                  n_fixed=1.0, b=None, u=None):
    """2-state, scalar-measurement config with a constant observation row."""
    n = len(x0)
    init = akf.FilterInit(
        x0=np.array(x0, dtype=float),
        err_cov0=np.eye(n) if q0 is None else np.array(q0, dtype=float),
        proc_cov0=np.zeros((n, n)) if m0 is None else np.array(m0, dtype=float),
        meas_cov0=np.array([[n0]], dtype=float),
        proc_mean0=np.zeros(n),
        meas_mean0=np.zeros(1),
    )
    return akf.FilterConfig(
        transition=np.eye(n) if b is None else np.array(b, dtype=float),
        noise_gain=np.eye(n) if u is None else np.array(u, dtype=float),
        obs_at=lambda t: np.array([h_row], dtype=float),
        init=init,
        forgetting=g,
        meas_cov_fixed=np.array([[n_fixed]], dtype=float),
    )


# --- weighting coefficient ---------------------------------------------------

def test_weighting_coefficient_t0_is_one():
    for g in (0.95, 0.98, 0.999):
        assert akf.weighting_coefficient(0, g) == pytest.approx(1.0)


def test_weighting_coefficient_limit():
    assert akf.weighting_coefficient(10_000, 0.95) == pytest.approx(0.05, rel=1e-12)


def test_weighting_coefficient_hand_case():
    # g=0.98, t=1: 0.02 / (1 - 0.98^2) = 0.02 / 0.0396 = 0.50505...
    assert akf.weighting_coefficient(1, 0.98) == pytest.approx(0.5050505050505051)


def test_weighting_coefficient_strictly_decreasing():
    values = [akf.weighting_coefficient(t, 0.97) for t in range(200)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v > 1 - 0.97 for v in values)


def test_weighting_coefficient_validates():
    with pytest.raises(ConfigError):
        akf.weighting_coefficient(0, 1.0)
    with pytest.raises(ConfigError):
        akf.weighting_coefficient(-1, 0.95)


# --- predict ------------------------------------------------------------------

def test_predict_no_process_noise_is_identity():
    cfg = scalar_config([1.0, 0.0], x0=(2.0, -1.0), q0=[[2.0, 0.0], [0.0, 3.0]])
    state = akf.initial_state(cfg)
    x_pred, cov_pred = akf.predict(state, cfg)
    np.testing.assert_array_equal(x_pred, state.x)
    np.testing.assert_array_equal(cov_pred, state.err_cov)


def test_predict_scalar_hand_case():
    # B=1, Q=2, M=1, U=1 -> Q_pred = 3
    init = akf.FilterInit(x0=np.array([0.5]), err_cov0=np.array([[2.0]]),
                          proc_cov0=np.array([[1.0]]), meas_cov0=np.array([[1.0]]),
                          proc_mean0=np.zeros(1), meas_mean0=np.zeros(1))
    cfg = akf.FilterConfig(transition=np.eye(1), noise_gain=np.eye(1),
                           obs_at=lambda t: np.eye(1), init=init,
                           meas_cov_fixed=init.meas_cov0, forgetting=0.95)
    x_pred, cov_pred = akf.predict(akf.initial_state(cfg), cfg)
    assert cov_pred[0, 0] == pytest.approx(3.0)
    assert x_pred[0] == pytest.approx(0.5)


def test_predict_keeps_psd(rng):
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        m = rng.normal(size=(2, 2))
        cfg = scalar_config([1.0, 0.0], q0=a @ a.T, m0=m @ m.T)
        _, cov_pred = akf.predict(akf.initial_state(cfg), cfg)
        np.testing.assert_allclose(cov_pred, cov_pred.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov_pred).min() >= -1e-12


# --- single updates -----------------------------------------------------------

def test_update_zero_prior_covariance_freezes_estimate():
    cfg = scalar_config([1.0, 0.0], x0=(1.5, 0.5),
                        q0=np.zeros((2, 2)), m0=np.zeros((2, 2)))
    state = akf.initial_state(cfg)
    new_state, out = akf.update_classic(state, 99.0, cfg)
    np.testing.assert_array_equal(out.gain, np.zeros((2, 1)))
    np.testing.assert_array_equal(out.x_hat, out.x_pred)


def test_update_scalar_gain_half():
    # Q_pred = 1, H = 1, N = 1 -> gain = 0.5
    init = akf.FilterInit(x0=np.zeros(1), err_cov0=np.array([[1.0]]),
                          proc_cov0=np.zeros((1, 1)), meas_cov0=np.array([[1.0]]),
                          proc_mean0=np.zeros(1), meas_mean0=np.zeros(1))
    cfg = akf.FilterConfig(transition=np.eye(1), noise_gain=np.eye(1),
                           obs_at=lambda t: np.eye(1), init=init,
                           meas_cov_fixed=init.meas_cov0, forgetting=0.95)
    _, out = akf.update_classic(akf.initial_state(cfg), 2.0, cfg)
    assert out.gain[0, 0] == pytest.approx(0.5)
    assert out.x_hat[0] == pytest.approx(1.0)


def test_gain_limits_with_measurement_noise():
    # N -> inf: gain -> 0; N -> 0 with square invertible H: x_hat -> z
    big = scalar_config([1.0, 0.0], n0=1e12)
    _, out = akf.update_classic(akf.initial_state(big), 5.0, big)
    assert abs(out.gain).max() <= 1e-9

    init = akf.FilterInit(x0=np.zeros(1), err_cov0=np.array([[1.0]]),
                          proc_cov0=np.zeros((1, 1)), meas_cov0=np.array([[1e-15]]),
                          proc_mean0=np.zeros(1), meas_mean0=np.zeros(1))
    cfg = akf.FilterConfig(transition=np.eye(1), noise_gain=np.eye(1),
                           obs_at=lambda t: np.eye(1), init=init,
                           meas_cov_fixed=init.meas_cov0, forgetting=0.95)
    _, out = akf.update_classic(akf.initial_state(cfg), 5.0, cfg)
    assert out.x_hat[0] == pytest.approx(5.0, rel=1e-9)


def test_improved_proc_cov_shrinks_on_zero_residual():
    cfg = scalar_config([1.0, 0.0], x0=(1.0, 0.0), m0=np.eye(2) * 0.5)
    state = akf.initial_state(cfg)
    # measurement equals prediction exactly -> innovation 0
    z = float((cfg.obs_at(0) @ state.x)[0])
    new_state, out = akf.update_improved(state, z, cfg)
    np.testing.assert_allclose(out.innovation, [0.0], atol=1e-15)
    c0 = akf.weighting_coefficient(0, cfg.forgetting)
    np.testing.assert_allclose(new_state.proc_cov, (1 - c0) * state.proc_cov,
                               atol=1e-15)


# --- transcription oracles ----------------------------------------------------

def classic_oracle_steps(zs, omega, g, init, steps=3):
    """Literal line-by-line transcription of the printed classic recursion."""
    x, q, p, m, s, n_cov = [np.array(v, dtype=float) for v in init]
    results = []
    b = np.eye(2)
    u = np.eye(2)
    for t in range(steps):
        h = np.array([[np.cos(omega * t), -np.sin(omega * t)]])
        c = (1 - g) / (1 - g ** (t + 1))
        q_pred = b @ q @ b.T + u @ m @ u.T
        x_pred = b @ x + u @ p
        e = np.array([zs[t]]) - h @ x_pred - s
        gain = q_pred @ h.T @ np.linalg.inv(h @ q_pred @ h.T + n_cov)
        x_new = x_pred + gain @ e
        q_new = (np.eye(2) - gain @ h) @ q_pred
        q_new = 0.5 * (q_new + q_new.T)
        p_new = (1 - c) * p + c * (x_new - b @ x)
        m_new = (1 - c) * m + c * (gain @ np.outer(e, e) @ gain.T + q_new - b @ q @ b.T)
        s_new = (1 - c) * s + c * (np.array([zs[t]]) - h @ x_pred)
        n_new = (1 - c) * n_cov + c * (np.outer(e, e) - h @ q_pred @ h.T)
        results.append((x_pred, x_new, e, gain, q_new, p_new, m_new, s_new, n_new))
        x, q, p, m, s, n_cov = x_new, q_new, p_new, m_new, s_new, n_new
    return results


def improved_oracle_steps(zs, omega, g, init, n_fixed, steps=3):
    """Literal transcription of the improved recursion (fixed measurement
    noise, zero residual mean, gained-residual-only covariance update)."""
    x, q, p, m = [np.array(v, dtype=float) for v in init]
    results = []
    b = np.eye(2)
    u = np.eye(2)
    n_cov = np.array([[n_fixed]])
    for t in range(steps):
        h = np.array([[np.cos(omega * t), -np.sin(omega * t)]])
        c = (1 - g) / (1 - g ** (t + 1))
        q_pred = b @ q @ b.T + u @ m @ u.T
        x_pred = b @ x + u @ p
        e = np.array([zs[t]]) - h @ x_pred
        gain = q_pred @ h.T @ np.linalg.inv(h @ q_pred @ h.T + n_cov)
        x_new = x_pred + gain @ e
        q_new = (np.eye(2) - gain @ h) @ q_pred
        q_new = 0.5 * (q_new + q_new.T)
        p_new = (1 - c) * p + c * (x_new - b @ x)
        m_new = (1 - c) * m + c * (gain @ np.outer(e, e) @ gain.T)
        results.append((x_pred, x_new, e, gain, q_new, p_new, m_new))
        x, q, p, m = x_new, q_new, p_new, m_new
    return results


def test_classic_matches_transcription_oracle():
    zs = [1.1, 0.7, -0.3]
    omega, g = 0.4, 0.97
    x0, q0 = [0.9, 0.1], [[1.0, 0.2], [0.2, 2.0]]
    m0, n0 = [[0.3, 0.0], [0.0, 0.4]], [[0.5]]
    p0, s0 = [0.05, -0.02], [0.01]

    cfg = scalar_config([1.0, 0.0], g=g, x0=x0, q0=q0, m0=m0, n0=0.5)
    cfg = akf.FilterConfig(transition=cfg.transition, noise_gain=cfg.noise_gain,
                           obs_at=lambda t: observation_row(t, omega),
                           init=akf.FilterInit(
                               x0=np.array(x0), err_cov0=np.array(q0),
                               proc_cov0=np.array(m0), meas_cov0=np.array(n0),
                               proc_mean0=np.array(p0), meas_mean0=np.array(s0)),
                           meas_cov_fixed=np.array(n0), forgetting=g)
    oracle = classic_oracle_steps(zs, omega, g, (x0, q0, p0, m0, s0, n0))

    state = akf.initial_state(cfg)
    for t, z in enumerate(zs):
        state, out = akf.update_classic(state, z, cfg)
        x_pred, x_new, e, gain, q_new, p_new, m_new, s_new, n_new = oracle[t]
        np.testing.assert_allclose(out.x_pred, x_pred, atol=1e-12)
        np.testing.assert_allclose(out.x_hat, x_new, atol=1e-12)
        np.testing.assert_allclose(out.innovation, e, atol=1e-12)
        np.testing.assert_allclose(out.gain, gain, atol=1e-12)
        np.testing.assert_allclose(state.err_cov, q_new, atol=1e-12)
        np.testing.assert_allclose(state.proc_mean, p_new, atol=1e-12)
        np.testing.assert_allclose(state.proc_cov, m_new, atol=1e-12)
        np.testing.assert_allclose(state.meas_mean, s_new, atol=1e-12)
        np.testing.assert_allclose(state.meas_cov, n_new, atol=1e-12)


def test_improved_matches_transcription_oracle():
    zs = [0.8, 1.2, 0.4]
    omega, g = 0.3, 0.98
    x0, q0 = [0.7, -0.2], [[0.8, 0.1], [0.1, 1.5]]
    m0 = [[0.2, 0.0], [0.0, 0.1]]
    n_fixed = 0.25

    init = akf.FilterInit(x0=np.array(x0), err_cov0=np.array(q0),
                          proc_cov0=np.array(m0), meas_cov0=np.array([[n_fixed]]),
                          proc_mean0=np.zeros(2), meas_mean0=np.zeros(1))
    cfg = akf.FilterConfig(transition=np.eye(2), noise_gain=np.eye(2),
                           obs_at=lambda t: observation_row(t, omega),
                           init=init, forgetting=g,
                           meas_cov_fixed=np.array([[n_fixed]]))
    oracle = improved_oracle_steps(zs, omega, g, (x0, q0, [0.0, 0.0], m0), n_fixed)

    state = akf.initial_state(cfg)
    for t, z in enumerate(zs):
        state, out = akf.update_improved(state, z, cfg)
        x_pred, x_new, e, gain, q_new, p_new, m_new = oracle[t]
        np.testing.assert_allclose(out.x_pred, x_pred, atol=1e-12)
        np.testing.assert_allclose(out.x_hat, x_new, atol=1e-12)
        np.testing.assert_allclose(out.innovation, e, atol=1e-12)
        np.testing.assert_allclose(out.gain, gain, atol=1e-12)
        np.testing.assert_allclose(state.err_cov, q_new, atol=1e-12)
        np.testing.assert_allclose(state.proc_mean, p_new, atol=1e-12)
        np.testing.assert_allclose(state.proc_cov, m_new, atol=1e-12)


# --- whole runs ---------------------------------------------------------------

def exact_noiseless_config(omega):
    return akf.FilterConfig(
        transition=np.eye(2), noise_gain=np.eye(2),
        obs_at=lambda t: observation_row(t, omega),
        forgetting=0.98, meas_cov_fixed=np.array([[1e-12]]),
        init=akf.FilterInit(
            x0=np.array([1.0, 0.0]), err_cov0=np.zeros((2, 2)),
            proc_cov0=np.zeros((2, 2)), meas_cov0=np.array([[1e-12]]),
            proc_mean0=np.zeros(2), meas_mean0=np.zeros(1)))


def test_noiseless_run_has_tiny_innovations():
    params = SignalParams(omega=0.25, seed=0)
    trace = simulate(params, SignalState(1.0, 0.0), 300)
    outputs = akf.run(trace, exact_noiseless_config(params.omega), akf.Variant.IMPROVED)
    assert np.abs(outputs.innovation[:, 0]).max() <= 1e-9


def test_classic_collapses_on_exact_noiseless_data():
    # c_0 = 1 makes the adapted measurement covariance exactly e^2 = 0, so the
    # innovation covariance goes singular: the printed recursion degenerates
    # when there is literally no noise. The improved variant is unaffected.
    params = SignalParams(omega=0.25, seed=0)
    trace = simulate(params, SignalState(1.0, 0.0), 300)
    cfg = exact_noiseless_config(params.omega)
    with pytest.raises(SingularMatrixError):
        akf.run(trace, cfg, akf.Variant.CLASSIC)
    with pytest.raises(SingularMatrixError):
        oracle_run(trace, cfg, akf.Variant.CLASSIC)


def test_run_deterministic():
    params = SignalParams(omega=0.3, sigma_process=1e-3, sigma_meas=0.01, seed=4)
    trace = simulate(params, SignalState(1.0, 0.0), 500)
    cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
    a = akf.run(trace, cfg, akf.Variant.IMPROVED)
    b = akf.run(trace, cfg, akf.Variant.IMPROVED)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    np.testing.assert_array_equal(a.innovation, b.innovation)


def test_improved_tracks_below_measurement_noise():
    # Monte-Carlo oracle over 20 seeds: mean state error below raw sigma_meas
    for seed in range(20):
        params = SignalParams(omega=2 * np.pi / 20, sigma_process=1e-4,
                              sigma_meas=0.01, seed=seed)
        trace = simulate(params, SignalState(1.0, 0.0), 2000)
        cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
        outputs = akf.run(trace, cfg, akf.Variant.IMPROVED)
        errs = np.linalg.norm(outputs.x_hat[200:] - trace.states[200:], axis=1)
        assert np.mean(errs) < params.sigma_meas, f"seed {seed}"


def test_improved_proc_cov_diag_never_negative():
    params = SignalParams(omega=2 * np.pi / 20, sigma_process=1e-3,
                          sigma_meas=0.004, seed=2)
    trace = simulate(params, SignalState(1.0, 0.0), 3000)
    cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
    state = akf.initial_state(cfg)
    for z in trace.z:
        state, _ = akf.step(state, z, cfg, akf.Variant.IMPROVED)
        assert np.diag(state.proc_cov).min() >= 0.0


def test_classic_divergence_witness_high_order():
    """Regression fixture: a 10-state scenario drives a diagonal entry of the
    classic noise-covariance estimates negative (the documented deficiency)."""
    n_states = 10
    rng = np.random.default_rng(7)
    init = akf.FilterInit(
        x0=np.zeros(n_states),
        err_cov0=np.eye(n_states),
        proc_cov0=10.0 * np.eye(n_states),
        meas_cov0=np.eye(n_states),
        proc_mean0=np.zeros(n_states),
        meas_mean0=np.zeros(n_states),
    )
    cfg = akf.FilterConfig(transition=np.eye(n_states), noise_gain=np.eye(n_states),
                           obs_at=lambda t: np.eye(n_states), init=init,
                           meas_cov_fixed=np.eye(n_states), forgetting=0.95)
    state = akf.initial_state(cfg)
    negative_seen = False
    for t in range(100_000):
        z = rng.normal(0.0, 0.01, size=n_states)
        try:
            state, _ = akf.step(state, z, cfg, akf.Variant.CLASSIC)
        except Exception:
            negative_seen = True  # divergence also documents the deficiency
            break
        if min(np.diag(state.proc_cov).min(), np.diag(state.meas_cov).min()) < 0:
            negative_seen = True
            break
    assert negative_seen, "classic filter stayed positive on the stress fixture"


# --- float kernel against the step oracle ---------------------------------------

DEMO = SignalParams(omega=0.3141592653589793, sigma_process=0.001,
                    sigma_meas=0.002, seed=7)
COLUMNS = ("x_pred", "x_hat", "innovation")


def oracle_run(trace, cfg, variant):
    """``akf.step`` stacked over the trace: the reference ``akf.run`` keeps."""
    state = akf.initial_state(cfg)
    outputs = []
    for z in trace.z:
        state, out = akf.step(state, z, cfg, variant)
        outputs.append(out)
    return akf.FilterRun.from_steps(outputs)


def demo_trace(n):
    return simulate(DEMO, SignalState(1.0, 0.0), n)


def test_improved_kernel_matches_oracle_over_20k_steps():
    trace = demo_trace(20_000)
    cfg = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    kernel = akf.run(trace, cfg, akf.Variant.IMPROVED)
    oracle = oracle_run(trace, cfg, akf.Variant.IMPROVED)
    for name in COLUMNS:
        np.testing.assert_allclose(getattr(kernel, name), getattr(oracle, name),
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def test_classic_kernel_matches_oracle_over_first_30_ticks():
    trace = demo_trace(30)
    cfg = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    kernel = akf.run(trace, cfg, akf.Variant.CLASSIC)
    oracle = oracle_run(trace, cfg, akf.Variant.CLASSIC)
    for name in COLUMNS:
        np.testing.assert_allclose(getattr(kernel, name), getattr(oracle, name),
                                   rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", list(akf.Variant))
def test_kernel_matches_oracle_on_transcription_inputs(variant):
    # the three-step inputs of acceptance criterion 5: non-zero initial noise
    # means, a non-diagonal initial covariance and a fixed noise of 0.3
    omega = 0.35
    cfg = akf.FilterConfig(
        transition=np.eye(2), noise_gain=np.eye(2),
        obs_at=lambda t: observation_row(t, omega),
        init=akf.FilterInit(x0=np.array([1.0, -0.1]),
                            err_cov0=np.array([[0.9, 0.1], [0.1, 1.1]]),
                            proc_cov0=np.array([[0.25, 0.0], [0.0, 0.15]]),
                            meas_cov0=np.array([[0.3]]),
                            proc_mean0=np.array([0.02, -0.01]),
                            meas_mean0=np.array([0.005])),
        forgetting=0.97, meas_cov_fixed=np.array([[0.3]]))
    trace = Trace(ticks=np.arange(3), states=np.zeros((3, 2)),
                  z=np.array([1.05, 0.62, -0.41]))
    kernel = akf.run(trace, cfg, variant)
    oracle = oracle_run(trace, cfg, variant)
    for name in COLUMNS:
        np.testing.assert_allclose(getattr(kernel, name), getattr(oracle, name),
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def test_run_refuses_config_outside_kernel_shape():
    # a non-identity transition is not the kernel's model: run refuses it and
    # points at step, and stacking step filters it
    params = SignalParams(omega=0.3, sigma_process=1e-3, sigma_meas=0.01, seed=4)
    trace = simulate(params, SignalState(1.0, 0.0), 40)
    base = akf.config_for_sinusoid(params, float(trace.z[0]))
    cfg = akf.FilterConfig(transition=np.array([[1.0, 0.01], [0.0, 1.0]]),
                           noise_gain=base.noise_gain, obs_at=base.obs_at,
                           init=base.init, forgetting=base.forgetting,
                           meas_cov_fixed=base.meas_cov_fixed)
    with pytest.raises(ConfigError, match="akf.step"):
        akf.run(trace, cfg, akf.Variant.IMPROVED)
    oracle = oracle_run(trace, cfg, akf.Variant.IMPROVED)
    assert len(oracle.x_hat) == len(trace)
    assert np.isfinite(oracle.x_hat).all()
    assert not np.array_equal(oracle.x_hat, akf.run(trace, base, akf.Variant.IMPROVED).x_hat)


@pytest.mark.parametrize("field", ["err_cov0", "proc_cov0"])
def test_run_refuses_an_asymmetric_initial_covariance(field):
    # the kernel carries one off-diagonal entry per covariance; an asymmetric
    # one is refused with the pointer to step, which filters it
    trace = demo_trace(40)
    base = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    skewed = getattr(base.init, field) + np.array([[0.0, 1e-3], [0.0, 0.0]])
    cfg = dataclasses.replace(base, init=dataclasses.replace(base.init, **{field: skewed}))
    with pytest.raises(ConfigError, match="akf.step"):
        akf.run(trace, cfg, akf.Variant.IMPROVED)
    oracle = oracle_run(trace, cfg, akf.Variant.IMPROVED)
    assert len(oracle.x_hat) == len(trace) and np.isfinite(oracle.x_hat).all()
    assert not np.array_equal(oracle.x_hat, akf.run(trace, base, akf.Variant.IMPROVED).x_hat)


def test_run_names_the_tick_of_a_misshapen_observation_row():
    trace = demo_trace(20)
    base = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    cfg = akf.FilterConfig(
        transition=base.transition, noise_gain=base.noise_gain,
        obs_at=lambda t: np.ones((2, 2)) if t == 7 else base.obs_at(t),
        init=base.init, forgetting=base.forgetting, meas_cov_fixed=base.meas_cov_fixed)
    with pytest.raises(DimensionError, match="tick 7"):
        akf.run(trace, cfg, akf.Variant.IMPROVED)


def test_run_takes_precomputed_observation_rows():
    trace = demo_trace(200)
    cfg = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    rows = observation_rows(trace.ticks, DEMO.omega)
    for variant in akf.Variant:
        given = akf.run(trace, cfg, variant, rows)
        own = akf.run(trace, cfg, variant)
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(given, name), getattr(own, name))
    with pytest.raises(DimensionError):
        akf.run(trace, cfg, akf.Variant.IMPROVED, rows[:-1])


@pytest.mark.parametrize("variant", list(akf.Variant))
def test_nan_measurement_names_the_tick(variant):
    trace = demo_trace(50)
    z = trace.z.copy()
    z[17] = np.nan
    bad = Trace(ticks=trace.ticks, states=trace.states, z=z)
    cfg = akf.config_for_sinusoid(DEMO, float(z[0]))
    with pytest.raises(DataError, match="tick 17"):
        akf.run(bad, cfg, variant)


PIVOT_B = PIVOT_RTOL * 1e-300  # below 1e-300 the oracle's pivot bound is this


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the oracle's rcond at inf
@pytest.mark.parametrize("variant", list(akf.Variant))
@pytest.mark.parametrize("s", [0.0, -0.0, 5e-324, PIVOT_B, -PIVOT_B,
                               math.nextafter(PIVOT_B, math.inf), 1e-300,
                               math.inf, -math.inf, math.nan])
def test_kernel_pivot_raises_exactly_where_the_oracle_does(variant, s):
    # zero covariances make the innovation variance exactly the measurement
    # noise, so the first step's pivot is s itself
    cfg = scalar_config([1.0, 0.0], q0=np.zeros((2, 2)), m0=np.zeros((2, 2)),
                        n0=s, n_fixed=s)
    trace = Trace(ticks=np.arange(1), states=np.zeros((1, 2)), z=np.array([0.5]))

    def raises(run) -> bool:
        try:
            run()
        except SingularMatrixError:
            return True
        return False

    oracle = raises(lambda: akf.step(akf.initial_state(cfg), trace.z[0], cfg, variant))
    assert raises(lambda: akf.run(trace, cfg, variant)) == oracle
    assert oracle == (not math.isnan(s) and (abs(s) <= PIVOT_B or math.isinf(s)))


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


NON_FMA_ORACLE = """
import sys
import numpy as np
from fdia_lab import akf
from fdia_lab.signal_model import SignalParams, SignalState, simulate
params = SignalParams(omega=0.3141592653589793, sigma_process=0.001,
                      sigma_meas=0.002, seed=7)
trace = simulate(params, SignalState(1.0, 0.0), int(sys.argv[1]))
cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
for variant in akf.Variant:
    state = akf.initial_state(cfg)
    x_hat = []
    for z in trace.z:
        state, out = akf.step(state, z, cfg, variant)
        x_hat.append(out.x_hat)
    print(np.stack(x_hat).tobytes().hex())
"""


@pytest.mark.skipif(platform.machine() != "x86_64" or not _dynamic_arch_openblas(),
                    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS on x86_64")
def test_kernel_bit_equals_oracle_without_fma():
    # OpenBLAS's Sandybridge kernel has no fused multiply-add, so the oracle's
    # numpy calls round exactly as the kernel's float operations do
    n = 2000
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", NON_FMA_ORACLE, str(n)], env=env,
                         check=True, capture_output=True, text=True, timeout=300)
    oracle_hex = out.stdout.split()
    trace = demo_trace(n)
    cfg = akf.config_for_sinusoid(DEMO, float(trace.z[0]))
    for variant, expected in zip(akf.Variant, oracle_hex, strict=True):
        kernel = akf.run(trace, cfg, variant)
        assert kernel.x_hat.tobytes().hex() == expected, variant
