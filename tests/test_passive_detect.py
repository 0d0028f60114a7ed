import math

import numpy as np
import pytest

from fdia_lab import akf
from fdia_lab.errors import DataError
from fdia_lab.passive_detect import (SETTLE_TICKS, PassiveVerdict, Thresholds,
                                     calibrate_channels, calibrate_sigma, decide,
                                     detect_stream, evaluate_stream)
from fdia_lab.signal_model import (SignalParams, SignalState, observation_row,
                                   observation_rows, simulate)


def test_calibrate_sigma_rejects_short_window():
    with pytest.raises(DataError):
        calibrate_sigma(np.zeros(99))


def test_calibrate_sigma_rejects_constant_window():
    with pytest.raises(DataError):
        calibrate_sigma(np.full(500, 3.7))


def test_calibrate_sigma_alternating_unit_sequence():
    values = np.tile([-1.0, 1.0], 100)
    # sample std with n-1 denominator: sqrt(200/199) = 1.0025...
    assert calibrate_sigma(values) == pytest.approx(1.0, abs=0.01)


def test_calibrate_sigma_gaussian_monte_carlo():
    draws = np.random.default_rng(7).normal(0.0, 2.0, size=100_000)
    assert calibrate_sigma(draws) == pytest.approx(2.0, rel=0.02)


# --- per-tick references for the channel arrays --------------------------------

def euclidean_deviation(estimated: float, observed: float) -> float:
    """Absolute deviation between predicted and observed signal values."""
    return abs(float(estimated) - float(observed))


def residual_metric(x, x_hat) -> float:
    """Normalized residual ||x - x_hat|| / (||x|| * ||x_hat||)."""
    x, x_hat = np.asarray(x, dtype=float), np.asarray(x_hat, dtype=float)
    nx, nh = np.linalg.norm(x), np.linalg.norm(x_hat)
    if nx == 0.0 or nh == 0.0:
        raise DataError("residual metric undefined for zero-norm state")
    return float(np.linalg.norm(x - x_hat) / (nx * nh))


def test_euclidean_deviation_examples():
    assert euclidean_deviation(4.0, 4.0) == 0.0
    assert euclidean_deviation(5.0, 3.0) == pytest.approx(2.0)
    assert euclidean_deviation(3.0, 5.0) == euclidean_deviation(5.0, 3.0)


def test_euclidean_deviation_scales_linearly(rng):
    for _ in range(50):
        a, b, s = rng.normal(), rng.normal(), rng.uniform(0.1, 10)
        assert euclidean_deviation(s * a, s * b) == pytest.approx(
            s * euclidean_deviation(a, b))


def test_residual_metric_identical_states():
    x = np.array([3.0, 4.0])
    assert residual_metric(x, x) == 0.0


def test_residual_metric_hand_case():
    # ||(3,0)-(4,0)|| / (3*4) = 1/12
    value = residual_metric(np.array([3.0, 0.0]), np.array([4.0, 0.0]))
    assert value == pytest.approx(1.0 / 12.0)


def test_residual_metric_zero_norm_rejected():
    with pytest.raises(DataError):
        residual_metric(np.zeros(2), np.array([1.0, 0.0]))


def test_decide_reference_anchor_values():
    # known clean/attacked residual values 1.2723 and 23.6210 against the
    # 3-sigma threshold 5.7177
    th = Thresholds(sigma=5.7177 / 3.0, k=3.0)
    assert th.limit == pytest.approx(5.7177)
    assert decide(23.6210, th) is True
    assert decide(1.2723, th) is False


def test_decide_boundary_is_inclusive():
    th = Thresholds(sigma=1.0, k=3.0)
    assert decide(3.0, th) is True
    assert decide(0.0, th) is False
    with pytest.raises(DataError, match="non-negative"):
        decide(-1e-300, th)
    # an array is decided element by element with the same inclusive limit
    flags = decide(np.array([0.0, np.nextafter(3.0, 0.0), 3.0, 7.5]), th)
    assert flags.dtype == bool
    np.testing.assert_array_equal(flags, [False, False, True, True])
    with pytest.raises(DataError, match="non-negative"):
        decide(np.array([4.0, -1e-300, 0.0]), th)


def test_decide_monotone(rng):
    th = Thresholds(sigma=0.5, k=3.0)
    metrics = np.sort(rng.uniform(0, 4, size=100))
    decisions = [decide(m, th) for m in metrics]
    assert decisions == sorted(decisions)


def run_filtered_trace(n, seed, sigma_meas=0.004):
    params = SignalParams(omega=2 * np.pi / 20, sigma_process=1e-3,
                          sigma_meas=sigma_meas, seed=seed)
    trace = simulate(params, SignalState(1.0, 0.0), n)
    cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
    outputs = akf.run(trace, cfg, akf.Variant.IMPROVED)
    obs = [observation_row(int(t), params.omega) for t in trace.ticks]
    return trace, outputs, obs


def test_stream_false_alarm_rate_on_clean_data():
    trace, outputs, obs = run_filtered_trace(20_000, seed=3)
    euclid_th, resid_th = calibrate_channels(outputs, trace.z, obs, warmup=500)
    verdicts = evaluate_stream(outputs, trace.z, obs, euclid_th, resid_th)
    rate = np.mean([v.flag for v in verdicts])
    assert rate <= 0.005


def test_calibration_window_must_fit():
    trace, outputs, obs = run_filtered_trace(300, seed=3)
    with pytest.raises(DataError):
        calibrate_channels(outputs, trace.z, obs, warmup=500)


# --- columns against the per-tick detectors ------------------------------------

def as_steps(run):
    # a FilterRun has no gain column, and no stage reads a step's gain
    return [akf.StepOutput(t=i, x_pred=run.x_pred[i], x_hat=run.x_hat[i],
                           innovation=run.innovation[i], gain=np.zeros((2, 1)))
            for i in range(len(run.x_pred))]


def test_calibrate_channels_matches_per_tick_reference():
    # each sigma is the n-1 std of the signed per-tick samples of the warm-up
    # after its settle ticks: H x_pred - z, and the residual metric with that sign
    trace, outputs, obs = run_filtered_trace(3000, seed=8)
    warmup = 700
    ref_devs, ref_signed = [], []
    for i in range(SETTLE_TICKS, warmup):
        dev = float((obs[i] @ outputs.x_pred[i])[0]) - float(trace.z[i])
        r = residual_metric(outputs.x_pred[i], outputs.x_hat[i])
        ref_devs.append(dev)
        ref_signed.append(math.copysign(r, dev) if dev != 0.0 else r)
    euclid_th, resid_th = calibrate_channels(outputs, trace.z, obs, warmup=warmup, k=2.0)
    assert euclid_th.k == resid_th.k == 2.0
    assert euclid_th.sigma == pytest.approx(np.std(ref_devs, ddof=1), rel=1e-12)
    assert resid_th.sigma == pytest.approx(np.std(ref_signed, ddof=1), rel=1e-12)
    # the unsigned metric would give a different sigma
    assert resid_th.sigma != pytest.approx(np.std(np.abs(ref_signed), ddof=1), rel=1e-3)


def test_evaluate_stream_matches_per_tick_decisions():
    trace, outputs, obs = run_filtered_trace(3000, seed=8)
    euclid_th = Thresholds(sigma=0.002)
    resid_th = Thresholds(sigma=0.001)
    verdicts = evaluate_stream(outputs, trace.z, obs, euclid_th, resid_th, armed_from=700)
    assert len(list(verdicts)) == len(verdicts.flag) == 3000
    for i, v in enumerate(verdicts):
        assert isinstance(v, PassiveVerdict) and v.t == i
        d = euclidean_deviation(float((obs[i] @ outputs.x_pred[i])[0]), trace.z[i])
        r = residual_metric(outputs.x_pred[i], outputs.x_hat[i])
        assert v.euclidean_d == pytest.approx(d, rel=1e-12, abs=1e-15)
        assert v.residual_r == pytest.approx(r, rel=1e-12, abs=1e-15)
        armed = i >= 700
        assert verdicts.residual_flag[i] == (armed and decide(v.residual_r, resid_th))
        assert v.flag == (armed and (decide(v.euclidean_d, euclid_th)
                                     or decide(v.residual_r, resid_th)))


def test_stream_limits_are_inclusive_and_armed_from_is_armed():
    trace, outputs, obs = run_filtered_trace(300, seed=4)
    off = Thresholds(sigma=1e300)
    values = evaluate_stream(outputs, trace.z, obs, off, off)
    i = 150
    # k = 1 makes each limit exactly the channel's value at tick i
    at_d = Thresholds(sigma=values.euclidean_d[i], k=1.0)
    at_r = Thresholds(sigma=values.residual_r[i], k=1.0)
    by_d = evaluate_stream(outputs, trace.z, obs, at_d, off, armed_from=i)
    assert by_d.flag[i] and not by_d.residual_flag[i]
    by_r = evaluate_stream(outputs, trace.z, obs, off, at_r, armed_from=i)
    assert by_r.residual_flag[i] and by_r.flag[i]
    for verdicts in (by_d, by_r):
        assert not verdicts.flag[:i].any() and not verdicts.residual_flag[:i].any()


def test_step_list_and_filter_run_give_equal_verdicts():
    trace, outputs, obs = run_filtered_trace(800, seed=2)
    rows = observation_rows(trace.ticks, 2 * np.pi / 20)
    th_a = calibrate_channels(outputs, trace.z, rows, warmup=600)
    th_b = calibrate_channels(as_steps(outputs), trace.z, obs, warmup=600)
    assert th_a == th_b
    a = evaluate_stream(outputs, trace.z, rows, *th_a, armed_from=600)
    b = evaluate_stream(as_steps(outputs), trace.z, obs, *th_b, armed_from=600)
    for name in ("euclidean_d", "residual_r", "residual_flag", "flag"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("value, message", [(0.0, "zero-norm state at tick 3"),
                                            (np.nan, "non-finite at tick 3")])
def test_bad_filter_state_names_the_tick(value, message):
    trace, outputs, obs = run_filtered_trace(10, seed=1)
    x_pred = outputs.x_pred.copy()
    x_pred[3] = value
    broken = akf.FilterRun(x_pred, outputs.x_hat, outputs.innovation)
    with pytest.raises(DataError, match=message):
        evaluate_stream(broken, trace.z, obs, Thresholds(1.0), Thresholds(1.0))
    with pytest.raises(DataError, match=message):
        detect_stream(broken, trace.z, obs, warmup=5)
    # the tick lies after the warm-up, and the fit still checks the whole run
    with pytest.raises(DataError, match=message):
        calibrate_channels(broken, trace.z, obs, warmup=3)


@pytest.mark.parametrize("variant", list(akf.Variant))
def test_one_pass_thresholds_equal_calibrate_channels(variant):
    # detect_stream is calibrate_channels then evaluate_stream armed from the
    # warm-up's end, column for column, on a FilterRun and on a StepOutput list
    trace, _, obs = run_filtered_trace(2000, seed=6)
    params = SignalParams(omega=2 * np.pi / 20, sigma_process=1e-3, sigma_meas=0.004, seed=6)
    run = akf.run(trace, akf.config_for_sinusoid(params, float(trace.z[0])), variant)
    rows = observation_rows(trace.ticks, params.omega)
    fitted = []
    for outputs, obs_rows in ((run, rows), (as_steps(run), obs)):
        one_pass = detect_stream(outputs, trace.z, obs_rows, warmup=600, k=2.5)
        fitted.append(calibrate_channels(outputs, trace.z, obs_rows, warmup=600, k=2.5))
        two_pass = evaluate_stream(outputs, trace.z, obs_rows, *fitted[-1], armed_from=600)
        for name in ("euclidean_d", "residual_r", "residual_flag", "flag"):
            np.testing.assert_array_equal(getattr(one_pass, name), getattr(two_pass, name))
        assert one_pass.flag.any() and not one_pass.flag[:600].any()
    assert fitted[0] == fitted[1] and fitted[0][0].k == fitted[0][1].k == 2.5
