import math

import numpy as np
import pytest

from fdia_lab import akf
from fdia_lab.errors import DataError
from fdia_lab.passive_detect import (PassiveVerdict, Thresholds, calibrate_channels,
                                     calibrate_sigma, channel_samples, decide,
                                     euclidean_deviation, evaluate_stream,
                                     residual_metric, write_verdicts_csv)
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


def test_verdicts_csv(tmp_path):
    trace, outputs, obs = run_filtered_trace(700, seed=5)
    euclid_th, resid_th = calibrate_channels(outputs, trace.z, obs, warmup=600)
    verdicts = evaluate_stream(outputs, trace.z, obs, euclid_th, resid_th)
    path = tmp_path / "verdicts.csv"
    write_verdicts_csv(verdicts.t, verdicts.euclidean_d, verdicts.residual_r, verdicts.flag,
                       path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,euclidean_d,residual_r,flag"
    assert len(lines) == 701


# --- columns against the per-tick detectors ------------------------------------

def as_steps(run):
    return [akf.StepOutput(t=int(run.t[i]), x_pred=run.x_pred[i], x_hat=run.x_hat[i],
                           innovation=run.innovation[i], gain=run.gain[i])
            for i in range(len(run))]


def test_channel_samples_match_per_tick_detectors():
    trace, outputs, obs = run_filtered_trace(3000, seed=8)
    devs, signed = channel_samples(outputs, trace.z, obs)
    ref_devs, ref_signed = [], []
    for x_pred, x_hat, z, h in zip(outputs.x_pred, outputs.x_hat, trace.z, obs):
        dev = float((h @ x_pred)[0]) - float(z)
        r = residual_metric(x_pred, x_hat)
        ref_devs.append(dev)
        ref_signed.append(math.copysign(r, dev) if dev != 0.0 else r)
    np.testing.assert_allclose(devs, ref_devs, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(signed, ref_signed, rtol=1e-12, atol=1e-15)


def test_evaluate_stream_matches_per_tick_decisions():
    trace, outputs, obs = run_filtered_trace(3000, seed=8)
    euclid_th = Thresholds(sigma=0.002)
    resid_th = Thresholds(sigma=0.001)
    verdicts = evaluate_stream(outputs, trace.z, obs, euclid_th, resid_th, armed_from=700)
    assert len(verdicts) == 3000
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


def test_step_list_and_filter_run_give_equal_verdicts():
    trace, outputs, obs = run_filtered_trace(800, seed=2)
    rows = observation_rows(trace.ticks, 2 * np.pi / 20)
    th_a = calibrate_channels(outputs, trace.z, rows, warmup=600)
    th_b = calibrate_channels(as_steps(outputs), trace.z, obs, warmup=600)
    assert th_a == th_b
    a = evaluate_stream(outputs, trace.z, rows, *th_a, armed_from=600)
    b = evaluate_stream(as_steps(outputs), trace.z, obs, *th_b, armed_from=600)
    for name in ("t", "euclidean_d", "residual_r", "residual_flag", "flag"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("value, message", [(0.0, "zero-norm state at tick 3"),
                                            (np.nan, "non-finite at tick 3")])
def test_bad_filter_state_names_the_tick(value, message):
    trace, outputs, obs = run_filtered_trace(10, seed=1)
    x_pred = outputs.x_pred.copy()
    x_pred[3] = value
    broken = akf.FilterRun(outputs.t, x_pred, outputs.x_hat, outputs.innovation,
                           outputs.gain)
    with pytest.raises(DataError, match=message):
        channel_samples(broken, trace.z, obs)
    with pytest.raises(DataError, match=message):
        evaluate_stream(broken, trace.z, obs, Thresholds(1.0), Thresholds(1.0))
