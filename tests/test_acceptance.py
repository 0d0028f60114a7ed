"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion prints a single PASS/FAIL line (run with ``pytest -v -s``
to see them live). Budgets are asserted alongside the functional checks.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import make_labeled_dataset, random_dc_system
from fdia_lab import akf, attack, signal_model
from fdia_lab.cli import main as cli_main
from fdia_lab.data_pipeline import (apply_standardizer, cks_oversample,
                                    fit_standardizer, split, window)
from fdia_lab.dc_estimation import chi_square_threshold, objective, wls_estimate
from fdia_lab.evaluation import confusion, detection_latency, metrics
from fdia_lab.fusion import combine, combine_streams
from fdia_lab.nn import (NetworkConfig, TrainConfig, forward, gradients,
                         init_network, parameters, predict_proba, train)
from fdia_lab.nn.network import cross_entropy
from fdia_lab.passive_detect import (Thresholds, calibrate_channels, decide,
                                     evaluate_stream)
from test_akf import classic_oracle_steps, improved_oracle_steps

# Reference injection scenario: 3254 continuously sampled measurements with
# a 5% fractional injection from tick 2310 onward.
SCENARIO = dict(omega=2 * math.pi / 20, sigma_process=1e-3, sigma_meas=0.002,
          seed=7, n=3254, onset=2310)


def criterion(number, name, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {name}", flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} PASS  {name}  ({elapsed:.2f}s)",
                  flush=True)
            assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"
        return run
    return wrap


def attacked_scenario_trace():
    params = signal_model.SignalParams(omega=SCENARIO["omega"],
                                       sigma_process=SCENARIO["sigma_process"],
                                       sigma_meas=SCENARIO["sigma_meas"],
                                       seed=SCENARIO["seed"])
    trace = signal_model.simulate(params, signal_model.SignalState(1.0, 0.0),
                                  SCENARIO["n"])
    scen = attack.AttackScenario(
        selection=attack.SensorSelection((True,)),
        kind=attack.AttackKind.FRACTION_SCALE,
        onset=SCENARIO["onset"], duration=SCENARIO["n"] - SCENARIO["onset"], fraction=0.05)
    z_att = np.array([attack.inject(np.array([z]), scen, int(t))[0]
                      for t, z in zip(trace.ticks, trace.z)])
    return params, signal_model.Trace(ticks=trace.ticks, states=trace.states,
                                      z=z_att)


@pytest.fixture(scope="module")
def clean_long_run():
    """One 1e5-step improved-filter run shared by criteria 4 and 6."""
    params = signal_model.SignalParams(omega=SCENARIO["omega"],
                                       sigma_process=SCENARIO["sigma_process"],
                                       sigma_meas=SCENARIO["sigma_meas"], seed=11)
    trace = signal_model.simulate(params, signal_model.SignalState(1.0, 0.0),
                                  100_000)
    cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
    state = akf.initial_state(cfg)
    outputs = []
    min_diag = math.inf
    for z in trace.z:
        state, out = akf.step(state, z, cfg, akf.Variant.IMPROVED)
        outputs.append(out)
        d = float(np.diag(state.proc_cov).min())
        if d < min_diag:
            min_diag = d
    return params, trace, outputs, min_diag


@criterion(1, "stealth invisibility (1000 random systems, 1e-9 relative)", 5.0)
def test_criterion_1_stealth_invisibility():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        sys = random_dc_system(rng)
        z = rng.normal(size=sys.m)
        d = rng.normal(size=sys.n)
        x_hat = wls_estimate(sys, z)
        clean = objective(sys, z, x_hat)
        attacked = objective(sys, z + sys.jacobian @ d, x_hat + d)
        assert attacked == pytest.approx(clean, rel=1e-9, abs=1e-12)


@criterion(2, "chi-square threshold anchor 13.34 within 2%", 1.0)
def test_criterion_2_chi_square_anchor():
    value = chi_square_threshold(4, 0.01)
    assert abs(value - 13.34) / 13.34 <= 0.02


@criterion(3, "residual detector anchors 23.6210 / 1.2723 vs 5.7177", 1.0)
def test_criterion_3_residual_anchors():
    th = Thresholds(sigma=5.7177 / 3.0, k=3.0)
    assert decide(23.6210, th) is True
    assert decide(1.2723, th) is False


@criterion(4, "NDAKF non-negativity at 1e5 steps + classic stress witness", 30.0)
def test_criterion_4_ndakf_nonnegativity(clean_long_run):
    _, _, _, min_diag = clean_long_run
    assert min_diag >= 0.0

    # >= 10-state stress: the improved update stays non-negative, the classic
    # update drives a covariance diagonal negative (or diverges outright)
    n_states = 12
    rng = np.random.default_rng(4)
    init = akf.FilterInit(x0=np.zeros(n_states), err_cov0=np.eye(n_states),
                          proc_cov0=10.0 * np.eye(n_states),
                          meas_cov0=np.eye(n_states),
                          proc_mean0=np.zeros(n_states),
                          meas_mean0=np.zeros(n_states))
    cfg = akf.FilterConfig(transition=np.eye(n_states),
                           noise_gain=np.eye(n_states),
                           obs_at=lambda t: np.eye(n_states), init=init,
                           forgetting=0.95,
                           meas_cov_fixed=np.eye(n_states))
    zs = rng.normal(0.0, 0.01, size=(2000, n_states))

    state = akf.initial_state(cfg)
    for z in zs:
        state, _ = akf.step(state, z, cfg, akf.Variant.IMPROVED)
        assert np.diag(state.proc_cov).min() >= 0.0

    state = akf.initial_state(cfg)
    classic_negative = False
    for z in zs:
        try:
            state, _ = akf.step(state, z, cfg, akf.Variant.CLASSIC)
        except Exception:
            classic_negative = True
            break
        if min(np.diag(state.proc_cov).min(),
               np.diag(state.meas_cov).min()) < 0.0:
            classic_negative = True
            break
    assert classic_negative


@criterion(5, "filter steps match straight-line transcriptions within 1e-12", 1.0)
def test_criterion_5_transcription_equivalence():
    zs = [1.05, 0.62, -0.41]
    omega, g = 0.35, 0.97
    x0, q0 = [1.0, -0.1], [[0.9, 0.1], [0.1, 1.1]]
    m0 = [[0.25, 0.0], [0.0, 0.15]]
    p0, s0, n0 = [0.02, -0.01], [0.005], [[0.3]]

    cfg = akf.FilterConfig(
        transition=np.eye(2), noise_gain=np.eye(2),
        obs_at=lambda t: signal_model.observation_row(t, omega),
        init=akf.FilterInit(x0=np.array(x0), err_cov0=np.array(q0),
                            proc_cov0=np.array(m0), meas_cov0=np.array(n0),
                            proc_mean0=np.array(p0), meas_mean0=np.array(s0)),
        forgetting=g, meas_cov_fixed=np.array([[0.3]]))

    oracle = classic_oracle_steps(zs, omega, g, (x0, q0, p0, m0, s0, n0))
    state = akf.initial_state(cfg)
    for t, z in enumerate(zs):
        state, out = akf.update_classic(state, z, cfg)
        np.testing.assert_allclose(out.x_hat, oracle[t][1], atol=1e-12)
        np.testing.assert_allclose(state.proc_cov, oracle[t][6], atol=1e-12)
        np.testing.assert_allclose(state.meas_cov, oracle[t][8], atol=1e-12)

    oracle = improved_oracle_steps(zs, omega, g, (x0, q0, p0, m0), 0.3)
    state = akf.initial_state(cfg)
    for t, z in enumerate(zs):
        state, out = akf.update_improved(state, z, cfg)
        np.testing.assert_allclose(out.x_hat, oracle[t][1], atol=1e-12)
        np.testing.assert_allclose(state.proc_cov, oracle[t][6], atol=1e-12)


@criterion(6, "Euclidean false-alarm rate <= 0.5% on 1e5 clean samples", 30.0)
def test_criterion_6_false_alarm_rate(clean_long_run):
    params, trace, outputs, _ = clean_long_run
    obs = [signal_model.observation_row(int(t), params.omega)
           for t in trace.ticks]
    euclid_th, _ = calibrate_channels(outputs, trace.z, obs, warmup=500)
    post = slice(500, None)
    flags = [decide(abs(float((h @ o.x_pred)[0]) - z), euclid_th)
             for o, z, h in zip(outputs[post], trace.z[post], obs[post])]
    rate = float(np.mean(flags))
    assert rate <= 0.005, f"false alarm rate {rate:.4f}"


@criterion(7, "5% injection flagged within 5 ticks, no later than classic", 10.0)
def test_criterion_7_injection_latency():
    params, trace = attacked_scenario_trace()
    obs = [signal_model.observation_row(int(t), params.omega)
           for t in trace.ticks]
    cfg = akf.config_for_sinusoid(params, float(trace.z[0]))
    latencies = {}
    for variant in (akf.Variant.IMPROVED, akf.Variant.CLASSIC):
        outputs = akf.run(trace, cfg, variant)
        euclid_th, resid_th = calibrate_channels(outputs, trace.z, obs,
                                                 warmup=500)
        verdicts = evaluate_stream(outputs, trace.z, obs, euclid_th, resid_th,
                                   armed_from=500)
        residual_flags = np.array([
            v.t >= 500 and decide(v.residual_r, resid_th) for v in verdicts])
        latencies[variant] = detection_latency(residual_flags, SCENARIO["onset"])
    improved = latencies[akf.Variant.IMPROVED]
    classic = latencies[akf.Variant.CLASSIC]
    assert improved is not None and improved <= 5, f"latency {improved}"
    assert classic is None or improved <= classic, (improved, classic)


@criterion(8, "analytic gradients within 1e-4 of central differences", 60.0)
def test_criterion_8_gradient_correctness():
    tiny = NetworkConfig(input_dim=3, window_len=4, hidden=4, conv1_kernels=2,
                         conv1_size=2, conv2_kernels=2, conv2_size=2, pool=2,
                         dropout=0.0)
    net = init_network(tiny, seed=5)
    rng = np.random.default_rng(9)
    windows = rng.normal(size=(3, 4, 3))
    labels = np.array([0, 1, 0])
    _, grads = gradients(net, windows, labels)
    h = 1e-5
    for name, arr in parameters(net).items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = cross_entropy(forward(net, windows)[0], labels)
            flat[idx] = orig - h
            lm = cross_entropy(forward(net, windows)[0], labels)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(g[idx] - numeric) / max(abs(g[idx]), abs(numeric), 1e-6)
            assert rel <= 1e-4, f"{name}[{idx}]"


@criterion(9, "CKS-balanced toy training reaches 0.90 holdout (2 of 3 seeds)", 600.0)
def test_criterion_9_end_to_end_training():
    net_cfg = NetworkConfig(input_dim=4, window_len=16, hidden=16,
                            conv1_kernels=4, conv1_size=3, conv2_kernels=8,
                            conv2_size=3, pool=2, dropout=0.5)
    successes = 0
    total_windows = 0
    for seed in (0, 1, 2):
        data = make_labeled_dataset(2600, 0.15, seed=seed)
        balanced = cks_oversample(data, k_clusters=3, seed=seed)
        train_d, test_d = split(balanced, 0.8, seed=seed)
        std = fit_standardizer(train_d.values)
        train_w, train_y = window(apply_standardizer(std, train_d.values),
                                  train_d.labels, 16)
        test_w, test_y = window(apply_standardizer(std, test_d.values),
                                test_d.labels, 16)
        total_windows += len(train_w) + len(test_w)
        net, _ = train(train_w, train_y, net_cfg,
                       TrainConfig(epochs=6, batch=32, seed=seed))
        probs = predict_proba(net, test_w)
        accuracy = float(((probs[:, 1] > probs[:, 0]).astype(int) == test_y).mean())
        if accuracy >= 0.90:
            successes += 1
    assert total_windows // 3 >= 2000
    assert successes >= 2, f"only {successes} of 3 seeds reached 0.90"


@criterion(10, "fusion truth table exact; fused recall dominates components", 1.0)
def test_criterion_10_fusion_properties():
    th = Thresholds(sigma=1.0, k=3.0)
    table = [(1.0, False, False), (1.0, True, True),
             (5.0, False, True), (5.0, True, True)]
    for residual, active, expected in table:
        assert combine(residual, th, active).fused is expected

    rng = np.random.default_rng(5)
    for _ in range(100):
        n = 400
        residuals = rng.uniform(0.0, 6.0, size=n)
        actives = rng.random(n) < 0.1
        labels = rng.random(n) < 0.3
        fused = np.array([v.fused
                          for v in combine_streams(residuals, th, actives)])
        passive = residuals >= th.limit

        def recall(preds):
            c = confusion(preds, labels)
            return metrics(c).recall

        assert recall(fused) >= max(recall(passive), recall(np.array(actives)))


@criterion(11, "byte-identical artifacts across repeated runs", 600.0)
def test_criterion_11_determinism(tmp_path):
    config = {
        "signal": {"omega": SCENARIO["omega"], "sigma_process": SCENARIO["sigma_process"],
                   "sigma_meas": SCENARIO["sigma_meas"], "seed": 7, "n": 1200,
                   "initial": [1.0, 0.0]},
        "attack": {"kind": "fraction_scale", "fraction": 0.05, "onset": 800,
                   "duration": 300, "sensors": [True]},
        "filter": {"variant": "improved", "forgetting": 0.98},
        "thresholds": {"k": 3.0, "warmup": 500},
        "network": {"window_len": 8, "hidden": 8, "conv1_kernels": 2,
                    "conv1_size": 3, "conv2_kernels": 4, "conv2_size": 2,
                    "pool": 2, "dropout": 0.2,
                    "train": {"lr": 1e-3, "epochs": 2, "batch": 32, "seed": 3}},
        "pipeline": {"k_clusters": 3, "train_fraction": 0.8, "order": "oversample_first",
                     "seed": 11},
    }
    artifacts = ["trace.csv", "labels.csv", "dataset.csv", "checkpoint.json",
                 "history.csv", "metrics.json", "verdicts_passive.csv",
                 "verdicts_active.csv", "verdicts_fused.csv", "manifest.json"]
    out = tmp_path / "run"
    cfg = dict(config, outputs=str(out))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def full_run():
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["detect", "--config", str(cfg_path)]) == 0
        return {name: (out / name).read_bytes() for name in artifacts}

    first = full_run()
    for name in artifacts:
        (out / name).unlink()
    second = full_run()
    for name in artifacts:
        assert first[name] == second[name], f"{name} differs between runs"
