import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fdia_lab.data_pipeline import Standardizer, window
from fdia_lab.errors import ConfigError, DataError, DimensionError
from fdia_lab.nn import (AdamState, NetworkConfig, TrainConfig, adam_step,
                         conv_forward, forward, gradients, init_network,
                         load_checkpoint, parameters, pool_forward, predict_proba,
                         save_checkpoint, train)
from fdia_lab.nn.layers import (ConvLayer, DenseLayer, GruParams, conv_backward,
                                dropout_forward, gru_backward, gru_forward,
                                pool_backward, softmax)
from fdia_lab.nn.network import HEAD_SLICE, INFER_BLOCK, cross_entropy

TINY = NetworkConfig(input_dim=3, window_len=4, hidden=4, conv1_kernels=2,
                     conv1_size=2, conv2_kernels=2, conv2_size=2, pool=2,
                     dropout=0.0)


def zero_gru(input_dim=2, hidden=3):
    return GruParams(
        w_xr=np.zeros((input_dim, hidden)), w_hr=np.zeros((hidden, hidden)),
        w_xz=np.zeros((input_dim, hidden)), w_hz=np.zeros((hidden, hidden)),
        w_xh=np.zeros((input_dim, hidden)), w_hh=np.zeros((hidden, hidden)),
        b_r=np.zeros(hidden), b_z=np.zeros(hidden), b_h=np.zeros(hidden))


def random_gru(rng, input_dim=2, hidden=2):
    def w(shape):
        return rng.normal(0.0, 0.6, size=shape)
    return GruParams(
        w_xr=w((input_dim, hidden)), w_hr=w((hidden, hidden)),
        w_xz=w((input_dim, hidden)), w_hz=w((hidden, hidden)),
        w_xh=w((input_dim, hidden)), w_hh=w((hidden, hidden)),
        b_r=w(hidden), b_z=w(hidden), b_h=w(hidden))


def batch_last(a):
    """(B, h, w, C) <-> (C, h, w, B): a channels-last map as the layers'
    batch-last one, and back (the swap is its own inverse)."""
    return a.transpose(3, 1, 2, 0)


def sequences(states):
    """The GRU's (1, L, H, B) state map as (B, L, H) sequences."""
    return states[0].transpose(2, 0, 1)


# --- GRU cell -----------------------------------------------------------------

def gru_sequences(x, p):
    """``gru_forward``'s states on (B, L, D) windows from the zero state, as
    (B, L, H) sequences, checked against ``ref_gru_forward``'s."""
    seq = sequences(gru_forward(x, p)[0])
    np.testing.assert_allclose(seq, ref_gru_forward(x, p, np.zeros((len(x), p.hidden)))[0],
                               atol=1e-12)
    return seq


def test_gru_cell_zero_parameters_halve_state(rng):
    # zero weights make r = z = 1/2 and the candidate tanh(b_h) whatever the
    # input, so each tick halves the state's distance to tanh(b_h)
    p = zero_gru()
    p.b_h[:] = [0.4, -0.8, 1.0]
    want = (1.0 - 0.5 ** np.arange(1, 6))[:, None] * np.tanh(p.b_h)
    for seq in gru_sequences(rng.normal(size=(2, 5, 2)), p):
        np.testing.assert_allclose(seq, want, atol=1e-15)


def test_gru_cell_saturated_update_gate_copies_state(rng):
    # feature 0 drives the update gate: at -50 (z ~ 0) tick 0 takes the
    # candidate, at +50 (z ~ 1) every later tick copies the state before it
    p = zero_gru()
    p.w_xz[0] = 1.0
    p.w_xh[1] = [0.5, -1.0, 2.0]
    x = rng.normal(size=(3, 6, 2))
    x[:, 0, 0], x[:, 1:, 0] = -50.0, 50.0
    seq = gru_sequences(x, p)
    np.testing.assert_allclose(seq[:, 0], np.tanh(x[:, 0, 1:] * p.w_xh[1]), atol=1e-12)
    for t in range(1, 6):
        np.testing.assert_allclose(seq[:, t], seq[:, 0], atol=1e-12)


def test_gru_cell_matches_transcription_oracle(rng):
    # each tick is one transcribed cell step from the state before it
    p = random_gru(rng)
    x = rng.normal(size=(4, 3, 2))
    seq = gru_sequences(x, p)

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    for t in range(3):
        x_t, h_prev = x[:, t], seq[:, t - 1] if t else np.zeros((4, 2))
        r = sigmoid(x_t @ p.w_xr + h_prev @ p.w_hr + p.b_r)
        z = sigmoid(x_t @ p.w_xz + h_prev @ p.w_hz + p.b_z)
        cand = np.tanh(x_t @ p.w_xh + (r * h_prev) @ p.w_hh + p.b_h)
        np.testing.assert_allclose(seq[:, t], z * h_prev + (1.0 - z) * cand, atol=1e-12)


def test_gru_gate_ranges(rng):
    # R, Z in (0,1) make each state a convex combination of the one before
    # and a tanh candidate, so from the zero state every state lies in [-1, 1]
    p = random_gru(rng, input_dim=3, hidden=4)
    seq = gru_sequences(rng.normal(0.0, 3.0, size=(50, 6, 3)), p)
    assert np.all(np.abs(seq) <= 1.0)


def test_gru_sequence_single_step_equals_cell(rng):
    p = random_gru(rng, input_dim=3, hidden=4)
    x = rng.normal(size=(5, 1, 3))
    np.testing.assert_allclose(gru_sequences(x, p), ref_gru_forward(x, p, np.zeros((5, 4)))[0],
                               atol=1e-15)


def test_gru_sequence_zero_everything_stays_zero():
    p = zero_gru(input_dim=2, hidden=3)
    seq = sequences(gru_forward(np.zeros((1, 5, 2)), p)[0])
    np.testing.assert_array_equal(seq, np.zeros((1, 5, 3)))


def test_gru_sequence_matches_unrolled_cells(rng):
    # the state after tick t depends on ticks 0..t only: each window's first
    # t ticks give its first t states
    p = random_gru(rng, input_dim=2, hidden=3)
    x = rng.normal(size=(2, 5, 2))
    seq = gru_sequences(x, p)
    for t in range(1, 5):
        np.testing.assert_array_equal(gru_sequences(x[:, :t], p), seq[:, :t])


# --- conv / pool / softmax ----------------------------------------------------

# a convolution returns its pre-activation; the pooling after it applies the
# ReLU, so a window-1 pool is the ReLU alone

def test_conv_identity_kernel():
    layer = ConvLayer(kernels=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
    x = np.arange(-4.0, 5.0).reshape(1, 3, 3, 1)
    pre = conv_forward(batch_last(x), layer)[0]
    np.testing.assert_array_equal(batch_last(pre), x)
    np.testing.assert_array_equal(batch_last(pool_forward(pre, 1)[0]), np.maximum(x, 0.0))


def test_conv_zero_input_gives_relu_bias():
    layer = ConvLayer(kernels=np.ones((2, 2, 2, 1)), bias=np.array([1.5, -2.0]))
    pre = conv_forward(batch_last(np.zeros((1, 4, 4, 1))), layer)[0]
    np.testing.assert_array_equal(batch_last(pre)[0, :, :, 0], np.full((3, 3), 1.5))
    np.testing.assert_array_equal(batch_last(pre)[0, :, :, 1], np.full((3, 3), -2.0))
    out = batch_last(pool_forward(pre, 1)[0])
    np.testing.assert_array_equal(out[0, :, :, 0], np.full((3, 3), 1.5))
    np.testing.assert_array_equal(out[0, :, :, 1], np.zeros((3, 3)))


def test_conv_hand_case():
    # input rows (1,2,3 / 4,5,6 / 7,8,9), kernel (1,0 / 0,1) -> (6,8 / 12,14)
    x = np.arange(1.0, 10.0).reshape(1, 3, 3, 1)
    layer = ConvLayer(kernels=np.array([[[[1.0]], [[0.0]]],
                                        [[[0.0]], [[1.0]]]])[None, :, :, :, 0],
                      bias=np.zeros(1))
    assert layer.kernels.shape == (1, 2, 2, 1)
    out = batch_last(conv_forward(batch_last(x), layer)[0])
    np.testing.assert_array_equal(out[0, :, :, 0], [[6.0, 8.0], [12.0, 14.0]])


def test_pool_constant_map():
    x = np.full((1, 4, 4, 1), 2.5)
    out = batch_last(pool_forward(batch_last(x), 2)[0])
    np.testing.assert_array_equal(out, np.full((1, 2, 2, 1), 2.5))


def test_pool_hand_case():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out = batch_last(pool_forward(batch_last(x), 2)[0])
    assert out[0, 0, 0, 0] == 4.0


def test_pool_invariant_to_window_permutation(rng):
    x = rng.normal(size=(1, 2, 2, 1))
    out = batch_last(pool_forward(batch_last(x), 2)[0])
    shuffled = x.reshape(4)[rng.permutation(4)].reshape(1, 2, 2, 1)
    out2 = batch_last(pool_forward(batch_last(shuffled), 2)[0])
    assert out[0, 0, 0, 0] == out2[0, 0, 0, 0]


def test_pool_pads_odd_dims():
    x = np.arange(9.0).reshape(1, 3, 3, 1)
    out = batch_last(pool_forward(batch_last(x), 2)[0])
    assert out.shape == (1, 2, 2, 1)
    np.testing.assert_array_equal(out[0, :, :, 0], [[4.0, 5.0], [7.0, 8.0]])


def dense_head(features, dense):
    """The network's head: softmax of the dense layer's logits."""
    return softmax(np.asarray(features, dtype=float) @ dense.weights + dense.bias)


def test_dense_softmax_uniform_on_zero_logits():
    dense = DenseLayer(weights=np.zeros((3, 2)), bias=np.zeros(2))
    np.testing.assert_allclose(dense_head(np.ones(3), dense), [0.5, 0.5])


def test_dense_softmax_hand_case():
    # logits (1, 2) -> (0.26894, 0.73106)
    dense = DenseLayer(weights=np.eye(2), bias=np.zeros(2))
    probs = dense_head(np.array([1.0, 2.0]), dense)
    np.testing.assert_allclose(probs, [0.2689414213699951, 0.7310585786300049],
                               atol=1e-12)


def test_dense_softmax_shift_invariance(rng):
    dense = DenseLayer(weights=np.eye(2), bias=np.zeros(2))
    logits = rng.normal(size=2)
    shifted = dense_head(logits + 17.0, DenseLayer(weights=np.eye(2),
                                                   bias=np.zeros(2)))
    np.testing.assert_allclose(dense_head(logits, dense), shifted, atol=1e-12)


# --- forward / dropout ---------------------------------------------------------

def test_forward_inference_deterministic(rng):
    net = init_network(TINY, seed=1)
    windows = rng.normal(size=(2, 4, 3))
    a, _ = forward(net, windows)
    b, _ = forward(net, windows)
    np.testing.assert_array_equal(a, b)


def test_forward_probabilities_sum_to_one(rng):
    net = init_network(TINY, seed=2)
    probs, _ = forward(net, rng.normal(size=(5, 4, 3)))
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(probs > 0.0)


def test_forward_dropout_zero_matches_inference(rng):
    net = init_network(TINY, seed=3)
    windows = rng.normal(size=(2, 4, 3))
    infer, _ = forward(net, windows)
    trained, _ = forward(net, windows, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(infer, trained)


def test_dropout_expectation_matches_identity():
    x = np.array([1.0, -2.0, 0.5, 3.0])
    rng = np.random.default_rng(2)
    acc = np.zeros_like(x)
    n_masks = 10_000
    for _ in range(n_masks):
        dropped, _ = dropout_forward(x, 0.5, rng)
        acc += dropped
    np.testing.assert_allclose(acc / n_masks, x, rtol=0.02)


# --- gradients ------------------------------------------------------------------

def test_gradients_match_finite_differences(rng):
    net = init_network(TINY, seed=5)
    windows = rng.normal(size=(3, 4, 3))
    labels = np.array([0, 1, 0])
    _, grads = gradients(net, windows, labels)
    params = parameters(net)
    h = 1e-5
    for name, arr in params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = cross_entropy(forward(net, windows)[0], labels)
            flat[idx] = orig - h
            lm = cross_entropy(forward(net, windows)[0], labels)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            rel = abs(g[idx] - numeric) / max(abs(g[idx]), abs(numeric), 1e-6)
            assert rel <= 1e-4, f"{name}[{idx}]: analytic {g[idx]}, numeric {numeric}"


def test_gradients_near_zero_at_saturated_fit(rng):
    net = init_network(TINY, seed=6)
    # drive the dense logits so every sample is classified with certainty
    net.dense.bias[:] = (300.0, -300.0)
    windows = rng.normal(size=(4, 4, 3))
    labels = np.zeros(4, dtype=int)
    loss, grads = gradients(net, windows, labels)
    assert loss <= 1e-12
    total = sum(float(np.abs(g).sum()) for g in grads.values())
    assert total <= 1e-6


def test_gradients_linear_in_duplicated_samples(rng):
    net = init_network(TINY, seed=7)
    w = rng.normal(size=(1, 4, 3))
    labels = np.array([1])
    _, single = gradients(net, w, labels)
    _, doubled = gradients(net, np.concatenate([w, w]), np.array([1, 1]))
    for name in single:
        np.testing.assert_allclose(doubled[name], single[name], atol=1e-12)


# --- adam -----------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    params = np.array([1.0, -2.0])
    grads = np.zeros(2)
    state = AdamState()
    adam_step(params, grads, state, TrainConfig())
    np.testing.assert_array_equal(params, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr_signed():
    cfg = TrainConfig(lr=0.01)
    params = np.array([0.0, 0.0])
    grads = np.array([0.3, -0.7])
    adam_step(params, grads, AdamState(), cfg)
    # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
    np.testing.assert_allclose(params, [-0.01, 0.01], rtol=1e-6)


def test_adam_deterministic():
    def run():
        params = np.array([0.5, -0.5])
        state = AdamState()
        cfg = TrainConfig(lr=0.05)
        for i in range(10):
            grads = np.array([np.sin(i), np.cos(i)])
            adam_step(params, grads, state, cfg)
        return params
    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_mismatched_gradient():
    with pytest.raises(DimensionError):
        adam_step(np.zeros(3), np.zeros(2), AdamState(), TrainConfig())


def ref_adam_step(params, grads, state, cfg):
    """The per-array update: one bias-corrected pass per named array."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        p -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def test_flat_adam_bit_identical_to_per_array_loop(rng):
    cfg = TrainConfig(lr=0.01)
    net = init_network(TINY, seed=14)
    ref = {name: arr.copy() for name, arr in parameters(net).items()}
    ref_state = {"m": {}, "v": {}, "step": 0}
    state = AdamState()
    for _ in range(20):
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), size=arr.shape)
                 for name, arr in ref.items()}
        ref_adam_step(ref, grads, ref_state, cfg)
        adam_step(net.flat, np.concatenate([grads[name] for name in ref], axis=None),
                  state, cfg)
    assert state.step == 20
    for name, arr in parameters(net).items():
        np.testing.assert_array_equal(arr, ref[name], err_msg=name)
    np.testing.assert_array_equal(state.m, np.concatenate(list(ref_state["m"].values()),
                                                          axis=None))
    np.testing.assert_array_equal(state.v, np.concatenate(list(ref_state["v"].values()),
                                                          axis=None))


# --- flat parameter store ------------------------------------------------------------

def ref_init_parameters(cfg, seed):
    """The per-array initialization: one Glorot draw per weight array, in
    the order GRU, conv1, conv2, dense, with zero biases."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-r, r, size=shape)

    d, hd = cfg.input_dim, cfg.hidden
    params = {
        "gru.w_xr": glorot((d, hd), d, hd), "gru.w_hr": glorot((hd, hd), hd, hd),
        "gru.w_xz": glorot((d, hd), d, hd), "gru.w_hz": glorot((hd, hd), hd, hd),
        "gru.w_xh": glorot((d, hd), d, hd), "gru.w_hh": glorot((hd, hd), hd, hd),
        "gru.b_r": np.zeros(hd), "gru.b_z": np.zeros(hd), "gru.b_h": np.zeros(hd),
    }
    for layer, count, size, cin in (("conv1", cfg.conv1_kernels, cfg.conv1_size, 1),
                                     ("conv2", cfg.conv2_kernels, cfg.conv2_size,
                                      cfg.conv1_kernels)):
        params[f"{layer}.kernels"] = glorot((count, size, size, cin),
                                            size * size * cin, size * size * count)
        params[f"{layer}.bias"] = np.zeros(count)
    features = cfg.feature_count()
    params["dense.weights"] = glorot((features, 2), features, 2)
    params["dense.bias"] = np.zeros(2)
    return params


DEMO_SHAPED = NetworkConfig(input_dim=1, window_len=16, hidden=16, conv1_kernels=4,
                            conv1_size=3, conv2_kernels=8, conv2_size=3, pool=2,
                            dropout=0.5)


@pytest.mark.parametrize("cfg,seed", [(TINY, 0), (TINY, 21), (DEMO_SHAPED, 7)])
def test_init_network_matches_per_array_draws(cfg, seed):
    net = init_network(cfg, seed=seed)
    params = parameters(net)
    ref = ref_init_parameters(cfg, seed)
    assert list(params) == list(ref)
    for name, want in ref.items():
        assert params[name].shape == want.shape
        np.testing.assert_array_equal(params[name], want, err_msg=name)


def test_parameters_are_views_of_one_flat_vector():
    net = init_network(DEMO_SHAPED, seed=3)
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    params = parameters(net)
    assert sum(arr.size for arr in params.values()) == net.flat.size == 1346
    offset = 0
    for name, arr in params.items():
        assert arr.flags.c_contiguous, name
        assert np.shares_memory(arr, net.flat), name
        # laid out in parameters() order
        np.testing.assert_array_equal(net.flat[offset:offset + arr.size], arr.ravel())
        offset += arr.size


def test_ravel_perturbation_reaches_forward_and_flat(rng):
    net = init_network(TINY, seed=15)
    windows = rng.normal(size=(2, 4, 3))
    before = forward(net, windows)[0]
    for name, arr in parameters(net).items():
        flat = arr.ravel()
        assert np.shares_memory(flat, net.flat), name
        flat[0] += 0.5
    assert not np.array_equal(forward(net, windows)[0], before)
    np.testing.assert_array_equal(
        net.flat, np.concatenate(list(parameters(net).values()), axis=None))


def test_checkpoint_roundtrip_refills_flat_vector(tmp_path):
    net = init_network(TINY, seed=16)
    net.flat += np.linspace(-1.0, 1.0, net.flat.size)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(net, path, Standardizer(means=np.zeros(3), stds=np.ones(3)))
    back, _ = load_checkpoint(path)
    np.testing.assert_array_equal(back.flat, net.flat)
    for name, arr in parameters(back).items():
        assert np.shares_memory(arr, back.flat), name


# --- training -------------------------------------------------------------------

def separable_windows(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    windows = rng.normal(0.0, 0.3, size=(n, 4, 3))
    windows[labels == 1] += 1.5
    return windows, labels


def test_training_loss_decreases_on_separable_data():
    for seed in (0, 1, 2):
        windows, labels = separable_windows(200, seed)
        cfg = TrainConfig(epochs=5, batch=16, seed=seed)
        _, history = train(windows, labels, TINY, cfg)
        losses = [h[1] for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_training_zero_epochs_returns_initial_net():
    windows, labels = separable_windows(50, 3)
    cfg = TrainConfig(epochs=0, seed=9)
    net, history = train(windows, labels, TINY, cfg)
    assert history == []
    # identical to a fresh initialization from the same derived seed
    seq = np.random.SeedSequence(9)
    init_seed = int(seq.spawn(3)[0].generate_state(1)[0])
    fresh = init_network(TINY, seed=init_seed)
    for name, arr in parameters(net).items():
        np.testing.assert_array_equal(arr, parameters(fresh)[name])


def test_training_history_keeps_last_validation_probabilities():
    windows, labels = separable_windows(100, 5)
    val_windows, val_labels = separable_windows(40, 6)
    cfg = TrainConfig(epochs=2, batch=16, seed=12)
    net, history = train(windows, labels, TINY, cfg, val_windows=val_windows,
                         val_labels=val_labels)
    np.testing.assert_array_equal(history.val_probs, predict_proba(net, val_windows))
    assert history[-1][2] == cross_entropy(history.val_probs, val_labels)
    assert train(windows, labels, TINY, cfg)[1].val_probs is None
    no_epochs = TrainConfig(epochs=0, seed=12)
    assert train(windows, labels, TINY, no_epochs, val_windows=val_windows,
                 val_labels=val_labels)[1].val_probs is None


def test_training_deterministic_history():
    windows, labels = separable_windows(120, 4)
    cfg = TrainConfig(epochs=3, batch=16, seed=11)
    _, h1 = train(windows, labels, TINY, cfg)
    _, h2 = train(windows, labels, TINY, cfg)
    # val_loss is NaN without a validation set; compare NaN-aware
    np.testing.assert_array_equal(np.array(h1), np.array(h2))


# --- predict / checkpoint --------------------------------------------------------

def test_predict_argmax_and_tie_rule(rng):
    net = init_network(TINY, seed=8)
    window = rng.normal(size=(4, 3))
    # force certain probabilities through the dense bias
    net.dense.weights[:] = 0.0
    net.dense.bias[:] = (2.0, 0.0)

    def attack_flag():
        # the rule detect applies: attack iff p_attack > p_benign
        probs = predict_proba(net, window[None])[0]
        return bool(probs[1] > probs[0])

    assert attack_flag() is False
    net.dense.bias[:] = (0.0, 2.0)
    assert attack_flag() is True
    net.dense.bias[:] = (0.0, 0.0)   # exact tie goes to the benign class
    assert attack_flag() is False


def test_checkpoint_roundtrip(tmp_path, rng):
    net = init_network(TINY, seed=10)
    std = Standardizer(means=np.array([1.0, 2.0, 3.0]),
                       stds=np.array([0.5, 1.0, 2.0]))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(net, path, standardizer=std)
    back, back_std = load_checkpoint(path)
    assert back.config == net.config
    for name, arr in parameters(net).items():
        np.testing.assert_array_equal(parameters(back)[name], arr)
    np.testing.assert_array_equal(back_std.means, std.means)
    np.testing.assert_array_equal(back_std.stds, std.stds)
    windows = rng.normal(size=(2, 4, 3))
    np.testing.assert_array_equal(forward(net, windows)[0],
                                  forward(back, windows)[0])


def test_checkpoint_without_standardizer_is_data_error(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(TINY, seed=10), path,
                    Standardizer(means=np.zeros(3), stds=np.ones(3)))
    obj = json.loads(path.read_text())
    del obj["standardizer"]
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=f"{path}: checkpoint lacks the standardizer"):
        load_checkpoint(path)


def _without_w_xr(obj):
    del obj["params"]["gru.w_xr"]


@pytest.mark.parametrize("edit,problem", [
    (lambda obj: obj.update(standardizer={}), "checkpoint lacks the standardizer means"),
    (lambda obj: obj["standardizer"].update(means=[0.0, 1.0]),
     "checkpoint standardizer means has shape (2,), expected (3,)"),
    (lambda obj: obj["standardizer"].update(stds=[1.0] * 4),
     "checkpoint standardizer stds has shape (4,), expected (3,)"),
    (lambda obj: obj["standardizer"].update(stds=[1.0, -1.0, 1.0]),
     "checkpoint standardizer stds has negative entries"),
    (lambda obj: obj["config"].update(hidden="x"),
     "checkpoint config key 'config.hidden' has an invalid value 'x'"),
    (lambda obj: obj["config"].pop("hidden"), "missing config key 'config.hidden'"),
    (lambda obj: obj["config"].update(stride=1), "unknown config key 'config.stride'"),
    (lambda obj: obj["config"].update(hidden=0), "config key 'config.hidden' must be at least 1"),
    (lambda obj: obj["config"].update(dropout=1.0),
     "config key 'config.dropout' must lie in [0, 1)"),
    (_without_w_xr, "checkpoint lacks the parameter 'gru.w_xr'"),
    (lambda obj: obj["params"].update({"gru.w_xq": [[0.0]]}),
     "unknown parameter 'gru.w_xq' in checkpoint"),
    (lambda obj: obj["params"].update({"gru.b_r": "abc"}),
     "checkpoint parameter 'gru.b_r' is not an array of numbers"),
    (lambda obj: obj["params"]["dense.bias"].__setitem__(0, None),
     "checkpoint parameter 'dense.bias' has non-finite entries"),
    (lambda obj: obj.update(params=[]), "checkpoint entry 'params' must be a JSON object"),
    (lambda obj: obj.update(version=True), "unsupported checkpoint version True"),
    (lambda obj: obj.update(version=1.0), "unsupported checkpoint version 1.0"),
    (lambda obj: obj.update(version=2), "unsupported checkpoint version 2"),
], ids=["empty-standardizer", "short-means", "long-stds", "negative-std",
        "non-numeric-hidden", "absent-hidden", "unknown-config-key", "zero-hidden",
        "dropout-of-one",
        "absent-parameter", "unknown-parameter", "non-numeric-parameter", "null-weight",
        "params-not-an-object", "version-true", "version-float-one", "version-two"])
def test_malformed_checkpoint_entry_is_data_error(tmp_path, edit, problem):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(TINY, seed=10), path,
                    Standardizer(means=np.zeros(3), stds=np.ones(3)))
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ") and problem in str(info.value)


def test_network_config_applies_its_rules():
    with pytest.raises(ConfigError, match="network pool must be at least 1: 0"):
        NetworkConfig(input_dim=1, pool=0)
    with pytest.raises(ConfigError, match=r"network dropout must lie in \[0, 1\): 1.0"):
        NetworkConfig(input_dim=1, dropout=1.0)


def test_checkpoint_that_is_not_json_is_data_error(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"format": "gru-cnn-checkpoint", ')
    with pytest.raises(DataError, match=f"{path} is not valid JSON"):
        load_checkpoint(path)


# --- whole-batch kernels against per-step / einsum / argmax references ------------
#
# The references below are the straightforward formulation of each layer:
# an einsum over sliding windows for the convolution, argmax over -inf padded
# tiles for the pooling, and one cell step at a time, with a masked
# logistic function, for the GRU. The kernels sum in another order and the
# GRU gates use the tanh form of the logistic function, so they agree
# within 1e-12, not bit for bit; pooling only selects and is compared
# exactly.

TOL = dict(rtol=1e-12, atol=1e-12)


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_conv_forward(x, layer):
    patches = sliding_window_view(x, layer.kernels.shape[1:3], axis=(1, 2))
    pre = np.einsum("bijcmn,omnc->bijo", patches, layer.kernels) + layer.bias
    return np.maximum(pre, 0.0), (patches, pre)


def ref_conv_backward(dout, cache, layer):
    patches, pre = cache
    _, kh, kw, _ = layer.kernels.shape
    dpre = dout * (pre > 0.0)
    dkernels = np.einsum("bijo,bijcmn->omnc", dpre, patches)
    dpre_pad = np.pad(dpre, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    windows = sliding_window_view(dpre_pad, (kh, kw), axis=(1, 2))
    flipped = layer.kernels[:, ::-1, ::-1, :]
    dx = np.einsum("bpqomn,omnc->bpqc", windows, flipped)
    return dx, dkernels, dpre.sum(axis=(0, 1, 2))


def ref_pool_forward(x, window):
    b, h, w, ch = x.shape
    padded = np.pad(x, ((0, 0), (0, (-h) % window), (0, (-w) % window), (0, 0)),
                    constant_values=-np.inf)
    oh, ow = padded.shape[1] // window, padded.shape[2] // window
    tiles = (padded.reshape(b, oh, window, ow, window, ch)
             .transpose(0, 1, 3, 2, 4, 5).reshape(b, oh, ow, window * window, ch))
    idx = np.argmax(tiles, axis=3)
    out = np.take_along_axis(tiles, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, (x.shape, window, idx)


def ref_pool_backward(dout, cache):
    (b, h, w, ch), window, idx = cache
    oh, ow = dout.shape[1], dout.shape[2]
    dtiles = np.zeros((b, oh, ow, window * window, ch))
    np.put_along_axis(dtiles, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dpadded = (dtiles.reshape(b, oh, ow, window, window, ch)
               .transpose(0, 1, 3, 2, 4, 5).reshape(b, oh * window, ow * window, ch))
    return dpadded[:, :h, :w, :]


def ref_gru_forward(x, p, h0):
    h = h0
    seq, caches = [], []
    for t in range(x.shape[1]):
        x_t, h_prev = x[:, t], h
        r = ref_sigmoid(x_t @ p.w_xr + h_prev @ p.w_hr + p.b_r)
        z = ref_sigmoid(x_t @ p.w_xz + h_prev @ p.w_hz + p.b_z)
        rh = r * h_prev
        cand = np.tanh(x_t @ p.w_xh + rh @ p.w_hh + p.b_h)
        h = z * h_prev + (1.0 - z) * cand
        seq.append(h)
        caches.append((x_t, h_prev, r, z, cand, rh))
    return np.stack(seq, axis=1), caches


def ref_gru_backward(dseq, caches, p):
    grads = {name: np.zeros_like(getattr(p, name)) for name in
             ("w_xr", "w_hr", "w_xz", "w_hz", "w_xh", "w_hh", "b_r", "b_z", "b_h")}
    dh_next = np.zeros_like(dseq[:, 0])
    for t in range(dseq.shape[1] - 1, -1, -1):
        x_t, h_prev, r, z, cand, rh = caches[t]
        dh = dseq[:, t] + dh_next
        dpre_c = dh * (1.0 - z) * (1.0 - cand * cand)
        grads["w_xh"] += x_t.T @ dpre_c
        grads["w_hh"] += rh.T @ dpre_c
        grads["b_h"] += dpre_c.sum(axis=0)
        drh = dpre_c @ p.w_hh.T
        dpre_z = dh * (h_prev - cand) * z * (1.0 - z)
        grads["w_xz"] += x_t.T @ dpre_z
        grads["w_hz"] += h_prev.T @ dpre_z
        grads["b_z"] += dpre_z.sum(axis=0)
        dpre_r = drh * h_prev * r * (1.0 - r)
        grads["w_xr"] += x_t.T @ dpre_r
        grads["w_hr"] += h_prev.T @ dpre_r
        grads["b_r"] += dpre_r.sum(axis=0)
        dh_next = (dh * z + drh * r + dpre_z @ p.w_hz.T + dpre_r @ p.w_hr.T)
    return grads


@pytest.mark.parametrize("shape,kernel", [((3, 7, 9, 2), (4, 3, 2)),
                                          ((2, 5, 5, 1), (3, 3, 3)),
                                          ((4, 16, 16, 1), (4, 3, 3)),
                                          ((2, 7, 6, 4), (8, 3, 3))])
def test_conv_matches_einsum_reference(rng, shape, kernel):
    count, kh, kw = kernel
    layer = ConvLayer(kernels=rng.normal(size=(count, kh, kw, shape[3])),
                      bias=rng.normal(size=count))
    x = rng.normal(size=shape)
    pre, cache = conv_forward(batch_last(x), layer)
    ref_out, ref_cache = ref_conv_forward(x, layer)
    ref_pre = ref_cache[1]
    np.testing.assert_allclose(batch_last(pre), ref_pre, **TOL)
    # conv_backward takes the pre-activation gradient, the reference the output's
    dout = rng.normal(size=ref_out.shape)
    dx, dkernels, dbias = conv_backward(batch_last(dout * (ref_pre > 0.0)), cache, layer)
    for got, want in zip((batch_last(dx), dkernels, dbias),
                         ref_conv_backward(dout, ref_cache, layer)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, **TOL)


@pytest.mark.parametrize("shape", [(2, 6, 8, 3), (3, 7, 9, 2), (1, 5, 4, 1), (2, 1, 3, 2)])
@pytest.mark.parametrize("window", [2, 3])
def test_pool_matches_argmax_reference_with_ties(rng, shape, window):
    # small integers make tied maxima common; the first in row-major order wins
    x = rng.integers(-2, 2, size=shape).astype(float)
    dout = rng.normal(size=ref_pool_forward(x, window)[0].shape)
    assert_pools_as_relu_of_reference(x, window, dout)


def assert_pools_as_relu_of_reference(x, window, dout):
    """pool_forward is relu(ref_pool_forward), and pool_backward the reference
    backward of the gradient through that ReLU, both bit for bit."""
    out, cache = pool_forward(batch_last(x), window)
    ref_out, ref_cache = ref_pool_forward(x, window)
    np.testing.assert_array_equal(batch_last(out), np.maximum(ref_out, 0.0))
    np.testing.assert_array_equal(
        batch_last(pool_forward(batch_last(x), window, cache=False)[0]),
        np.maximum(ref_out, 0.0))
    np.testing.assert_array_equal(batch_last(pool_backward(batch_last(dout), cache)),
                                  ref_pool_backward(dout * (ref_out > 0.0), ref_cache))


def test_pool_all_negative_infinity_tile():
    x = np.full((1, 3, 3, 1), -np.inf)
    x[0, 0, 0, 0] = 1.0
    assert_pools_as_relu_of_reference(x, 2, np.arange(1.0, 5.0).reshape(1, 2, 2, 1))


@pytest.mark.parametrize("window", [2, 3])
def test_pool_zero_padding_matches_negative_infinity_padding(rng, window):
    # the ragged last row and column are zero-padded, the reference pads -inf;
    # every cell of map 0 is negative, so the pad is the maximum of each edge
    # tile before the ReLU; the ragged cells of map 1 are 0, tied with the
    # pad; map 2 mixes signs
    size = 2 * window + 1
    x = rng.normal(size=(3, size, size, 2))
    x[0] = -np.abs(x[0]) - 0.5
    x[1, -1], x[1, :, -1] = 0.0, 0.0
    dout = rng.normal(size=(3, 3, 3, 2))
    assert_pools_as_relu_of_reference(x, window, dout)
    out, cache = pool_forward(batch_last(x), window)
    assert out.shape == (2, 3, 3, 3)
    dx = batch_last(pool_backward(batch_last(dout), cache))
    assert dx.shape == x.shape
    assert not dx[0].any() and not batch_last(out)[0].any()


@pytest.mark.parametrize("input_dim,hidden,batch,length", [(1, 16, 32, 16), (3, 5, 4, 7)])
def test_gru_matches_per_step_reference(rng, input_dim, hidden, batch, length):
    p = random_gru(rng, input_dim=input_dim, hidden=hidden)
    x = rng.normal(size=(batch, length, input_dim))
    states, cache = gru_forward(x, p)
    uncached, none = gru_forward(x, p, cache=False)
    assert none is None
    np.testing.assert_array_equal(uncached, states)
    ref_seq, ref_cache = ref_gru_forward(x, p, np.zeros((batch, hidden)))
    np.testing.assert_allclose(sequences(states), ref_seq, **TOL)
    dseq = rng.normal(size=ref_seq.shape)
    grads = gru_backward(dseq.transpose(1, 2, 0), cache, p)
    ref_grads = ref_gru_backward(dseq, ref_cache, p)
    assert grads.keys() == ref_grads.keys()
    for name, want in ref_grads.items():
        assert grads[name].shape == want.shape
        np.testing.assert_allclose(grads[name], want, **TOL, err_msg=name)


@pytest.mark.parametrize("with_inf", [False, True])
def test_gru_matches_per_step_reference_with_saturated_gates(rng, with_inf):
    # inputs up to |x| = 800 (and +-inf) drive the gate pre-activations far
    # past the range where the logistic function rounds to 0 or 1
    p = random_gru(rng, input_dim=1, hidden=5)
    x = rng.normal(0.0, 300.0, size=(6, 9, 1))
    x[0, :4, 0] = [800.0, -800.0, 0.0, -0.0]
    if with_inf:
        x[1, 2, 0], x[2, 5, 0] = np.inf, -np.inf
    states, cache = gru_forward(x, p)
    ref_seq, ref_cache = ref_gru_forward(x, p, np.zeros((6, 5)))
    assert np.isfinite(states).all()
    np.testing.assert_allclose(sequences(states), ref_seq, **TOL)
    dseq = rng.normal(size=ref_seq.shape)
    # an infinite input times a zero gate gradient makes the input-weight
    # gradients NaN in both; every other gradient stays finite
    with np.errstate(invalid="ignore"):
        grads = gru_backward(dseq.transpose(1, 2, 0), cache, p)
        ref_grads = ref_gru_backward(dseq, ref_cache, p)
    names = [n for n in ref_grads if not (with_inf and n.startswith("w_x"))]
    for name in names:
        assert np.isfinite(grads[name]).all(), name
        np.testing.assert_allclose(grads[name], ref_grads[name], **TOL, err_msg=name)


def test_predict_proba_chunks_match_per_chunk_forward(rng):
    net = init_network(TINY, seed=12)
    windows = rng.normal(size=(2 * INFER_BLOCK + 1, 4, 3))
    probs = predict_proba(net, windows)
    blocks = [forward(net, windows[start:start + INFER_BLOCK], cache=False)[0]
              for start in range(0, len(windows), INFER_BLOCK)]
    assert [len(b) for b in blocks] == [INFER_BLOCK, INFER_BLOCK, 1]
    assert np.array_equal(probs, np.concatenate(blocks))
    np.testing.assert_allclose(probs, forward(net, windows)[0], **TOL)


def test_predict_proba_of_no_windows_is_empty():
    probs = predict_proba(init_network(TINY, seed=12), np.empty((0, 4, 3)))
    assert probs.shape == (0, 2)


def test_predict_proba_peak_memory_is_one_chunk(rng):
    # the demo network's shape on C-contiguous windows; 896-window blocks peak
    # at about 7.8 MiB, 5.3 MiB of it the GRU's input projections of every
    # (tick, window) pair, and one pass over both blocks would need twice that
    cfg = NetworkConfig(input_dim=1, window_len=16, hidden=16, conv1_kernels=4,
                        conv2_kernels=8)
    net = init_network(cfg, seed=5)
    windows = rng.normal(size=(2 * INFER_BLOCK, 16, 1))
    tracemalloc.start()
    try:
        predict_proba(net, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


# --- overlapping windows: data_pipeline.window's sliding view -------------------
#
# gru_forward projects each distinct row of such a view once; a C-contiguous
# copy of the same windows takes the per-(tick, window) product (unless each
# window is one tick, when its strides are equal too), and the two must agree
# bit for bit

ONE_TICK = NetworkConfig(input_dim=2, window_len=1, hidden=4, conv1_kernels=2,
                         conv1_size=1, conv2_kernels=2, conv2_size=1, pool=2,
                         dropout=0.0)


def window_view(rng, rows, length, width):
    """data_pipeline.window's sliding view over ``rows`` random rows."""
    view, _ = window(rng.normal(size=(rows, width)), np.zeros(rows, dtype=int), length)
    assert view.strides[0] == view.strides[1]
    return view


@pytest.mark.parametrize("cfg,rows", [
    (DEMO_SHAPED, INFER_BLOCK + HEAD_SLICE + 40),
    (DEMO_SHAPED, 16),
    (TINY, INFER_BLOCK + 9),
    (ONE_TICK, INFER_BLOCK + 5),
], ids=["partial-last-chunk", "one-window", "three-features", "window-len-1"])
def test_predict_proba_on_window_view_equals_copy(rng, cfg, rows):
    view = window_view(rng, rows, cfg.window_len, cfg.input_dim)
    net = init_network(cfg, seed=rows)
    assert np.array_equal(predict_proba(net, view),
                          predict_proba(net, np.ascontiguousarray(view)))


# window counts on each side of a head slice and of a block, and a block plus
# a full and a partial slice
@pytest.mark.parametrize("count", [1, HEAD_SLICE - 1, HEAD_SLICE, HEAD_SLICE + 1,
                                   INFER_BLOCK - 1, INFER_BLOCK, INFER_BLOCK + 1,
                                   INFER_BLOCK + HEAD_SLICE + 24])
def test_predict_proba_blocks_and_slices_match_whole_batch_forward(rng, count):
    view = window_view(rng, count + DEMO_SHAPED.window_len - 1, DEMO_SHAPED.window_len, 1)
    net = init_network(DEMO_SHAPED, seed=count)
    probs = predict_proba(net, view)
    whole = forward(net, view)[0]
    np.testing.assert_allclose(probs, whole, **TOL)
    assert np.array_equal(probs.argmax(axis=1), whole.argmax(axis=1))
    assert np.array_equal(probs, predict_proba(net, np.ascontiguousarray(view)))


@pytest.mark.parametrize("input_dim,length,batch", [(1, 16, 20), (3, 4, 7), (2, 1, 5)])
def test_gru_on_window_view_matches_copy_with_cache(rng, input_dim, length, batch):
    p = random_gru(rng, input_dim=input_dim, hidden=5)
    view = window_view(rng, batch + length - 1, length, input_dim)
    states, caches = gru_forward(view, p)
    want_states, want_caches = gru_forward(np.ascontiguousarray(view), p)
    assert np.array_equal(states, want_states)
    assert len(caches) == len(want_caches)
    for got, want in zip(caches, want_caches):
        assert np.array_equal(got, want)
    dseq = rng.normal(size=states[0].shape)
    grads, want_grads = gru_backward(dseq, caches, p), gru_backward(dseq, want_caches, p)
    for name, want in want_grads.items():
        assert np.array_equal(grads[name], want), name


def test_forward_without_cache_returns_same_probabilities(rng):
    net = init_network(TINY, seed=13)
    windows = rng.normal(size=(6, 4, 3))
    probs, cache = forward(net, windows, cache=False)
    assert cache is None
    np.testing.assert_array_equal(probs, forward(net, windows)[0])


# --- the network against a channels-last composition of the references ---------

def ref_forward(net, windows, rng=None):
    """``forward`` built from the channels-last reference layers: maps are
    (B, h, w, C) and flatten in (h, w, C) order, as the dense weights expect."""
    cfg = net.config
    seq, gru_cache = ref_gru_forward(windows, net.gru, np.zeros((len(windows), cfg.hidden)))
    c1, c1_cache = ref_conv_forward(seq[:, :, :, None], net.conv1)
    p1, p1_cache = ref_pool_forward(c1, cfg.pool)
    c2, c2_cache = ref_conv_forward(p1, net.conv2)
    p2, p2_cache = ref_pool_forward(c2, cfg.pool)
    flat = p2.reshape(len(windows), -1)
    mask = np.ones_like(flat)
    if rng is not None and cfg.dropout > 0.0:
        flat, mask = dropout_forward(flat, cfg.dropout, rng)
    probs = softmax(flat @ net.dense.weights + net.dense.bias)
    return probs, (gru_cache, c1_cache, p1_cache, c2_cache, p2_cache, p2.shape, flat, mask)


def ref_gradients(net, windows, labels, rng=None):
    probs, (gru_cache, c1_cache, p1_cache, c2_cache, p2_cache,
            p2_shape, flat, mask) = ref_forward(net, windows, rng)
    dlogits = probs.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads = {"dense.weights": flat.T @ dlogits, "dense.bias": dlogits.sum(axis=0)}
    dp2 = ((dlogits @ net.dense.weights.T) * mask).reshape(p2_shape)
    dp1, grads["conv2.kernels"], grads["conv2.bias"] = ref_conv_backward(
        ref_pool_backward(dp2, p2_cache), c2_cache, net.conv2)
    dmap, grads["conv1.kernels"], grads["conv1.bias"] = ref_conv_backward(
        ref_pool_backward(dp1, p1_cache), c1_cache, net.conv1)
    for name, g in ref_gru_backward(dmap[:, :, :, 0], gru_cache, net.gru).items():
        grads[f"gru.{name}"] = g
    return cross_entropy(probs, labels), grads


# conv1 maps of 9 x 13 leave a ragged last row and column for pool 2 and pool 3,
# and the last maps (2 x 3 or 1 x 2) are not square
ODD_MAPS = dict(input_dim=3, window_len=10, hidden=14, conv1_kernels=3, conv1_size=2,
                conv2_kernels=2, conv2_size=2)


@pytest.mark.parametrize("pool,batch,dropout", [(2, 5, 0.0), (3, 5, 0.0), (2, 1, 0.0),
                                                (3, 1, 0.5), (2, 6, 0.5)])
def test_network_matches_channels_last_reference(rng, pool, batch, dropout):
    net = init_network(NetworkConfig(**ODD_MAPS, pool=pool, dropout=dropout), seed=pool)
    windows = rng.normal(size=(batch, 10, 3))
    labels = rng.integers(0, 2, size=batch)
    np.testing.assert_allclose(forward(net, windows)[0], ref_forward(net, windows)[0], **TOL)
    loss, grads = gradients(net, windows, labels, rng=np.random.default_rng(4))
    ref_loss, ref_grads = ref_gradients(net, windows, labels, rng=np.random.default_rng(4))
    np.testing.assert_allclose(loss, ref_loss, **TOL)
    assert grads.keys() == ref_grads.keys() == parameters(net).keys()
    for name, want in ref_grads.items():
        assert grads[name].shape == want.shape, name
        np.testing.assert_allclose(grads[name], want, **TOL, err_msg=name)


def test_conv1_reads_the_gru_state_cache_in_place(rng, monkeypatch):
    from fdia_lab.nn import network
    fed = []

    def recording_conv(x, layer):
        fed.append(x)
        return conv_forward(x, layer)

    monkeypatch.setattr(network, "conv_forward", recording_conv)
    net = init_network(TINY, seed=17)
    _, cache = forward(net, rng.normal(size=(3, 4, 3)))
    states = cache[0][1]  # the GRU cache's h_0..h_L
    assert fed[0].shape == (1, TINY.window_len, TINY.hidden, 3)
    assert np.shares_memory(fed[0], states)
