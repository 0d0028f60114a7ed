"""Adam optimization and the mini-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, DimensionError, NumericalError
from .network import Network, NetworkConfig, cross_entropy, gradients, \
    init_network, parameters, predict_proba


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 10
    batch: int = 32
    seed: int = 0


@dataclass
class AdamState:
    """First and second moment vectors, shaped like the flat parameter
    vector (allocated on the first step), and the step count."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> AdamState:
    """One bias-corrected Adam update of the flat parameter vector, in place.

    The update is elementwise, so one pass over ``Network.flat`` gives the
    same numbers as one pass per parameter array.
    """
    if grads.shape != params.shape:
        raise DimensionError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grads
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    params -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return state


class History(list):
    """Per-epoch (epoch, train_loss, val_loss) rows. ``val_probs`` keeps the
    class probabilities of the last validation pass, which are those of the
    returned network (None without validation windows or epochs)."""

    val_probs: np.ndarray | None = None


def train(windows: np.ndarray, labels: np.ndarray, net_cfg: NetworkConfig,
          cfg: TrainConfig, val_windows: np.ndarray | None = None,
          val_labels: np.ndarray | None = None) -> tuple[Network, History]:
    """Mini-batch Adam over the given epochs with seeded shuffling; an epoch
    that leaves the loss or a parameter non-finite raises NumericalError.

    Returns the trained network and its ``History``; val_loss is NaN when
    no validation set is given. With epochs = 0 the freshly initialized
    network is returned untouched.
    """
    windows = np.asarray(windows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(windows) == 0:
        raise DataError("training needs a non-empty dataset")
    if len(windows) != len(labels):
        raise DataError("window and label counts differ")

    seq = np.random.SeedSequence(cfg.seed)
    init_seed, shuffle_seed, dropout_seed = [int(s.generate_state(1)[0])
                                             for s in seq.spawn(3)]
    net = init_network(net_cfg, seed=init_seed)
    names = list(parameters(net))
    adam = AdamState()
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    history = History()
    n = len(windows)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        # a diverging step overflows quietly, and the epoch's end catches it
        with np.errstate(all="ignore"):
            for start in range(0, n, cfg.batch):
                batch_idx = order[start:start + cfg.batch]
                loss, grads = gradients(net, windows[batch_idx], labels[batch_idx],
                                        rng=dropout_rng)
                flat_grads = np.concatenate([grads[name] for name in names], axis=None)
                adam_step(net.flat, flat_grads, adam, cfg)
                losses.append(loss)
        train_loss = float(np.mean(losses))
        if not (np.isfinite(train_loss) and np.isfinite(net.flat).all()):
            raise NumericalError(f"training diverged in epoch {epoch}: the loss or a "
                                 f"parameter is no longer finite")
        if val_windows is not None and len(val_windows):
            history.val_probs = predict_proba(net, val_windows)
            val_loss = cross_entropy(history.val_probs, val_labels)
        else:
            val_loss = float("nan")
        history.append((epoch, train_loss, val_loss))
    return net, history

