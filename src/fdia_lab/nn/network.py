"""The full classifier: GRU encoder feeding a conv/pool/conv/pool/dense head.

One window of measurements (window_len x input_dim) passes through the
GRU; the stacked hidden states form a single-channel 2-D map for the CNN.
Two convolution+pooling(+ReLU) rounds, a flatten, inverted dropout (training
only) and a dense softmax head produce the two class probabilities
(index 1 = attack). ``gradients`` backpropagates the mean cross-entropy
loss to every parameter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from ..data_pipeline import Standardizer
from ..errors import ConfigError, DataError, DimensionError
from ..io_utils import REQUIRED, read_fields, read_json, write_json
from .layers import (ConvLayer, DenseLayer, GruParams, conv_backward, conv_forward,
                     dropout_forward, gru_backward, gru_forward, pool_backward,
                     pool_forward, softmax)

CHECKPOINT_FORMAT = "gru-cnn-checkpoint"
CHECKPOINT_VERSION = 1
# windows per predict_proba forward pass (one GRU run) and per pass of the
# conv/pool/conv/pool/dense head inside it. On the demo network the block's GRU
# state map (1.9 MB) must outsize a slice's head (1.4 MB) and stay under 2 MB:
# glibc gives the top of its heap back to the kernel once it holds more than
# twice the largest block freed so far, so at 512 windows every block faulted
# its pages back in, and at 1024 more heap stayed resident after detect
INFER_BLOCK = 896
HEAD_SLICE = 64


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    window_len: int = 16
    hidden: int = 100
    conv1_kernels: int = 8
    conv1_size: int = 3
    conv2_kernels: int = 16
    conv2_size: int = 3
    pool: int = 2
    dropout: float = 0.5

    def __post_init__(self):
        for key, (rule, must) in NETWORK_RULES.items():
            if not rule(getattr(self, key)):
                raise ConfigError(f"network {key} {must}: {getattr(self, key)}")
        self.feature_count()  # validates that the shape chain is feasible

    def feature_count(self) -> int:
        """Size of the flattened map after conv -> pool twice, starting from
        the (window_len, hidden) GRU map; a kernel larger than its input map
        is a ConfigError."""
        h, w = self.window_len, self.hidden
        for size in (self.conv1_size, self.conv2_size):
            if h < size or w < size:
                raise ConfigError(f"feature map {(h, w)} is smaller than a {size}x{size} kernel")
            h, w = -(-(h - size + 1) // self.pool), -(-(w - size + 1) // self.pool)
        return h * w * self.conv2_kernels


# key -> (predicate, "must ..."): the rule of each NetworkConfig field that
# has one, as io_utils.read_fields applies it to the run config's network
# section and to a checkpoint's config, naming the key where it is read
NETWORK_RULES = {
    **{f.name: (lambda v: v >= 1, "must be at least 1")
       for f in fields(NetworkConfig) if f.type == "int"},
    "dropout": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
}


@dataclass
class Network:
    """The classifier's layers. Construction copies every parameter into one
    C-contiguous vector ``flat``, in ``parameters()`` order, and rebinds each
    parameter field to a reshaped view of its segment, so the optimizer can
    update all of them in one pass over ``flat``."""

    config: NetworkConfig
    gru: GruParams
    conv1: ConvLayer
    conv2: ConvLayer
    dense: DenseLayer
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        params = parameters(self)
        self.flat = np.concatenate(list(params.values()), axis=None, dtype=float)
        offset = 0
        for name, arr in params.items():
            layer, attr = name.split(".")
            view = self.flat[offset:offset + arr.size].reshape(arr.shape)
            setattr(getattr(self, layer), attr, view)
            offset += arr.size


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def init_network(cfg: NetworkConfig, seed: int = 0) -> Network:
    """Uniform Glorot weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    d, hd = cfg.input_dim, cfg.hidden
    gru = GruParams(
        w_xr=_glorot(rng, (d, hd), d, hd), w_hr=_glorot(rng, (hd, hd), hd, hd),
        w_xz=_glorot(rng, (d, hd), d, hd), w_hz=_glorot(rng, (hd, hd), hd, hd),
        w_xh=_glorot(rng, (d, hd), d, hd), w_hh=_glorot(rng, (hd, hd), hd, hd),
        b_r=np.zeros(hd), b_z=np.zeros(hd), b_h=np.zeros(hd),
    )

    def conv_layer(count, size, cin):
        fan_in = size * size * cin
        fan_out = size * size * count
        return ConvLayer(
            kernels=_glorot(rng, (count, size, size, cin), fan_in, fan_out),
            bias=np.zeros(count),
        )

    conv1 = conv_layer(cfg.conv1_kernels, cfg.conv1_size, 1)
    conv2 = conv_layer(cfg.conv2_kernels, cfg.conv2_size, cfg.conv1_kernels)
    features = cfg.feature_count()
    dense = DenseLayer(weights=_glorot(rng, (features, 2), features, 2),
                       bias=np.zeros(2))
    return Network(config=cfg, gru=gru, conv1=conv1, conv2=conv2, dense=dense)


def parameters(net: Network) -> dict[str, np.ndarray]:
    """Live references to every trainable array, named ``<layer>.<field>``,
    with the layers and each layer dataclass's fields in declaration order."""
    return {f"{name}.{f.name}": getattr(getattr(net, name), f.name)
            for name in ("gru", "conv1", "conv2", "dense")
            for f in fields(getattr(net, name))}


def forward(net: Network, windows: np.ndarray, rng: np.random.Generator | None = None,
            cache: bool = True):
    """Class probabilities for a batch of windows (B, L, D).

    Feature maps are batch-last (channels, rows, cols, B) up to the dense
    layer, which reads each window's features in (rows, cols, channels) order.
    Each convolution returns its pre-activation; the pooling after it applies
    the ReLU. An ``rng`` selects training mode (dropout when the configured
    rate is positive); inference without one is deterministic. With
    ``cache=False`` the GRU and pooling layers build no backward cache, each
    im2col matrix is freed when its layer returns, the cache is ``None``, and
    the head after the GRU runs on ``HEAD_SLICE``-window slices of its state
    map, each writing its rows of one preallocated probability array.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3:
        raise DimensionError("forward expects a batch of windows (B, L, D)")
    cfg = net.config
    if windows.shape[1] != cfg.window_len or windows.shape[2] != cfg.input_dim:
        raise DimensionError(
            f"window batch {windows.shape[1:]} does not match configured "
            f"({cfg.window_len}, {cfg.input_dim})"
        )
    caches = []

    def keep(result):
        out, layer_cache = result
        if cache:
            caches.append(layer_cache)
        return out

    def head(states):
        """The conv/pool/conv/pool/dense head on a (1, L, H, b) state map:
        the (b, 2) probabilities and the dense layer's part of the cache."""
        c1 = keep(conv_forward(states, net.conv1))
        p1 = keep(pool_forward(c1, cfg.pool, cache))
        c2 = keep(conv_forward(p1, net.conv2))
        p2 = keep(pool_forward(c2, cfg.pool, cache))
        features = p2.transpose(3, 1, 2, 0)  # (b, rows, cols, channels)
        flat = features.reshape(len(features), -1)
        mask = None
        if rng is not None and cfg.dropout > 0.0:
            dropped, mask = dropout_forward(flat, cfg.dropout, rng)
        else:
            dropped = flat
        probs = softmax(dropped @ net.dense.weights + net.dense.bias)
        return probs, (features.shape, dropped, mask)

    states = keep(gru_forward(windows, net.gru, cache=cache))
    if cache:
        probs, dense_cache = head(states)
        return probs, (*caches, *dense_cache)
    probs = np.empty((len(windows), 2))
    for start in range(0, len(windows), HEAD_SLICE):
        probs[start:start + HEAD_SLICE] = head(states[..., start:start + HEAD_SLICE])[0]
    return probs, None


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    labels = np.asarray(labels, dtype=int)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def gradients(net: Network, windows: np.ndarray, labels: np.ndarray,
              rng: np.random.Generator | None = None):
    """Mean cross-entropy loss and its gradient for every parameter."""
    windows = np.asarray(windows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(windows) == 0:
        raise DataError("gradient evaluation needs a non-empty batch")
    probs, cache = forward(net, windows, rng)
    (gru_caches, c1_cache, p1_cache, c2_cache, p2_cache,
     features_shape, dropped, mask) = cache
    loss = cross_entropy(probs, labels)

    batch = len(windows)
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch

    grads = {
        "dense.weights": dropped.T @ dlogits,
        "dense.bias": dlogits.sum(axis=0),
    }
    dflat = dlogits @ net.dense.weights.T
    if mask is not None:
        dflat = dflat * mask
    dp2 = dflat.reshape(features_shape).transpose(3, 1, 2, 0)
    dc2 = pool_backward(dp2, p2_cache)
    dp1, grads["conv2.kernels"], grads["conv2.bias"] = conv_backward(dc2, c2_cache, net.conv2)
    dc1 = pool_backward(dp1, p1_cache)
    dmap, grads["conv1.kernels"], grads["conv1.bias"] = conv_backward(dc1, c1_cache, net.conv1)
    for name, g in gru_backward(dmap[0], gru_caches, net.gru).items():
        grads[f"gru.{name}"] = g
    return loss, grads


def predict_proba(net: Network, windows: np.ndarray) -> np.ndarray:
    """Class probabilities (B, 2), computed without backward caches into one
    preallocated array: one ``forward`` per ``INFER_BLOCK`` windows, whose GRU
    runs over the whole block (each tick's dozen numpy calls cost about the
    same at any width) and whose head runs ``HEAD_SLICE`` windows at a time.
    Memory beyond the input and output is one block's for any B: the GRU's
    state map (1.9 MB on the demo network) and one slice's head, whose largest
    array is conv1's im2col matrix, (conv1_size**2 + 1) * oh * ow * HEAD_SLICE
    floats for an oh x ow conv1 output (1.0 MB for the demo network's
    14 x 14, small enough to stay in cache while its matmul reads it). That is
    a tracemalloc peak of 3.5 MiB over 16,000 sliding windows of the demo
    network; a C-contiguous batch adds the GRU's input projections of every
    (tick, window) pair, 5.5 MB a block."""
    windows = np.asarray(windows, dtype=float)
    probs = np.empty((len(windows), 2))
    for start in range(0, len(windows), INFER_BLOCK):
        probs[start:start + INFER_BLOCK] = forward(
            net, windows[start:start + INFER_BLOCK], cache=False)[0]
    return probs


def save_checkpoint(net: Network, path, standardizer: Standardizer) -> None:
    obj = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(net.config),
        "params": {name: arr.tolist() for name, arr in parameters(net).items()},
        "standardizer": {"means": standardizer.means.tolist(),
                         "stds": standardizer.stds.tolist()},
    }
    write_json(path, obj)


def _checkpoint_object(path, obj: dict, key: str) -> dict:
    value = obj.get(key)
    if value is None:
        raise DataError(f"{path}: checkpoint lacks the {key}")
    if not isinstance(value, dict):
        raise DataError(f"{path}: checkpoint entry '{key}' must be a JSON object")
    return value


def _checkpoint_array(path, what: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, or a DataError naming
    the file and the entry."""
    if value is None:
        raise DataError(f"{path}: checkpoint lacks the {what}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{path}: checkpoint {what} is not an array of numbers") from None
    if arr.shape != shape:
        raise DataError(f"{path}: checkpoint {what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: checkpoint {what} has non-finite entries")
    return arr


def load_checkpoint(path) -> tuple[Network, Standardizer]:
    """The network and standardizer saved by ``save_checkpoint``. Every entry
    is checked: a missing, unknown, mistyped or misshapen one raises a
    DataError naming the file."""
    obj = read_json(path)
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"not a checkpoint file: {path}")
    if type(version := obj.get("version")) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version!r}")
    # every NetworkConfig field, each one required
    rows = {key: (kind, REQUIRED, NETWORK_RULES.get(key))
            for key, kind in get_type_hints(NetworkConfig).items()}
    try:
        cfg = NetworkConfig(**read_fields(_checkpoint_object(path, obj, "config"), "config", rows))
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint {exc}") from exc
    net = init_network(cfg, seed=0)
    params = parameters(net)
    saved = _checkpoint_object(path, obj, "params")
    for name in saved:
        if name not in params:
            raise DataError(f"{path}: unknown parameter '{name}' in checkpoint")
    for name, arr in params.items():
        arr[...] = _checkpoint_array(path, f"parameter '{name}'", saved.get(name), arr.shape)
    std = _checkpoint_object(path, obj, "standardizer")
    means, stds = (_checkpoint_array(path, f"standardizer {key}", std.get(key),
                                     (cfg.input_dim,)) for key in ("means", "stds"))
    if (stds < 0).any():
        raise DataError(f"{path}: checkpoint standardizer stds has negative entries")
    return net, Standardizer(means=means, stds=stds)
