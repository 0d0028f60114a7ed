"""Layer primitives: GRU, valid convolution, max pooling, softmax, dropout.

Forward functions return caches that the matching backward functions
consume. A convolution returns the valid cross-correlation out[i,j] =
sum_{m,n} w[m,n] * in[i+m, j+n] + b; the max pooling after it applies the ReLU.
Feature maps are batch-last: (channels, rows, cols, batch), so every
slice a layer takes along rows and columns reads runs of whole batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np

from ..errors import DimensionError


@dataclass
class GruParams:
    """Gate weights; input weights are (input_dim, hidden), recurrent
    weights (hidden, hidden), biases (hidden,)."""

    w_xr: np.ndarray
    w_hr: np.ndarray
    w_xz: np.ndarray
    w_hz: np.ndarray
    w_xh: np.ndarray
    w_hh: np.ndarray
    b_r: np.ndarray
    b_z: np.ndarray
    b_h: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_hr.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_xr.shape[0]


@dataclass
class ConvLayer:
    kernels: np.ndarray  # (n_kernels, kh, kw, in_channels)
    bias: np.ndarray     # (n_kernels,)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (features, classes)
    bias: np.ndarray     # (classes,)


def gru_forward(x: np.ndarray, p: GruParams, cache: bool = True):
    """Run the cell over a batch of windows from the zero state; x (B, L, D) -> (1, L, H, B).

    The recurrence runs feature-major, on (H, B) states, so that the gates
    [r | z] of a tick are two contiguous blocks. The input projections of
    every tick are one 2-D product before the loop; inside it the reset and
    update gates share one recurrent matmul and one sigmoid. That product
    covers the L * B (tick, window) pairs, or, when the windows overlap as
    ``data_pipeline.window``'s sliding view does (``x.strides[0] ==
    x.strides[1]``), each of the B + L - 1 distinct rows once; each tick then
    reads a strided view of it, and the results are the same bit for bit.
    The cache holds the inputs (D, L * B), columns in (tick, window) order,
    and tick-major, feature-major stacks: the states h_0..h_L (L + 1, H, B),
    the gates [r | z] (L, 2H, B), the candidates and r * h_prev (L, H, B). With
    ``cache=False`` it is ``None`` and every tick overwrites one tick's
    gates, candidate and r * h_prev. The returned map is a view of the
    states h_1..h_L with a leading channel axis: the batch-last input of
    the first convolution, with no copy.
    """
    b, length, d = x.shape
    hd = p.hidden
    if d != p.input_dim:
        raise DimensionError(f"window feature width {d} != GRU input_dim {p.input_dim}")
    # the states outlive the call, so they are allocated first: the
    # projections and scratch it frees form one block for the next layer
    hs = np.empty((length + 1, hd, b))
    hs[0] = 0.0
    # in windows that overlap like data_pipeline.window's sliding view (equal
    # window and tick strides), x[i, j] is row i + j of a (B + L - 1, D)
    # array: the first tick of every window, then the last window's others
    overlapping = b > 0 and x.strides[0] == x.strides[1]
    xs = x.transpose(2, 1, 0).reshape(d, length * b) if cache or not overlapping else None
    rows = np.concatenate([x[:, 0], x[-1, 1:]]).T if overlapping else xs
    # einsum's own loop beats BLAS at D = 1, where each entry is one exact product
    proj = np.einsum("dk,dn->kn", np.hstack([p.w_xr, p.w_xz, p.w_xh]), rows)
    proj += np.concatenate([p.b_r, p.b_z, p.b_h])[:, None]
    # the logistic sigmoid is 0.5 * tanh(x / 2) + 0.5, which cannot
    # overflow; the gate pre-activations are formed already halved, from
    # halved weights and projections (exact: a power-of-two scale)
    proj[:2 * hd] *= 0.5
    # tick j's (3H, B) block: rows j..j + B - 1, or the j-th run of B columns
    step = 1 if overlapping else b
    w_hrz_t = 0.5 * np.hstack([p.w_hr, p.w_hz]).T
    w_hh_t = p.w_hh.T
    ticks = length if cache else 1
    rz = np.empty((ticks, 2 * hd, b))
    cand = np.empty((ticks, hd, b))
    rh = np.empty((ticks, hd, b))
    # cycle() repeats the single scratch tick when not caching
    for h, h_new, gates, c, rh_t, proj_t in zip(
            hs[:-1], hs[1:], cycle(rz), cycle(cand), cycle(rh),
            (proj[:, j * step:j * step + b] for j in range(length))):
        np.matmul(w_hrz_t, h, out=gates)
        gates += proj_t[:2 * hd]
        np.tanh(gates, out=gates)
        gates *= 0.5
        gates += 0.5
        np.multiply(gates[:hd], h, out=rh_t)
        np.matmul(w_hh_t, rh_t, out=c)
        c += proj_t[2 * hd:]
        np.tanh(c, out=c)
        # z * h + (1 - z) * cand, as cand + z * (h - cand)
        np.subtract(h, c, out=h_new)
        h_new *= gates[hd:]
        h_new += c
    return hs[None, 1:], ((xs, hs, rz, cand, rh) if cache else None)


def gru_backward(dseq: np.ndarray, caches, p: GruParams) -> dict[str, np.ndarray]:
    """Backprop through time given the gradient dseq (L, H, B) of every
    stacked hidden state.

    Only the recurrent chain dh runs tick by tick, feature-major like the
    forward pass, so every product lands in a contiguous (H, B) block; the
    local gate derivatives come from forward values for all ticks at once.
    One matmul per tick sums the four paths into the previous state's
    gradient, and the weight and bias gradients are matmuls and sums over
    all ticks after the loop.
    """
    xs, hs, rz, cand, rh = caches
    length, hd, b = cand.shape
    h_prev = hs[:-1]
    r, z = rz[:, :hd], rz[:, hd:]
    one_minus_z = 1.0 - z
    # d pre-activation / dh of the update gate and of the candidate, and
    # d pre-activation / d(r * h_prev) of the reset gate
    z_gain = (h_prev - cand) * z * one_minus_z
    cand_gain = one_minus_z * (1.0 - cand * cand)
    r_gain = h_prev * r * (1.0 - r)
    # per tick: [drh * r | reset | update | candidate pre-activation
    # gradient | dh * z], with drh = d(r * h_prev); dh_prev is one matmul
    # of these with [I | w_hr | w_hz | 0 | I]
    terms = np.empty((length, 5, hd, b))
    eye = np.eye(hd)
    to_prev = np.hstack([eye, p.w_hr, p.w_hz, np.zeros((hd, hd)), eye])
    dh_next = np.zeros((hd, b))
    for dseq_t, r_t, r_gain_t, z_t, z_gain_t, cand_gain_t, out in zip(
            dseq[::-1], r[::-1], r_gain[::-1], z[::-1], z_gain[::-1],
            cand_gain[::-1], terms[::-1]):
        dh = dseq_t + dh_next
        np.multiply(dh, z_gain_t, out=out[2])
        np.multiply(dh, cand_gain_t, out=out[3])
        np.multiply(dh, z_t, out=out[4])
        drh = p.w_hh @ out[3]
        np.multiply(drh, r_t, out=out[0])
        np.multiply(drh, r_gain_t, out=out[1])
        dh_next = to_prev @ out.reshape(5 * hd, b)

    def by_feature(a):
        """(L, F, B) -> (F, L * B), columns in (tick, window) order."""
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    dpre = by_feature(terms[:, 1:4].reshape(length, 3 * hd, b))  # [reset | update | candidate]
    g_x = xs @ dpre.T
    g_h = by_feature(h_prev) @ dpre[:2 * hd].T
    g_b = dpre.sum(axis=1)
    return {
        "w_xr": g_x[:, :hd], "w_hr": g_h[:, :hd],
        "w_xz": g_x[:, hd:2 * hd], "w_hz": g_h[:, hd:],
        "w_xh": g_x[:, 2 * hd:], "w_hh": by_feature(rh) @ dpre[2 * hd:].T,
        "b_r": g_b[:hd], "b_z": g_b[hd:2 * hd], "b_h": g_b[2 * hd:],
    }


def conv_forward(x: np.ndarray, layer: ConvLayer):
    """Valid cross-correlation; x (cin, h, w, B) -> pre-activation (k, oh, ow, B).

    The im2col matrix (kh * kw * cin + 1, oh * ow * B) has one row per
    kernel tap in (m, n, c) order, the order of the kernels' own axes,
    filled from kh * kw shifted slices of the input (runs of ow * B floats),
    and a last row of ones that carries the bias. The layer is then one
    matmul, whose (k, oh * ow * B) result is the output as it stands; the
    cache keeps that matrix for the backward pass.
    """
    kernels, bias = layer.kernels, layer.bias
    k, kh, kw, cin = kernels.shape
    if x.ndim != 4 or x.shape[0] != cin:
        raise DimensionError(f"conv input {x.shape} does not match kernels {kernels.shape}")
    _, h, w, b = x.shape
    if h < kh or w < kw:
        raise DimensionError(f"conv input {x.shape[1:3]} smaller than kernel ({kh}, {kw})")
    oh, ow = h - kh + 1, w - kw + 1
    size = kh * kw * cin
    cols = np.empty((size + 1, oh, ow, b))
    taps = cols[:size].reshape(kh, kw, cin, oh, ow, b)
    for m in range(kh):
        for n in range(kw):
            taps[m, n] = x[:, m:m + oh, n:n + ow]
    cols[size] = 1.0
    cols = cols.reshape(size + 1, -1)
    weights = np.hstack([kernels.reshape(k, size), bias[:, None]])
    return (weights @ cols).reshape(k, oh, ow, b), (x.shape, cols)


def conv_backward(dout: np.ndarray, cache, layer: ConvLayer):
    """(dx, dkernels, dbias) from the pre-activation gradient; dx is batch-last.

    One matmul with the cached im2col matrix gives the kernel and bias
    gradients; dx is one matmul plus kh * kw shifted adds.
    """
    x_shape, cols = cache
    kernels = layer.kernels
    k, kh, kw, cin = kernels.shape
    _, oh, ow, b = dout.shape
    dpre = dout.reshape(k, -1)
    grad = dpre @ cols.T
    dkernels = grad[:, :-1].reshape(kernels.shape)
    # the gradient of every im2col row, laid out (m, n, c, oh, ow, B), is
    # added at its tap's shift into dx
    dcols = (kernels.reshape(k, -1).T @ dpre).reshape(kh, kw, cin, oh, ow, b)
    dx = np.zeros(x_shape)
    for m in range(kh):
        for n in range(kw):
            dx[:, m:m + oh, n:n + ow] += dcols[m, n]
    return dx, dkernels, grad[:, -1]


def pool_forward(x: np.ndarray, window: int = 2, cache: bool = True):
    """Non-overlapping max pooling, then ReLU; x (C, h, w, B) -> (C, oh, ow, B).

    relu(max(tile)) == max(relu(tile)): the maximum starts from 0 and odd
    trailing rows/cols are zero-padded. The cache (skipped with ``cache=False``)
    is a boolean route mask over the (C, oh, window, ow, window, B) tiles: the
    first cell in row-major order holding a positive tile maximum, argmax's tie rule.
    """
    if x.ndim != 4:
        raise DimensionError("pool input must be (channels, rows, cols, batch)")
    c, h, w, b = x.shape
    oh, ow = -(-h // window), -(-w // window)
    if (h, w) != (oh * window, ow * window):
        padded = np.zeros((c, oh * window, ow * window, b))
        padded[:, :h, :w] = x
        x = padded
    x6 = x.reshape(c, oh, window, ow, window, b)
    out = np.zeros((c, oh, ow, b))
    for a, d in np.ndindex(window, window):
        np.maximum(out, x6[:, :, a, :, d], out=out)
    if cache:
        route = x6 == out[:, :, None, :, None]
        # a tile whose maximum is <= 0 gets no gradient through the ReLU;
        # each position in turn keeps its hits on unclaimed cells and claims them
        free = out > 0.0
        for a, d in np.ndindex(window, window):
            free ^= np.logical_and(route[:, :, a, :, d], free, out=route[:, :, a, :, d])
    return out, ((h, w, x.shape, route) if cache else None)


def pool_backward(dout: np.ndarray, cache) -> np.ndarray:
    """The gradient of the unpadded input: dout sent along the route mask."""
    h, w, padded_shape, route = cache
    return (route * dout[:, :, None, :, None]).reshape(padded_shape)[:, :h, :w]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: kept units are scaled by 1 / (1 - rate), rate in [0, 1)."""
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask
