"""Forward and backward passes for every layer in the mixer network.

Each `*_forward` returns (output, LayerCache); the matching `*_backward`
consumes the cache exactly once and returns gradients that are exact for
the implemented forward (validated against central finite differences).
`*_forward(...)[0]` is the output alone; each layer has no other entry point.

Inputs are (n, y, x, c) arrays. Convolution weights are stored as
(p, p, c_in, d) for the patch embedding, (k, k, c) for depthwise filters
and (c_in, c_out) for the pointwise/dense layers. Batch norm's momentum and
epsilon have no defaults here: `ModelConfig.bn_momentum` (0.99) and
`ModelConfig.bn_eps` (1e-3) set them.
"""

import contextlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .numerics import ShapeError, Tensor

_INV_SQRT_2PI = 0.3989422804014327


@dataclass
class ConvParams:
    """Weights plus a per-output-channel bias."""

    weights: Tensor
    bias: Tensor


@dataclass
class BatchNormState:
    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    momentum: float
    epsilon: float


@dataclass
class LayerCache:
    """Forward intermediates for one backward call; single-use."""

    layer: str
    out_shape: tuple
    saved: dict = field(default_factory=dict)
    consumed: bool = False


def _consume(cache: LayerCache, layer: str, upstream: Tensor) -> dict:
    if cache.layer != layer:
        raise ValueError(f"cache from {cache.layer!r} passed to {layer}_backward")
    if cache.consumed:
        raise RuntimeError(f"{layer} cache already consumed by a previous backward call")
    if tuple(upstream.shape) != cache.out_shape:
        raise ShapeError(
            f"{layer}_backward: upstream shape {tuple(upstream.shape)} != forward output shape {cache.out_shape}"
        )
    cache.consumed = True
    return cache.saved


# ---------------------------------------------------------------------------
# multiply accounting (conv/dense only, the MAC convention of the analyzer)

class MulCounter:
    def __init__(self):
        self.total = 0
        self.by_layer = {}

    def add(self, layer: str, n: int):
        self.total += n
        self.by_layer[layer] = self.by_layer.get(layer, 0) + n


_ACTIVE_COUNTER = None


@contextlib.contextmanager
def count_multiplies():
    """Record the multiply count of every conv/dense forward run inside."""
    global _ACTIVE_COUNTER
    counter = MulCounter()
    prev, _ACTIVE_COUNTER = _ACTIVE_COUNTER, counter
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER = prev


def _record(layer: str, mults: int):
    if _ACTIVE_COUNTER is not None:
        _ACTIVE_COUNTER.add(layer, mults)


# ---------------------------------------------------------------------------
# patch embedding: non-overlapping pxp convolution with stride p

def patch_embed_forward(x: Tensor, p: ConvParams):
    n, h, w, c_in = x.shape
    pw = p.weights
    patch = pw.shape[0]
    if pw.ndim != 4 or pw.shape[:3] != (patch, patch, c_in):
        raise ShapeError(f"patch weights {pw.shape} are not (p, p, {c_in}, d)")
    if h % patch or w % patch:
        raise ShapeError(f"input {h}x{w} not divisible by patch size {patch} (no implicit padding)")
    d = pw.shape[3]
    if p.bias.shape != (d,):
        raise ShapeError(f"patch bias shape {p.bias.shape} != ({d},)")
    gh, gw = h // patch, w // patch
    # im2col: each token row is one flattened patch, matching the row-major
    # flattening of the (patch, patch, c_in) leading weight axes
    cols = (
        x.reshape(n, gh, patch, gw, patch, c_in)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n * gh * gw, patch * patch * c_in)
    )
    w2 = pw.reshape(patch * patch * c_in, d)
    out = (cols @ w2 + p.bias).reshape(n, gh, gw, d)
    _record("patch_embed", n * gh * gw * patch * patch * c_in * d)
    cache = LayerCache("patch_embed", out.shape, {"cols": cols, "weights": pw, "x_shape": x.shape})
    return out, cache



def patch_embed_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "patch_embed", upstream)
    cols, pw = saved["cols"], saved["weights"]
    n, h, w, c_in = saved["x_shape"]
    patch = pw.shape[0]
    gh, gw = h // patch, w // patch
    d = pw.shape[3]
    du = upstream.reshape(n * gh * gw, d)
    w2 = pw.reshape(-1, d)
    dcols = du @ w2.T
    dw = (cols.T @ du).reshape(pw.shape)
    db = du.sum(axis=0)
    # patches are disjoint, so folding back is a pure reshape
    dx = (
        dcols.reshape(n, gh, gw, patch, patch, c_in)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, h, w, c_in)
    )
    return dx, dw, db


# ---------------------------------------------------------------------------
# depthwise convolution, same padding, one kxk filter per channel

# Images per block of the depthwise tap loop: one block's padded input,
# products and output stay in L2 across all k*k taps. A constant, because
# the backward's dw sums block by block: a block size that varied (with the
# thread count, say) would change its bytes.
_BLOCK = 4


def _padded_blocks(x: Tensor, pad: int):
    """Yield (start, zero-padded copy of x[start:start + _BLOCK]), reusing one buffer."""
    n, h, w, c = x.shape
    buf = np.zeros((min(n, _BLOCK), h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    for start in range(0, n, _BLOCK):
        block = x[start : start + _BLOCK]
        xp = buf[: len(block)]
        xp[:, pad : pad + h, pad : pad + w, :] = block  # the border is never written, so stays zero
        yield start, xp


def _depthwise_taps(src: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """bias + same-padded per-channel correlation of src with the (k, k, c) bank w.

    Every output element adds bias first, then the taps in row-major (dy, dx)
    order, so the result does not depend on how the batch is split into blocks.
    """
    k = w.shape[0]
    n, h, ww, c = src.shape
    out = np.empty_like(src)
    prod = np.empty((min(n, _BLOCK), h, ww, c), dtype=np.result_type(src, w))
    for start, xp in _padded_blocks(src, k // 2):
        o = out[start : start + _BLOCK]
        t = prod[: len(o)]
        o[:] = bias
        for dy in range(k):
            for dx in range(k):
                np.multiply(xp[:, dy : dy + h, dx : dx + ww, :], w[dy, dx], out=t)
                o += t
    return out


def depthwise_conv_forward(x: Tensor, p: ConvParams):
    w = p.weights
    k = w.shape[0]
    if k % 2 == 0:
        raise ValueError(f"depthwise kernel size must be odd, got {k}")
    n, h, ww, c = x.shape
    if w.shape != (k, k, c):
        raise ShapeError(f"depthwise weights {w.shape} do not match kernel {k} and {c} channels")
    if p.bias.shape != (c,):
        raise ShapeError(f"depthwise bias shape {p.bias.shape} != ({c},)")
    out = _depthwise_taps(x, w, p.bias)
    _record("depthwise_conv", n * h * ww * c * k * k)
    # x itself, not a padded copy: parallel branches over one input share it
    cache = LayerCache("depthwise_conv", out.shape, {"x": x, "weights": w})
    return out, cache



def depthwise_conv_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "depthwise_conv", upstream)
    x, w = saved["x"], saved["weights"]
    _, h, ww, c = x.shape
    k = w.shape[0]
    dw = np.zeros_like(w)
    for start, xp in _padded_blocks(x, k // 2):
        g = upstream[start : start + _BLOCK]
        for dy in range(k):
            for dx in range(k):
                dw[dy, dx] += np.einsum("nyxc,nyxc->c", xp[:, dy : dy + h, dx : dx + ww, :], g)
    db = upstream.sum(axis=(0, 1, 2))
    # the adjoint of a same-padded correlation is the correlation with the
    # flipped kernel; the private kernel records no MACs and opens no forward span
    dx = _depthwise_taps(upstream, w[::-1, ::-1], np.zeros(c, dtype=upstream.dtype))
    return dx.astype(x.dtype, copy=False), dw, db


# ---------------------------------------------------------------------------
# pointwise (1x1) convolution: pure channel mixing

def pointwise_conv_forward(x: Tensor, p: ConvParams):
    n, h, w, c_in = x.shape
    if p.weights.ndim != 2 or p.weights.shape[0] != c_in:
        raise ShapeError(f"pointwise weights {p.weights.shape} incompatible with {c_in} input channels")
    c_out = p.weights.shape[1]
    if p.bias.shape != (c_out,):
        raise ShapeError(f"pointwise bias shape {p.bias.shape} != ({c_out},)")
    flat = x.reshape(-1, c_in)
    out = (flat @ p.weights + p.bias).reshape(n, h, w, c_out)
    _record("pointwise_conv", n * h * w * c_in * c_out)
    cache = LayerCache("pointwise_conv", out.shape, {"flat": flat, "weights": p.weights, "x_shape": x.shape})
    return out, cache



def pointwise_conv_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "pointwise_conv", upstream)
    flat, w = saved["flat"], saved["weights"]
    du = upstream.reshape(-1, w.shape[1])
    dx = (du @ w.T).reshape(saved["x_shape"])
    dw = flat.T @ du
    db = du.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# GELU with the exact normal CDF (not the tanh approximation)

def gelu_forward(x: Tensor):
    cdf = ndtr(x)
    out = (x * cdf).astype(x.dtype, copy=False)
    return out, LayerCache("gelu", out.shape, {"x": x, "cdf": cdf})



def gelu_backward(cache: LayerCache, upstream: Tensor) -> Tensor:
    saved = _consume(cache, "gelu", upstream)
    x, cdf = saved["x"], saved["cdf"]
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return (upstream * (cdf + x * pdf)).astype(x.dtype, copy=False)


# ---------------------------------------------------------------------------
# batch normalization over (n, y, x) per channel

def batch_norm_forward(x: Tensor, s: BatchNormState, mode: str):
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    n, h, w, c = x.shape
    if s.gamma.shape != (c,):
        raise ShapeError(f"batch norm state has {s.gamma.shape[0]} channels, input has {c}")
    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ValueError(f"batch_norm train mode needs >= 2 elements per channel, got {m}")
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))  # biased estimator
        inv = 1.0 / np.sqrt(var + s.epsilon)
        xhat = (x - mean) * inv
        s.running_mean[:] = s.momentum * s.running_mean + (1.0 - s.momentum) * mean
        s.running_var[:] = s.momentum * s.running_var + (1.0 - s.momentum) * var
    else:
        inv = 1.0 / np.sqrt(s.running_var + s.epsilon)
        xhat = (x - s.running_mean) * inv
    out = (s.gamma * xhat + s.beta).astype(x.dtype, copy=False)
    cache = LayerCache("batch_norm", out.shape, {"xhat": xhat, "inv": inv, "gamma": s.gamma, "mode": mode})
    return out, cache



def batch_norm_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "batch_norm", upstream)
    xhat, inv, gamma = saved["xhat"], saved["inv"], saved["gamma"]
    dgamma = np.einsum("nyxc,nyxc->c", upstream, xhat)
    dbeta = upstream.sum(axis=(0, 1, 2))
    if saved["mode"] == "train":
        m = upstream.shape[0] * upstream.shape[1] * upstream.shape[2]
        # full backward through the batch statistics
        dx = (gamma * inv / m) * (m * upstream - dbeta - xhat * dgamma)
    else:
        dx = upstream * (gamma * inv)
    return dx.astype(upstream.dtype, copy=False), dgamma, dbeta


# ---------------------------------------------------------------------------
# global average pooling over the spatial grid

def global_avg_pool_forward(x: Tensor):
    out = x.mean(axis=(1, 2))
    return out, LayerCache("global_avg_pool", out.shape, {"x_shape": x.shape})



def global_avg_pool_backward(cache: LayerCache, upstream: Tensor) -> Tensor:
    n, h, w, c = _consume(cache, "global_avg_pool", upstream)["x_shape"]
    scale = upstream / (h * w)
    return np.broadcast_to(scale[:, None, None, :], (n, h, w, c)).astype(upstream.dtype)


# ---------------------------------------------------------------------------
# dense head

def dense_forward(x: Tensor, p: ConvParams):
    if x.ndim != 2 or p.weights.ndim != 2 or x.shape[1] != p.weights.shape[0]:
        raise ShapeError(f"dense: input {x.shape} incompatible with weights {p.weights.shape}")
    k = p.weights.shape[1]
    if p.bias.shape != (k,):
        raise ShapeError(f"dense bias shape {p.bias.shape} != ({k},)")
    out = x @ p.weights + p.bias
    _record("dense", x.shape[0] * x.shape[1] * k)
    return out, LayerCache("dense", out.shape, {"x": x, "weights": p.weights})



def dense_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "dense", upstream)
    x, w = saved["x"], saved["weights"]
    return upstream @ w.T, x.T @ upstream, upstream.sum(axis=0)


# ---------------------------------------------------------------------------
# row-wise softmax with max-shift stability

def softmax_forward(x: Tensor):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out, LayerCache("softmax", out.shape, {"probs": out})



def softmax_backward(cache: LayerCache, upstream: Tensor) -> Tensor:
    p = _consume(cache, "softmax", upstream)["probs"]
    return p * (upstream - (upstream * p).sum(axis=1, keepdims=True))
