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

GELU uses the exact normal CDF. For float32 inputs it is evaluated with the
Abramowitz & Stegun 7.1.26 erfc fit (absolute error below 3e-7, 2.62e-7
measured); float64 inputs, which the gradient checks use, take it from the
standard library's `math.erfc`, element by element. A train-mode GELU caches
only its derivative cdf + x pdf; an infer-mode one caches nothing. In infer
mode batch norm is one scale and shift per channel, x (gamma inv) +
(beta - mean gamma inv). GELU and batch norm build their outputs with in-place
ufuncs, so each call allocates only the arrays it returns or caches.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import ShapeError, Tensor

_INV_SQRT_2PI = 0.3989422804014327
_INV_SQRT_2 = 0.7071067811865476


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

def _windows(x: Tensor, k: int) -> Tensor:
    """Read-only (n, y, x, c, k, k) view of the k x k windows of x, zero-padded to same size.

    Only the weight gradient uses it; the forward and dx use `_row_taps`.
    """
    pad = k // 2
    return sliding_window_view(np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))), (k, k), axis=(1, 2))


def _row_taps(x: Tensor, w: Tensor) -> Tensor:
    """Same-padded depthwise correlation of x with the (k, k, c) bank w, without bias.

    Each tap (i, j) reads a whole padded row of w*c floats, so einsum's inner
    loop runs over x and c at once instead of over c alone.
    """
    n, h, ww, c = x.shape
    k = w.shape[0]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))).reshape(n, h + 2 * pad, (ww + 2 * pad) * c)
    # (n, y, j, i, w*c): tap (i, j) of output row y, every x and channel at once
    rows = sliding_window_view(xp, (k, ww * c), axis=(1, 2))[:, :, ::c]
    wz = np.tile(w, (1, 1, ww))
    return np.einsum("nyjiz,ijz->nyz", rows, wz).reshape(n, h, ww, c)


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
    # einsum without `optimize` makes no BLAS call, so the summation order
    # depends neither on the thread count nor on the batch size
    out = _row_taps(x, w).astype(x.dtype, copy=False)
    out += p.bias
    _record("depthwise_conv", n * h * ww * c * k * k)
    # x itself, not a padded copy: parallel branches over one input share it
    cache = LayerCache("depthwise_conv", out.shape, {"x": x, "weights": w})
    return out, cache



def depthwise_conv_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "depthwise_conv", upstream)
    x, w = saved["x"], saved["weights"]
    k = w.shape[0]
    dw = np.einsum("nyxcij,nyxc->ijc", _windows(x, k), upstream).astype(w.dtype, copy=False)
    db = upstream.sum(axis=(0, 1, 2))
    # the adjoint of a same-padded correlation is the correlation with the flipped kernel
    dx = _row_taps(upstream, w[::-1, ::-1])
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
# GELU with the exact normal CDF (not the tanh approximation); float32 inputs
# evaluate it with the Abramowitz & Stegun 7.1.26 erfc fit (absolute CDF error
# below 3e-7, 2.62e-7 measured), float64 inputs with `math.erfc` as a
# per-element object ufunc, which is slow but serves only the gradient checks.
# A train-mode forward caches only the derivative d = cdf + x pdf, so the
# backward is one product and the input need not be kept.

_ERFC = np.frompyfunc(math.erfc, 1, 1)

# Elements per slab: a slab, its two scratch buffers and its one or two
# outputs (5 x 128 KiB) stay in L2 across the ~25 passes of the kernel.
_SLAB = 1 << 15
# erfc(z) ~= t (a1 + t (a2 + t (a3 + t (a4 + t a5)))) exp(-z^2), t = 1 / (1 + p z),
# absolute error < 1.5e-7 for z >= 0 (Abramowitz & Stegun 7.1.26). With
# z = |x| / sqrt 2 and the a_i halved, the fit returns Q(|x|), the upper
# normal tail, and its exp(-x^2 / 2) is sqrt(2 pi) pdf(x).
_AS_P = 0.3275911 * _INV_SQRT_2
_AS_HALF_A = tuple(0.5 * a for a in (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
_SIGN_BIT = np.int32(-(2**31))
_HALF_BITS = np.float32(0.5).view(np.int32)


def _check_mode(layer: str, mode: str):
    if mode not in ("train", "infer"):
        raise ValueError(f"{layer} mode must be 'train' or 'infer', got {mode!r}")


def _cdf_slab(xs: Tensor, t: Tensor, e: Tensor, cdf: Tensor):
    """Normal CDF of the 1-D slab xs into cdf, leaving exp(-x^2 / 2) in e; t is scratch."""
    np.multiply(xs, xs, out=e)
    e *= -0.5
    np.exp(e, out=e)
    if xs.dtype != np.float32:
        # float64 does not use the fit: with it, the float64 full-model gradient check misses TOL (6.1e-3 > 1e-4)
        cdf[:] = 0.5 * _ERFC(xs * -_INV_SQRT_2)
        return
    np.abs(xs, out=t)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    np.multiply(t, _AS_HALF_A[4], out=cdf)
    for a in _AS_HALF_A[3::-1]:
        cdf += a
        cdf *= t
    cdf *= e  # Q(|x|)
    # CDF = 1 - Q for x >= +0 and Q for x <= -0, exact in the lower tail: the
    # sign bit of x turns Q into -Q and 0.5 into -0.5, then (0.5 +- 0.5) - (+-Q)
    sign, q = t.view(np.int32), cdf.view(np.int32)
    np.bitwise_and(xs.view(np.int32), _SIGN_BIT, out=sign)
    q |= sign
    sign |= _HALF_BITS
    t += 0.5
    np.subtract(t, cdf, out=cdf)


def _slabwise(kernel, x: Tensor, n_out: int) -> list:
    """Run kernel(xs, t, e, *outs) over 1-D slabs of x; returns n_out arrays shaped like x."""
    outs = [np.empty(x.shape, x.dtype) for _ in range(n_out)]
    src, dsts = x.reshape(-1), [o.reshape(-1) for o in outs]
    t_buf = np.empty(min(src.size, _SLAB), dtype=x.dtype)
    e_buf = np.empty_like(t_buf)
    with np.errstate(over="ignore"):  # x*x overflows to inf near float32 max; the tail is then 0
        for start in range(0, src.size, _SLAB):
            xs = src[start : start + _SLAB]
            kernel(xs, t_buf[: len(xs)], e_buf[: len(xs)], *(d[start : start + _SLAB] for d in dsts))
    return outs


def _normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF: the A&S fit for float32, `math.erfc` otherwise."""
    return _slabwise(_cdf_slab, x, 1)[0]


def _gelu_slab(xs: Tensor, t: Tensor, e: Tensor, out: Tensor, d: Tensor = None):
    _cdf_slab(xs, t, e, out)
    if d is not None:
        np.multiply(xs, e, out=d)
        d *= _INV_SQRT_2PI  # x pdf
        d += out
    out *= xs


def gelu_forward(x: Tensor, mode: str):
    _check_mode("gelu", mode)
    if mode == "train":
        out, d = _slabwise(_gelu_slab, x, 2)
        return out, LayerCache("gelu", out.shape, {"d": d})
    (out,) = _slabwise(_gelu_slab, x, 1)
    return out, LayerCache("gelu", out.shape)


def gelu_backward(cache: LayerCache, upstream: Tensor) -> Tensor:
    d = _consume(cache, "gelu", upstream).pop("d", None)
    if d is None:
        raise ValueError("gelu_backward needs a train-mode cache; an infer-mode forward keeps no derivative")
    # d is single-use, so it takes the product
    return np.multiply(upstream, d, out=d)


# ---------------------------------------------------------------------------
# batch normalization over (n, y, x) per channel

def batch_norm_forward(x: Tensor, s: BatchNormState, mode: str):
    _check_mode("batch_norm", mode)
    n, h, w, c = x.shape
    if s.gamma.shape != (c,):
        raise ShapeError(f"batch norm state has {s.gamma.shape[0]} channels, input has {c}")
    flat = x.reshape(-1, c)
    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ValueError(f"batch_norm train mode needs >= 2 elements per channel, got {m}")
        mean = flat.mean(axis=0)
        xhat = flat - mean
        out = np.multiply(xhat, xhat)  # squared deviations, until it holds the output
        var = out.sum(axis=0) / m  # biased estimator, as np.var computes it
        inv = 1.0 / np.sqrt(var + s.epsilon)
        s.running_mean[:] = s.momentum * s.running_mean + (1.0 - s.momentum) * mean
        s.running_var[:] = s.momentum * s.running_var + (1.0 - s.momentum) * var
        xhat *= inv
        np.multiply(xhat, s.gamma, out=out)
        out += s.beta
        saved = {"xhat": xhat.reshape(x.shape), "inv": inv, "gamma": s.gamma, "mode": mode}
    else:
        # one scale and one shift per channel: x (gamma inv) + (beta - mean gamma inv)
        inv = 1.0 / np.sqrt(s.running_var + s.epsilon)
        scale = s.gamma * inv
        out = np.multiply(flat, scale)
        out += s.beta - s.running_mean * scale
        # train-mode calls update running_mean in place, so the cache keeps a copy
        saved = {"x": x, "mean": s.running_mean.copy(), "inv": inv, "gamma": s.gamma, "mode": mode}
    out = out.reshape(x.shape).astype(x.dtype, copy=False)
    return out, LayerCache("batch_norm", out.shape, saved)


def batch_norm_backward(cache: LayerCache, upstream: Tensor):
    saved = _consume(cache, "batch_norm", upstream)
    inv, gamma = saved["inv"], saved["gamma"]
    c = gamma.shape[0]
    u = upstream.reshape(-1, c)
    if saved["mode"] == "train":
        xh = saved["xhat"].reshape(-1, c)
    else:  # the infer forward never forms xhat
        xh = saved["x"].reshape(-1, c) - saved["mean"]
        xh *= inv
    dgamma = np.einsum("ij,ij->j", u, xh)
    dbeta = u.sum(axis=0)
    if saved["mode"] == "train":
        m = u.shape[0]
        # full backward through the batch statistics:
        # dx = gamma * inv * (upstream - (dbeta + xhat * dgamma) / m)
        dx = np.multiply(xh, dgamma / m)
        dx += dbeta / m
        np.subtract(u, dx, out=dx)
        dx *= gamma * inv
    else:
        dx = u * (gamma * inv)
    return dx.reshape(upstream.shape).astype(upstream.dtype, copy=False), dgamma, dbeta


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
    # einsum without `optimize` makes no BLAS call, so a row's logits do not
    # depend on how many rows come with it
    out = np.einsum("nd,dk->nk", x, p.weights)
    out += p.bias
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
