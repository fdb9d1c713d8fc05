"""Every analytic backward pass against central finite differences.

Each check projects the layer output onto a fixed random direction to get
a scalar; the analytic gradient is one backward call with that projection
as upstream, the reference is finite_diff_grad in float64 at h=1e-5.
"""

import numpy as np
import pytest

from scenemixer import layers
from scenemixer.layers import BatchNormState, ConvParams
from scenemixer.numerics import finite_diff_grad

from conftest import max_rel_err

SEEDS = [0, 1, 2, 3, 4]
H = 1e-5
TOL = 1e-4


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _proj(rng, shape):
    return rng.standard_normal(shape)


def _check(analytic, numeric):
    assert max_rel_err(analytic, numeric) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_patch_embed_grads(seed):
    rng = _rng(seed)
    x = rng.standard_normal((2, 4, 4, 2))
    w = rng.standard_normal((2, 2, 2, 3))
    b = rng.standard_normal(3)
    out, cache = layers.patch_embed_forward(x, ConvParams(w, b))
    r = _proj(rng, out.shape)
    dx, dw, db = layers.patch_embed_backward(cache, r)

    def run(x_, w_, b_):
        return float(np.sum(layers.patch_embed_forward(x_, ConvParams(w_, b_))[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, w, b), x, H))
    _check(dw, finite_diff_grad(lambda t: run(x, t, b), w, H))
    _check(db, finite_diff_grad(lambda t: run(x, w, t), b, H))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [3, 5])
def test_depthwise_grads(seed, k):
    rng = _rng(seed)
    x = rng.standard_normal((2, 6, 5, 3))
    w = rng.standard_normal((k, k, 3))
    b = rng.standard_normal(3)
    out, cache = layers.depthwise_conv_forward(x, ConvParams(w, b))
    r = _proj(rng, out.shape)
    dx, dw, db = layers.depthwise_conv_backward(cache, r, x)

    def run(x_, w_, b_):
        return float(np.sum(layers.depthwise_conv_forward(x_, ConvParams(w_, b_))[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, w, b), x, H))
    _check(dw, finite_diff_grad(lambda t: run(x, t, b), w, H))
    _check(db, finite_diff_grad(lambda t: run(x, w, t), b, H))


def _exact(rng, shape):
    """Dyadic values in [0.5, 1]. Every product and sum the depthwise layer
    forms from them is exact in float32, and positive terms keep each gradient
    entry away from zero, where the central difference's own rounding would
    dominate the relative error."""
    return rng.integers(32, 65, shape) / 64.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 5, 9])
def test_depthwise_grads_across_batch_blocks(n, k, dtype):
    # dw sums over the whole batch at once: 1, 5 and 9 images check that sum at several sizes
    rng = _rng(10 * n + k)
    x, w, b = _exact(rng, (n, 6, 5, 3)), _exact(rng, (k, k, 3)), _exact(rng, 3)
    r = _exact(rng, (n, 6, 5, 3))
    xd = x.astype(dtype)
    out, cache = layers.depthwise_conv_forward(xd, ConvParams(w.astype(dtype), b.astype(dtype)))
    dx, dw, db = layers.depthwise_conv_backward(cache, r.astype(dtype), xd)
    assert out.dtype == dx.dtype == dw.dtype == db.dtype == dtype

    def run(x_, w_, b_):
        return float(np.sum(layers.depthwise_conv_forward(x_, ConvParams(w_, b_))[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, w, b), x, H))
    _check(dw, finite_diff_grad(lambda t: run(x, t, b), w, H))
    _check(db, finite_diff_grad(lambda t: run(x, w, t), b, H))


@pytest.mark.parametrize("seed", SEEDS)
def test_pointwise_grads(seed):
    rng = _rng(seed)
    x = rng.standard_normal((2, 3, 4, 3))
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(5)
    out, cache = layers.pointwise_conv_forward(x, ConvParams(w, b))
    r = _proj(rng, out.shape)
    dx, dw, db = layers.pointwise_conv_backward(cache, r)

    def run(x_, w_, b_):
        return float(np.sum(layers.pointwise_conv_forward(x_, ConvParams(w_, b_))[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, w, b), x, H))
    _check(dw, finite_diff_grad(lambda t: run(x, t, b), w, H))
    _check(db, finite_diff_grad(lambda t: run(x, w, t), b, H))


@pytest.mark.parametrize("seed", SEEDS)
def test_gelu_grad(seed):
    rng = _rng(seed)
    x = rng.standard_normal((4, 7)) * 2
    out, cache = layers.gelu_forward(x, "train")
    r = _proj(rng, out.shape)
    dx = layers.gelu_backward(cache, r)
    _check(dx, finite_diff_grad(lambda t: float(np.sum(layers.gelu_forward(t, "infer")[0] * r)), x, H))


def _fresh_state(c, gamma, beta):
    return BatchNormState(gamma.copy(), beta.copy(), np.zeros(c), np.ones(c), 0.99, 1e-3)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["train"])  # an infer-mode forward keeps no cache to run a backward on
def test_batch_norm_grads(seed, mode):
    rng = _rng(seed)
    c = 3
    x = rng.standard_normal((2, 4, 4, c)) * 1.5 + 0.3
    gamma = rng.standard_normal(c) + 1.0
    beta = rng.standard_normal(c)
    out, cache = layers.batch_norm_forward(x, _fresh_state(c, gamma, beta), mode)
    r = _proj(rng, out.shape)
    dx, dgamma, dbeta = layers.batch_norm_backward(cache, r)

    def run(x_, g_, b_):
        return float(np.sum(layers.batch_norm_forward(x_, _fresh_state(c, g_, b_), mode)[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, gamma, beta), x, H))
    _check(dgamma, finite_diff_grad(lambda t: run(x, t, beta), gamma, H))
    _check(dbeta, finite_diff_grad(lambda t: run(x, gamma, t), beta, H))


@pytest.mark.parametrize("seed", SEEDS)
def test_gap_grad(seed):
    rng = _rng(seed)
    x = rng.standard_normal((2, 3, 5, 4))
    out, cache = layers.global_avg_pool_forward(x)
    r = _proj(rng, out.shape)
    dx = layers.global_avg_pool_backward(cache, r)
    _check(dx, finite_diff_grad(lambda t: float(np.sum(layers.global_avg_pool_forward(t)[0] * r)), x, H))


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_grads(seed):
    rng = _rng(seed)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    out, cache = layers.dense_forward(x, ConvParams(w, b))
    r = _proj(rng, out.shape)
    dx, dw, db = layers.dense_backward(cache, r)

    def run(x_, w_, b_):
        return float(np.sum(layers.dense_forward(x_, ConvParams(w_, b_))[0] * r))

    _check(dx, finite_diff_grad(lambda t: run(t, w, b), x, H))
    _check(dw, finite_diff_grad(lambda t: run(x, t, b), w, H))
    _check(db, finite_diff_grad(lambda t: run(x, w, t), b, H))


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_grad(seed):
    rng = _rng(seed)
    x = rng.standard_normal((3, 5)) * 2
    out, cache = layers.softmax_forward(x)
    r = _proj(rng, out.shape)
    dx = layers.softmax_backward(cache, r)
    _check(dx, finite_diff_grad(lambda t: float(np.sum(layers.softmax_forward(t)[0] * r)), x, H))
