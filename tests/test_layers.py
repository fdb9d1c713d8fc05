import math

import numpy as np
import pytest

from scenemixer import layers
from scenemixer.layers import BatchNormState, ConvParams
from scenemixer.numerics import ShapeError

from conftest import max_rel_err


def _params(w, b=None):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[-1], dtype=w.dtype)
    return ConvParams(w, np.asarray(b, dtype=w.dtype))


# ---------------------------------------------------------------------------
# patch embedding

def test_patch_embed_all_ones_patch():
    x = np.ones((1, 4, 4, 1))
    p = _params(np.ones((4, 4, 1, 1)))
    out = layers.patch_embed_forward(x, p)[0]
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 16.0


def test_patch_embed_grid_shape():
    x = np.zeros((1, 8, 8, 1))
    out = layers.patch_embed_forward(x, _params(np.zeros((4, 4, 1, 1))))[0]
    assert out.shape == (1, 2, 2, 1)


def test_patch_embed_default_grid():
    x = np.zeros((2, 64, 64, 3), np.float32)
    p = ConvParams(np.zeros((4, 4, 3, 128), np.float32), np.zeros(128, np.float32))
    assert layers.patch_embed_forward(x, p)[0].shape == (2, 16, 16, 128)


def test_patch_embed_rejects_nondivisible():
    x = np.zeros((1, 6, 8, 1))
    with pytest.raises(ShapeError):
        layers.patch_embed_forward(x, _params(np.zeros((4, 4, 1, 1))))[0]


def test_patch_embed_matches_loops(rng):
    # brute-force oracle: walk patches and filters explicitly
    x = rng.standard_normal((2, 8, 8, 3))
    p = _params(rng.standard_normal((4, 4, 3, 5)), rng.standard_normal(5))
    out = layers.patch_embed_forward(x, p)[0]
    for n in range(2):
        for gy in range(2):
            for gx in range(2):
                for d in range(5):
                    acc = p.bias[d]
                    for dy in range(4):
                        for dx in range(4):
                            for c in range(3):
                                acc += x[n, 4 * gy + dy, 4 * gx + dx, c] * p.weights[dy, dx, c, d]
                    assert abs(out[n, gy, gx, d] - acc) < 1e-9


# ---------------------------------------------------------------------------
# depthwise convolution

def test_depthwise_zero_padding_tap_counts():
    x = np.ones((1, 3, 3, 1))
    out = layers.depthwise_conv_forward(x, _params(np.ones((3, 3, 1))))[0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
    assert np.array_equal(out[0, :, :, 0], expected)


def test_depthwise_channel_independence(rng):
    x = rng.standard_normal((1, 6, 6, 2))
    p = _params(rng.standard_normal((3, 3, 2)), rng.standard_normal(2))
    base = layers.depthwise_conv_forward(x, p)[0]
    bumped = x.copy()
    bumped[..., 1] += rng.standard_normal((1, 6, 6))
    out = layers.depthwise_conv_forward(bumped, p)[0]
    assert np.array_equal(out[..., 0], base[..., 0])
    assert not np.array_equal(out[..., 1], base[..., 1])


def _direct_depthwise(x, w, b, k):
    """Six-loop direct convolution: the independent oracle."""
    n, h, ww, c = x.shape
    pad = k // 2
    out = np.zeros_like(x)
    for ni in range(n):
        for y in range(h):
            for xx in range(ww):
                for ci in range(c):
                    acc = b[ci]
                    for dy in range(k):
                        for dx in range(k):
                            sy, sx = y + dy - pad, xx + dx - pad
                            if 0 <= sy < h and 0 <= sx < ww:
                                acc += w[dy, dx, ci] * x[ni, sy, sx, ci]
                    out[ni, y, xx, ci] = acc
    return out


@pytest.mark.parametrize("k", [3, 5])
def test_depthwise_matches_direct_oracle(rng, k):
    x = rng.standard_normal((1, 5, 5, 2))
    p = _params(rng.standard_normal((k, k, 2)), rng.standard_normal(2))
    got = layers.depthwise_conv_forward(x, p)[0]
    want = _direct_depthwise(x, p.weights, p.bias, k)
    assert max_rel_err(got, want) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_batch_equals_per_image_bytes(rng, dtype):
    # 9 images span three blocks of the tap loop, the last one partial
    x = rng.standard_normal((9, 6, 5, 3)).astype(dtype)
    p = ConvParams(rng.standard_normal((5, 5, 3)).astype(dtype), rng.standard_normal(3).astype(dtype))
    whole = layers.depthwise_conv_forward(x, p)[0]
    single = np.concatenate([layers.depthwise_conv_forward(x[i : i + 1], p)[0] for i in range(len(x))])
    assert whole.dtype == dtype and whole.tobytes() == single.tobytes()


def test_depthwise_rejects_even_kernel():
    x = np.zeros((1, 4, 4, 1))
    with pytest.raises(ValueError):
        layers.depthwise_conv_forward(x, _params(np.zeros((2, 2, 1))))[0]


def test_depthwise_rejects_channel_mismatch():
    x = np.zeros((1, 4, 4, 3))
    with pytest.raises(ShapeError):
        layers.depthwise_conv_forward(x, _params(np.zeros((3, 3, 2))))[0]


def test_depthwise_translation_equivariance(rng):
    # shifting the input shifts interior outputs whose receptive field
    # stays clear of the padding
    k, h = 3, 8
    x = rng.standard_normal((1, h, h, 2))
    p = _params(rng.standard_normal((k, k, 2)))
    base = layers.depthwise_conv_forward(x, p)[0]
    shifted = np.roll(x, 1, axis=1)
    out = layers.depthwise_conv_forward(shifted, p)[0]
    # rows 2..h-2 of the shifted output equal rows 1..h-3 of the base
    assert np.allclose(out[:, 2 : h - 1, 1 : h - 1], base[:, 1 : h - 2, 1 : h - 1], atol=1e-12)


# ---------------------------------------------------------------------------
# pointwise convolution

def test_pointwise_small_case():
    x = np.array([[[[1.0, 2.0]]]])
    w = np.array([[1.0, 1.0], [1.0, -1.0]])  # out0 sums, out1 differences
    out = layers.pointwise_conv_forward(x, _params(w))[0]
    assert out[0, 0, 0].tolist() == [3.0, -1.0]


def test_pointwise_identity(rng):
    x = rng.standard_normal((2, 3, 3, 4))
    out = layers.pointwise_conv_forward(x, _params(np.eye(4)))[0]
    assert np.allclose(out, x, atol=1e-12)


def test_pointwise_commutes_with_spatial_permutation(rng):
    x = rng.standard_normal((1, 4, 5, 3))
    p = _params(rng.standard_normal((3, 6)), rng.standard_normal(6))
    perm_y = rng.permutation(4)
    perm_x = rng.permutation(5)
    a = layers.pointwise_conv_forward(x[:, perm_y][:, :, perm_x], p)[0]
    b = layers.pointwise_conv_forward(x, p)[0][:, perm_y][:, :, perm_x]
    assert np.array_equal(a, b)


def test_pointwise_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        layers.pointwise_conv_forward(np.zeros((1, 2, 2, 3)), _params(np.zeros((4, 2))))[0]


# ---------------------------------------------------------------------------
# GELU

def _phi_series(x, terms=40):
    # normal CDF from the error-function Taylor series: an oracle that
    # shares nothing with scipy
    z = x / math.sqrt(2.0)
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 0.5 + total / math.sqrt(math.pi)


def test_gelu_zero():
    assert layers.gelu_forward(np.zeros(1))[0][0] == 0.0


def test_gelu_one_matches_series():
    want = 1.0 * _phi_series(1.0)
    got = layers.gelu_forward(np.array([1.0]))[0][0]
    assert abs(got - want) < 1e-6
    assert abs(got - 0.8413447460685429) < 1e-6


def test_gelu_negative_tail():
    assert abs(layers.gelu_forward(np.array([-10.0]))[0][0]) < 1e-9


# ---------------------------------------------------------------------------
# batch normalization

def _bn_state(c, eps=1e-3, momentum=0.99, dtype=np.float64):
    return BatchNormState(
        np.ones(c, dtype), np.zeros(c, dtype), np.zeros(c, dtype), np.ones(c, dtype),
        momentum=momentum, epsilon=eps,
    )


def test_batch_norm_two_values():
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
    out = layers.batch_norm_forward(x, _bn_state(1), "train")[0]
    want = 1.0 / math.sqrt(1.0 + 1e-3)
    assert abs(out[0, 0, 0, 0] + want) < 1e-12
    assert abs(out[1, 0, 0, 0] - want) < 1e-12


def test_batch_norm_constant_channel():
    x = np.full((1, 2, 2, 1), 5.0)
    out = layers.batch_norm_forward(x, _bn_state(1), "train")[0]
    assert np.max(np.abs(out)) < 1e-9


def test_batch_norm_infer_near_identity(rng):
    x = rng.standard_normal((2, 3, 3, 4))
    out = layers.batch_norm_forward(x, _bn_state(4), "infer")[0]
    assert np.allclose(out, x / math.sqrt(1.0 + 1e-3), atol=1e-12)


def test_batch_norm_train_statistics(rng):
    # exactly standardized input, so the output variance must be 1/(1+eps)
    x = rng.standard_normal((4, 5, 5, 3)) * 3.0 + 1.5
    x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
    out = layers.batch_norm_forward(x, _bn_state(3), "train")[0]
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.max(np.abs(mean)) < 1e-6
    target = 1.0 / (1.0 + 1e-3)
    assert np.all(var > target * (1 - 1e-5)) and np.all(var < target * (1 + 1e-5))


def test_batch_norm_updates_running_stats(rng):
    x = rng.standard_normal((2, 4, 4, 2)) + 2.0
    s = _bn_state(2, momentum=0.9)
    layers.batch_norm_forward(x, s, "train")[0]
    want_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 1, 2))
    want_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1, 2))
    assert np.allclose(s.running_mean, want_mean, atol=1e-12)
    assert np.allclose(s.running_var, want_var, atol=1e-12)


def test_batch_norm_infer_does_not_mutate(rng):
    x = rng.standard_normal((2, 4, 4, 2))
    s = _bn_state(2)
    before = (s.running_mean.copy(), s.running_var.copy())
    layers.batch_norm_forward(x, s, "infer")[0]
    assert np.array_equal(s.running_mean, before[0])
    assert np.array_equal(s.running_var, before[1])


def test_batch_norm_rejects_single_element():
    with pytest.raises(ValueError):
        layers.batch_norm_forward(np.zeros((1, 1, 1, 2)), _bn_state(2), "train")[0]


# ---------------------------------------------------------------------------
# global average pooling

def test_gap_small_case():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    assert layers.global_avg_pool_forward(x)[0][0, 0] == 2.5


def test_gap_constant():
    x = np.full((2, 3, 3, 4), 7.25)
    assert np.all(layers.global_avg_pool_forward(x)[0] == 7.25)


def test_gap_matches_reduce_mean(rng):
    x = rng.standard_normal((2, 4, 5, 3))
    assert np.array_equal(layers.global_avg_pool_forward(x)[0], np.mean(x, axis=(1, 2)))


# ---------------------------------------------------------------------------
# dense

def test_dense_small_case():
    x = np.array([[1.0, 0.0]])
    out = layers.dense_forward(x, _params(np.array([[2.0, 3.0], [5.0, 7.0]]), [1.0, 1.0]))[0]
    assert out[0].tolist() == [3.0, 4.0]


def test_dense_identity(rng):
    x = rng.standard_normal((3, 4))
    assert np.allclose(layers.dense_forward(x, _params(np.eye(4)))[0], x, atol=1e-15)


def test_dense_matches_loops(rng):
    x = rng.standard_normal((3, 5))
    p = _params(rng.standard_normal((5, 4)), rng.standard_normal(4))
    out = layers.dense_forward(x, p)[0]
    for i in range(3):
        for j in range(4):
            acc = p.bias[j]
            for f in range(5):
                acc += x[i, f] * p.weights[f, j]
            assert abs(out[i, j] - acc) < 1e-12


def test_dense_rejects_mismatch():
    with pytest.raises(ShapeError):
        layers.dense_forward(np.zeros((2, 3)), _params(np.zeros((4, 2))))[0]


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    out = layers.softmax_forward(np.zeros((1, 10)))[0]
    assert np.allclose(out, 0.1, atol=1e-12)


def test_softmax_large_values_no_overflow():
    out = layers.softmax_forward(np.array([[1000.0, 1000.0]]))[0]
    assert np.allclose(out, [0.5, 0.5])
    assert np.all(np.isfinite(out))


def test_softmax_shift_invariance(rng):
    x = rng.standard_normal((4, 6))
    shifted = x + 3.7
    assert np.max(np.abs(layers.softmax_forward(x)[0] - layers.softmax_forward(shifted)[0])) < 1e-12


def test_softmax_rows_and_argmax(rng):
    x = rng.standard_normal((8, 5)).astype(np.float32) * 4
    out = layers.softmax_forward(x)[0]
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6
    assert np.array_equal(np.argmax(out, axis=1), np.argmax(x, axis=1))


# ---------------------------------------------------------------------------
# backward plumbing contracts (values are covered by test_gradients)

def test_dense_backward_bias_is_column_sums(rng):
    x = rng.standard_normal((6, 3))
    out, cache = layers.dense_forward(x, _params(rng.standard_normal((3, 4))))
    _, _, db = layers.dense_backward(cache, np.ones_like(out))
    assert np.allclose(db, 6.0, atol=1e-12)


def test_zero_upstream_gives_zero_grads(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out, cache = layers.depthwise_conv_forward(x, _params(rng.standard_normal((3, 3, 3))))
    dx, dw, db = layers.depthwise_conv_backward(cache, np.zeros_like(out))
    assert not dx.any() and not dw.any() and not db.any()


def test_cache_reuse_rejected(rng):
    x = rng.standard_normal((2, 3))
    out, cache = layers.dense_forward(x, _params(rng.standard_normal((3, 2))))
    layers.dense_backward(cache, np.ones_like(out))
    with pytest.raises(RuntimeError):
        layers.dense_backward(cache, np.ones_like(out))


def test_backward_shape_mismatch_rejected(rng):
    x = rng.standard_normal((2, 3))
    _, cache = layers.dense_forward(x, _params(rng.standard_normal((3, 2))))
    with pytest.raises(ShapeError):
        layers.dense_backward(cache, np.ones((2, 3)))
