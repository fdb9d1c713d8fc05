import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

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
    # each image's output must not depend on the batch around it, byte for byte
    x = rng.standard_normal((9, 6, 5, 3)).astype(dtype)
    p = ConvParams(rng.standard_normal((5, 5, 3)).astype(dtype), rng.standard_normal(3).astype(dtype))
    whole = layers.depthwise_conv_forward(x, p)[0]
    single = np.concatenate([layers.depthwise_conv_forward(x[i : i + 1], p)[0] for i in range(len(x))])
    assert whole.dtype == dtype and whole.tobytes() == single.tobytes()


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
def test_depthwise_mixed_dtypes_keep_input_dtypes(rng, x_dtype, w_dtype):
    x = rng.standard_normal((2, 5, 4, 3)).astype(x_dtype)
    p = ConvParams(rng.standard_normal((3, 3, 3)).astype(w_dtype), rng.standard_normal(3).astype(w_dtype))
    out, cache = layers.depthwise_conv_forward(x, p)
    upstream = rng.standard_normal(out.shape).astype(w_dtype)
    dx, dw, db = layers.depthwise_conv_backward(cache, upstream, x)
    assert out.dtype == dx.dtype == x_dtype
    assert dw.dtype == w_dtype and db.dtype == upstream.dtype


def _window_contraction(x, w):
    """Reference: one einsum over the 6-D (n, y, x, c, k, k) window view of the padded input."""
    pad = w.shape[0] // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    return np.einsum("nyxcij,ijc->nyxc", sliding_window_view(xp, w.shape[:2], axis=(1, 2)), w)


_DTYPE_PAIRS = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64), (np.float64, np.float32)]


@pytest.mark.parametrize("x_dtype, w_dtype", _DTYPE_PAIRS)
@pytest.mark.parametrize("shape", [(1, 5, 7, 3), (3, 9, 4, 16), (2, 1, 1, 8), (0, 3, 4, 2)])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_depthwise_row_taps_match_window_contraction(rng, k, shape, x_dtype, w_dtype):
    x = rng.standard_normal(shape).astype(x_dtype)
    p = ConvParams(rng.standard_normal((k, k, shape[3])).astype(w_dtype), rng.standard_normal(shape[3]).astype(w_dtype))
    out, cache = layers.depthwise_conv_forward(x, p)
    want = _window_contraction(x, p.weights).astype(x_dtype)
    want += p.bias
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
    upstream = rng.standard_normal(shape).astype(x_dtype)
    dx = layers.depthwise_conv_backward(cache, upstream, x)[0]
    want_dx = _window_contraction(upstream, p.weights[::-1, ::-1]).astype(x_dtype)
    assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("x_dtype, w_dtype", _DTYPE_PAIRS)
@pytest.mark.parametrize("k", [3, 5])
def test_depthwise_forward_bytes_ignore_input_layout(rng, k, x_dtype, w_dtype):
    # the input is copied into a fresh C-ordered zero-padded buffer, so its row view has one
    # set of strides; a 6-D window einsum over an F-ordered float64 input with float32
    # weights would sum in another order
    x = rng.standard_normal((1, 5, 7, 3)).astype(x_dtype)
    p = ConvParams(rng.standard_normal((k, k, 3)).astype(w_dtype), rng.standard_normal(3).astype(w_dtype))
    want = layers.depthwise_conv_forward(np.ascontiguousarray(x), p)[0].tobytes()
    f_ordered = np.asfortranarray(x)
    channel_strided = np.repeat(x, 2, axis=3)[..., ::2]
    assert f_ordered.flags.f_contiguous and not channel_strided.flags.c_contiguous
    for layout in (f_ordered, channel_strided):
        assert layers.depthwise_conv_forward(layout, p)[0].tobytes() == want


@pytest.mark.parametrize("x_dtype, w_dtype", _DTYPE_PAIRS)
@pytest.mark.parametrize("shape", [(1, 5, 7, 3), (3, 4, 6, 5), (2, 1, 1, 8)])
@pytest.mark.parametrize("k", [3, 5])
def test_depthwise_backward_bytes_ignore_input_layout(rng, k, shape, x_dtype, w_dtype):
    # dw's window view reads the zero-padded buffer, which is C-ordered whatever x's layout
    x = rng.standard_normal(shape).astype(x_dtype)
    p = ConvParams(rng.standard_normal((k, k, shape[3])).astype(w_dtype),
                   rng.standard_normal(shape[3]).astype(w_dtype))
    upstream = rng.standard_normal(shape).astype(x_dtype)

    def grads(x):
        cache = layers.depthwise_conv_forward(x, p)[1]
        return [g.tobytes() for g in layers.depthwise_conv_backward(cache, upstream, x)]

    want = grads(np.ascontiguousarray(x))
    f_ordered = np.asfortranarray(x)
    channel_strided = np.repeat(x, 2, axis=3)[..., ::2]
    assert not channel_strided.flags.c_contiguous
    for layout in (f_ordered, channel_strided):
        assert grads(layout) == want


def test_depthwise_rejects_even_kernel():
    x = np.zeros((1, 4, 4, 1))
    with pytest.raises(ValueError):
        layers.depthwise_conv_forward(x, _params(np.zeros((2, 2, 1))))[0]


def test_depthwise_rejects_channel_mismatch():
    x = np.zeros((1, 4, 4, 3))
    with pytest.raises(ShapeError):
        layers.depthwise_conv_forward(x, _params(np.zeros((3, 3, 2))))[0]


def test_depthwise_backward_takes_the_forward_input_and_checks_its_shape(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out, cache = layers.depthwise_conv_forward(x, _params(rng.standard_normal((3, 3, 3))))
    assert list(cache.saved) == ["weights"]  # the caller holds the input
    with pytest.raises(ShapeError, match="input shape"):
        layers.depthwise_conv_backward(cache, out, x[:1])
    assert not cache.consumed
    layers.depthwise_conv_backward(cache, out, x)


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
    # shares nothing with math.erfc or scipy
    z = x / math.sqrt(2.0)
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 0.5 + total / math.sqrt(math.pi)


def test_gelu_zero():
    assert layers.gelu_forward(np.zeros(1), "infer")[0][0] == 0.0


def test_gelu_one_matches_series():
    want = 1.0 * _phi_series(1.0)
    got = layers.gelu_forward(np.array([1.0]), "infer")[0][0]
    assert abs(got - want) < 1e-6
    assert abs(got - 0.8413447460685429) < 1e-6


def test_gelu_negative_tail():
    assert abs(layers.gelu_forward(np.array([-10.0]), "infer")[0][0]) < 1e-9


F32_MAX = float(np.finfo(np.float32).max)
F32_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, F32_MAX, -F32_MAX], dtype=np.float32)
CDF_TOL = 3e-7  # absolute: the erfc fit's 7.5e-8 plus float32 rounding


def _normal_cdf(x):
    """The normal CDF of the 1-D array x, as `gelu_forward` computes it, over x as one slab."""
    cdf, t, e = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    with np.errstate(over="ignore"):  # as in gelu_forward: x*x overflows near float32 max
        layers._cdf_slab(x, t, e, cdf)
    return cdf


def test_float32_normal_cdf_matches_float64_ndtr():
    x = np.concatenate([np.linspace(-40, 40, 1_600_001, dtype=np.float32), F32_SPECIALS])
    got = _normal_cdf(x)
    want = ndtr(x.astype(np.float64))
    assert got.dtype == np.float32 and got.shape == x.shape
    assert np.array_equal(np.isnan(got), np.isnan(x))
    finite = ~np.isnan(x)
    assert np.max(np.abs(got[finite] - want[finite])) < CDF_TOL
    # the symmetry is exact at the special points, not merely within the bound
    assert list(got[: -len(F32_SPECIALS)][[0, -1]]) == [0.0, 1.0]
    assert list(got[-len(F32_SPECIALS) :][[0, 1, 2, 3, 5, 6]]) == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


def test_float32_gelu_non_finite_like_ndtr():
    with np.errstate(invalid="ignore"):
        got = layers.gelu_forward(F32_SPECIALS, "infer")[0]
        want = F32_SPECIALS * ndtr(F32_SPECIALS)
    assert got.dtype == np.float32
    assert got[2] == np.inf and np.isnan(got[3]) and np.isnan(got[4])  # +inf, -inf, NaN
    assert got.tobytes() == want.tobytes()


# 2**15 - 1 .. 2**15 + 1 end inside the first slab; _SLAB - 1 .. _SLAB + 1 straddle its bound
@pytest.mark.parametrize("size", [1, 32767, 32768, 32769, layers._SLAB - 1, layers._SLAB, layers._SLAB + 1])
def test_float32_normal_cdf_slab_edges(size):
    x = np.linspace(-9, 9, layers._SLAB + 1, dtype=np.float32)[:size]
    cdf = _normal_cdf(x)
    assert np.max(np.abs(cdf - ndtr(x.astype(np.float64)))) < CDF_TOL
    picks = np.unique(np.r_[np.arange(0, size, 997), size - 1])
    for mode in ("train", "infer"):
        out, cache = layers.gelu_forward(x, mode)
        assert out.shape == (size,)
        # gelu_forward's slab loop gives every element the CDF of the one-slab pass
        assert out.tobytes() == (x * cdf).tobytes(), mode
        # elementwise: where a value sits relative to the slab bounds does not change it
        single = [layers.gelu_forward(x[i : i + 1], mode) for i in picks]
        assert out[picks].tobytes() == np.concatenate([s[0] for s in single]).tobytes(), mode
        for key in cache.saved:  # train mode's derivative, the same way
            assert cache.saved[key][picks].tobytes() == np.concatenate([s[1].saved[key] for s in single]).tobytes()


def test_float32_gelu_batch_equals_per_image_bytes(rng):
    # images of 6,400 values, two more than fill a slab: the first slab bound falls inside an image
    x = (3 * rng.standard_normal((layers._SLAB // 6400 + 2, 10, 10, 64))).astype(np.float32)
    assert x.size > layers._SLAB and layers._SLAB % x[0].size
    for mode in ("train", "infer"):
        whole = layers.gelu_forward(x, mode)
        single = [layers.gelu_forward(x[i : i + 1], mode) for i in range(len(x))]
        assert whole[0].dtype == np.float32
        assert whole[0].tobytes() == np.concatenate([s[0] for s in single]).tobytes()
        assert whole[1].saved.keys() == single[0][1].saved.keys()
        for key in whole[1].saved:  # train mode's derivative, the same way
            assert whole[1].saved[key].tobytes() == np.concatenate([s[1].saved[key] for s in single]).tobytes()


def test_float64_gelu_cdf_matches_ndtr():
    # scipy is a reference here only; the library computes the CDF with math.erfc
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    x = np.concatenate([np.linspace(-40, 40, 800_001), specials])
    with np.errstate(invalid="ignore"):  # -inf * 0
        out = layers.gelu_forward(x, "infer")[0]
        cdf = _normal_cdf(x)
        want = x * cdf
    assert cdf.dtype == np.float64 and cdf.shape == x.shape
    assert np.max(np.abs(cdf[:-1] - ndtr(x[:-1]))) <= 1e-15
    assert list(cdf[-5:-1]) == [0.5, 0.5, 1.0, 0.0] and np.isnan(cdf[-1])
    assert out.dtype == np.float64 and out.tobytes() == want.tobytes()


def test_float32_gelu_derivative_matches_float64_analytic():
    x = np.linspace(-40, 40, 1_600_001, dtype=np.float32)
    out, cache = layers.gelu_forward(x, "train")
    x64 = x.astype(np.float64)
    want = ndtr(x64) + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
    d = cache.saved["d"]
    assert d.dtype == np.float32 and np.max(np.abs(d - want)) < 1e-6
    # both modes write the same output bytes
    assert out.tobytes() == layers.gelu_forward(x, "infer")[0].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_caches_only_the_train_derivative(rng, dtype):
    x = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
    _, train = layers.gelu_forward(x, "train")
    assert list(train.saved) == ["d"] and train.saved["d"].dtype == dtype
    out, infer = layers.gelu_forward(x, "infer")
    assert infer.saved == {}
    with pytest.raises(ValueError, match="train-mode cache"):
        layers.gelu_backward(infer, np.ones_like(out))


def test_gelu_backward_is_single_use(rng):
    x = rng.standard_normal((2, 5)).astype(np.float32)
    out, cache = layers.gelu_forward(x, "train")
    d = cache.saved["d"].copy()
    upstream = rng.standard_normal(out.shape).astype(np.float32)
    assert np.array_equal(layers.gelu_backward(cache, upstream), upstream * d)
    with pytest.raises(RuntimeError):
        layers.gelu_backward(cache, upstream)


@pytest.mark.parametrize("forward", [
    lambda x, mode: layers.gelu_forward(x, mode),
    lambda x, mode: layers.batch_norm_forward(x, _bn_state(2), mode),
], ids=["gelu", "batch_norm"])
def test_bad_mode_rejected(forward):
    with pytest.raises(ValueError, match="mode must be 'train' or 'infer'"):
        forward(np.zeros((2, 1, 1, 2)), "eval")


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


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_batch_norm_infer_matches_normalize_then_affine(rng, dtype, tol):
    c = 5
    x = (rng.standard_normal((3, 4, 4, c)) * 1.5 + 0.3).astype(dtype)
    s = BatchNormState(
        (rng.standard_normal(c) + 1.0).astype(dtype), rng.standard_normal(c).astype(dtype),
        (0.5 * rng.standard_normal(c)).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype),
        momentum=0.99, epsilon=1e-3,
    )
    before = [a.copy() for a in (x, s.gamma, s.beta, s.running_mean, s.running_var)]
    out = layers.batch_norm_forward(x, s, "infer")[0]
    m, v, g, b = (a.astype(np.float64) for a in (s.running_mean, s.running_var, s.gamma, s.beta))
    want = (x.astype(np.float64) - m) / np.sqrt(v + 1e-3) * g + b
    # relative to the largest output: float32 spacing alone is 1e-6 at |out| = 8
    assert out.dtype == dtype and np.max(np.abs(out - want)) < tol * np.max(np.abs(want))
    after = (x, s.gamma, s.beta, s.running_mean, s.running_var)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_batch_norm_rejects_single_element():
    with pytest.raises(ValueError):
        layers.batch_norm_forward(np.zeros((1, 1, 1, 2)), _bn_state(2), "train")[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_output_rebuilds_the_train_output_byte_for_byte(rng, dtype):
    x = (rng.standard_normal((4, 3, 5, 6)) * 3 + 1).astype(dtype)
    s = _bn_state(6, dtype=dtype)
    s.gamma[:] = rng.standard_normal(6)
    s.beta[:] = rng.standard_normal(6)
    whole = layers.batch_norm_forward(x, s, "train")
    # a chunk normalized with the statistics of the batch it is part of
    stats = layers.batch_norm_statistics(s, [layers.batch_norm_moments(x[:1]), layers.batch_norm_moments(x[1:])])
    chunk = layers.batch_norm_forward(x[1:], s, "train", stats)
    for out, cache in (whole, chunk):
        rebuilt = layers.batch_norm_output(cache)
        assert rebuilt.dtype == dtype and rebuilt.shape == out.shape and rebuilt.tobytes() == out.tobytes()
        assert rebuilt is not out and not cache.consumed
        layers.batch_norm_backward(cache, np.ones_like(out), layers.batch_norm_partials(cache, np.ones_like(out)))


def test_batch_norm_output_needs_an_unconsumed_train_cache(rng):
    x = rng.standard_normal((2, 3, 3, 2))
    with pytest.raises(ValueError, match="train-mode"):
        layers.batch_norm_output(layers.batch_norm_forward(x, _bn_state(2), "infer")[1])
    with pytest.raises(ValueError, match="'gelu' cache"):
        layers.batch_norm_output(layers.gelu_forward(x, "train")[1])
    out, cache = layers.batch_norm_forward(x, _bn_state(2), "train")
    layers.batch_norm_backward(cache, out)
    with pytest.raises(RuntimeError, match="consumed"):
        layers.batch_norm_output(cache)


@pytest.mark.parametrize("reader", ["gelu_backward", "batch_norm_backward", "batch_norm_partials", "batch_norm_output"])
def test_every_cache_reader_refuses_an_infer_mode_cache_and_leaves_it_unconsumed(rng, reader):
    x = rng.standard_normal((2, 3, 3, 2))
    if reader.startswith("gelu"):
        out, cache = layers.gelu_forward(x, "infer")
    else:
        out, cache = layers.batch_norm_forward(x, _bn_state(2), "infer")
    assert cache.saved == {}
    args = (cache,) if reader == "batch_norm_output" else (cache, np.ones_like(out))
    with pytest.raises(ValueError, match="train-mode cache"):
        getattr(layers, reader)(*args)
    assert not cache.consumed


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_rows_do_not_depend_on_row_count(rng, dtype):
    # BLAS takes a 1-row product through gemv and rounds some row counts of
    # a gemm differently; an image's logits must not depend on its batch
    x = rng.standard_normal((200, 128)).astype(dtype)
    p = ConvParams(rng.standard_normal((128, 10)).astype(dtype), rng.standard_normal(10).astype(dtype))
    full = layers.dense_forward(x, p)[0]
    for n in range(1, 200):
        assert layers.dense_forward(x[:n], p)[0].tobytes() == full[:n].tobytes(), n


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
    dx, dw, db = layers.depthwise_conv_backward(cache, np.zeros_like(out), x)
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
