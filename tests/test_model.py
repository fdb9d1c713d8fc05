import dataclasses
import math
import re
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemixer import analyzer, layers
from scenemixer import model as sm
from scenemixer import train as tr
from scenemixer.numerics import ShapeError, finite_diff_grad

from conftest import MEGABYTE, assert_bounded_excerpt, max_rel_err, run_with_file_size_limit

TINY = sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, embed_dim=2,
                      depth=1, kernels=(3, 5), num_classes=2)


def test_build_is_deterministic():
    a = sm.build(sm.ModelConfig.eurosat_default(), seed=7)
    b = sm.build(sm.ModelConfig.eurosat_default(), seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name


def test_build_seed_changes_weights():
    a = sm.build(TINY, seed=1)
    b = sm.build(TINY, seed=2)
    assert not np.array_equal(a.params["embed.weights"], b.params["embed.weights"])


def test_build_scalar_count_default():
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    assert sum(t.size for t in net.all_tensors().values()) == 94_090


def test_config_rejects_nondivisible_input():
    with pytest.raises(ValueError, match="not divisible"):
        sm.ModelConfig(input_h=63, input_w=64, input_c=3).validate()


def test_config_rejects_zero_depth():
    with pytest.raises(ValueError, match="depth"):
        sm.ModelConfig(input_h=64, input_w=64, input_c=3, depth=0).validate()


def test_config_rejects_repeated_kernel():
    with pytest.raises(ValueError, match="kernels must be distinct"):
        sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, kernels=(5, 5)).validate()


def test_forward_probs_shape_and_rowsums(rng):
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((2, 64, 64, 3), dtype=np.float32)
    probs, caches = sm.forward(net, x, "infer")
    assert probs.shape == (2, 10)
    assert caches is None
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-5


def test_forward_block_shapes_stay_constant(rng):
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((1, 64, 64, 3), dtype=np.float32)
    _, caches = sm.forward(net, x, "train")
    (chunk,) = caches.chunks
    for block in chunk.blocks:
        assert block.bn.out_shape == (1, 16, 16, 128)


def test_forward_rejects_wrong_shape(rng):
    net = sm.build(TINY, seed=0)
    with pytest.raises(ShapeError):
        sm.forward(net, rng.random((1, 8, 8, 1), dtype=np.float32), "infer")


def test_infer_forward_frees_each_block_before_the_next(rng):
    # an activation is one (8, 16, 16, 128) float32 array; a forward that frees
    # each block's intermediates, its summed branch outputs and the patch
    # embedding's im2col copy of the input before the next block peaks at 4.77
    # of them at 8 images and 4.79 at 64. One that keeps the last branch
    # output alive through the pointwise conv and GELU peaks at 5.26 and 5.28,
    # one that keeps the im2col copy alive higher still, and one that keeps a
    # block's intermediates alive into the next block at about 8.65. At 64
    # images only chunking keeps the peak there: one 64-image pass reads 51
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    for n in (8, 64):
        x = rng.random((n, 64, 64, 3), dtype=np.float32)
        sm.forward(net, x, "infer")  # the first call also allocates numpy's one-time state
        tracemalloc.start()
        try:
            sm.forward(net, x, "infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activations = peak / (8 * 16 * 16 * 128 * 4)
        assert activations <= 5.0, f"{n} images: peak of {activations:.2f} activations"


@pytest.mark.parametrize("dtype, per_chunk", [(np.float32, 8), (np.float64, 4)])
def test_chunked_infer_forward_matches_one_pass(rng, monkeypatch, dtype, per_chunk):
    """Chunks of 1 MiB of block activation give each image the bytes of a
    forward over that image alone, including a last chunk of one image."""
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0, dtype=dtype)
    x = rng.random((20, 64, 64, 3)).astype(dtype)
    alone = np.concatenate([sm.forward(net, x[i : i + 1], "infer")[0] for i in range(len(x))])
    embeds = []
    real_embed = layers.patch_embed_forward

    def embed(xb, p):
        embeds.append(len(xb))
        return real_embed(xb, p)

    monkeypatch.setattr(layers, "patch_embed_forward", embed)
    for n in (7, 8, 9, 20):
        embeds.clear()
        chunked, _ = sm.forward(net, x[:n], "infer")
        assert embeds == [min(per_chunk, n - s) for s in range(0, n, per_chunk)], n
        assert chunked.dtype == dtype and chunked.tobytes() == alone[:n].tobytes(), n


def test_chunked_infer_counts_each_image_once(rng):
    cfg = sm.ModelConfig.eurosat_default()
    net = sm.build(cfg, seed=0)
    x = rng.random((20, 64, 64, 3), dtype=np.float32)
    for threads in (1, 2):  # the pool's threads record into one counter
        with layers.count_multiplies() as counter, sm.use_threads(threads):
            sm.forward(net, x, "infer")
        assert counter.total == 20 * analyzer.cost_report(cfg).total_macs, threads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pooled_infer_forward_matches_serial(rng, dtype):
    """The chunk size does not depend on the thread count, so pooled
    probabilities are byte-equal to serial ones, including a 1-image and a
    single-chunk batch."""
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0, dtype=dtype)
    x = rng.random((64, 64, 64, 3)).astype(dtype)
    for n in (1, 7, 8, 9, 20, 64):
        serial, _ = sm.forward(net, x[:n], "infer")
        for threads in (2, 3):
            with sm.use_threads(threads):
                pooled, _ = sm.forward(net, x[:n], "infer")
            assert pooled.dtype == dtype and pooled.tobytes() == serial.tobytes(), (n, threads)


def test_pooled_infer_forward_raises_a_chunks_exception(rng, monkeypatch):
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((20, 64, 64, 3), dtype=np.float32)
    x[16, 0, 0, 0] = -1.0  # the first image of the third 8-image chunk
    real_embed = layers.patch_embed_forward

    def embed(xb, p):
        if xb[0, 0, 0, 0] == -1.0:
            raise RuntimeError("chunk at image 16 failed")
        return real_embed(xb, p)

    monkeypatch.setattr(layers, "patch_embed_forward", embed)
    with pytest.raises(RuntimeError, match="chunk at image 16 failed"), sm.use_threads(2):
        sm.forward(net, x, "infer")
    with pytest.raises(ValueError, match="threads must be >= 1"), sm.use_threads(0):
        sm.forward(net, x, "infer")


def test_pooled_infer_forward_peaks_at_one_chunk_per_thread(rng):
    # each pool thread holds one chunk's working set, which peaks at 4.79
    # (8, 16, 16, 128) float32 activations in the serial forward; on 2 threads
    # the forward peaked at 9.56-9.57, and at 10.06-10.55 when each thread kept
    # its last branch output alive through the pointwise conv and GELU
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((64, 64, 64, 3), dtype=np.float32)
    threads = 2
    with sm.use_threads(threads):
        sm.forward(net, x, "infer")  # the first call also allocates numpy's one-time state
        tracemalloc.start()
        try:
            sm.forward(net, x, "infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    activations = peak / (8 * 16 * 16 * 128 * 4)
    assert activations <= threads * 5.0, f"peak of {activations:.2f} activations"


def test_use_threads_starts_threads_only_for_work_it_submits(rng, monkeypatch):
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sm, "ThreadPoolExecutor", CountingPool)
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((9, 64, 64, 3), dtype=np.float32)  # chunks of 8 and 1 images
    before = threading.active_count()
    with sm.use_threads(2):
        assert threading.active_count() == before  # opening the pool starts no thread
        # one chunk runs on the calling thread, in both modes
        probs, caches = sm.forward(net, x[:8], "train")
        sm.backward(net, caches, probs)
        sm.forward(net, x[:8], "infer")
        assert submitted == [] and threading.active_count() == before
        sm.forward(net, x, "infer")
        assert len(submitted) == 2 and threading.active_count() > before
    assert threading.active_count() == before  # the pool's threads end with the context


def test_pooled_train_step_peak_stays_near_the_serial_one(rng):
    # a 32-image step at the bench config peaked at 64.9 MB (61.9 one-chunk
    # activations of (8, 16, 16, 128) float32) on 1 thread and at 71.1 MB
    # (67.8) on 2: the second thread holds one more chunk's working set
    cfg = sm.ModelConfig(input_h=64, input_w=64, input_c=3, num_classes=6)
    x = rng.random((32, 64, 64, 3), dtype=np.float32)
    labels = rng.integers(0, 6, 32)
    peaks = {}
    for threads in (1, 2):
        net = sm.build(cfg, seed=3)
        with sm.use_threads(threads):
            _train_step(net, x, labels)  # the first call also allocates numpy's one-time state
            tracemalloc.start()
            try:
                _train_step(net, x, labels)
                _, peaks[threads] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    extra = (peaks[2] - peaks[1]) / (8 * 16 * 16 * 128 * 4)
    assert extra <= 8.0, f"2 threads peaked {extra:.2f} activations above 1 thread"


def _train_step(net, x, labels):
    """(probs, grads) of one train-mode forward and backward."""
    probs, caches = sm.forward(net, x, "train")
    _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
    return probs, sm.backward(net, caches, dlogits)


def test_train_step_and_infer_forward_never_call_np_pad(rng, monkeypatch):
    """Depthwise pads into one zeroed buffer, not through np.pad's generic path."""
    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad was called")

    monkeypatch.setattr(np, "pad", no_pad)
    net = sm.build(TINY, seed=0)
    x = rng.random((3, 4, 4, 1), dtype=np.float32)
    probs, grads = _train_step(net, x, np.array([0, 1, 0]))
    assert probs.shape == (3, 2) and all(np.isfinite(g).all() for g in grads.values())
    assert sm.forward(net, x, "infer")[0].shape == (3, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pooled_train_step_matches_serial(rng, dtype):
    """Chunks never depend on the thread count and every merge runs in
    chunk order, so a train step's probabilities, gradients and running
    statistics are byte-equal on 1, 2 and 3 threads."""
    cfg = sm.ModelConfig.eurosat_default()
    x = rng.random((33, 64, 64, 3)).astype(dtype)
    labels = rng.integers(0, cfg.num_classes, 33)
    for n in (1, 7, 8, 9, 20, 33):
        runs = []
        for threads in (1, 2, 3):
            net = sm.build(cfg, seed=0, dtype=dtype)
            with sm.use_threads(threads):
                probs, grads = _train_step(net, x[:n], labels[:n])
            arrays = [probs, *grads.values(), *net.all_tensors().values()]
            assert all(a.dtype == dtype for a in arrays), (n, threads)
            runs.append(([a.tobytes() for a in arrays], list(grads)))
        assert runs[1] == runs[0] and runs[2] == runs[0], n


def test_train_step_on_more_threads_than_cores_loses_no_update(rng, monkeypatch):
    # 24 one-image chunks on 6 threads that switch every microsecond: every
    # multiply is counted once, and the step keeps the bytes of the serial one
    monkeypatch.setattr(sm, "_CHUNK_BYTES", 64)
    cfg = dataclasses.replace(TINY, depth=2)
    x = rng.standard_normal((24, 4, 4, 1))
    labels = rng.integers(0, 2, 24)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 6):
            net = sm.build(cfg, seed=5, dtype=np.float64)
            with sm.use_threads(threads), layers.count_multiplies() as counter:
                probs, grads = _train_step(net, x, labels)
            assert counter.total == 24 * analyzer.cost_report(cfg).total_macs, threads
            runs.append([a.tobytes() for a in (probs, *grads.values(), *net.all_tensors().values())])
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[0]


def test_pooled_train_forward_merges_each_batch_norm_once_in_chunk_order(rng, monkeypatch):
    # 33 images run as 4 chunks of 8 and one of 1, each image 256 tokens: a
    # merge in completion order would move the 1-image chunk's moments
    real = layers.batch_norm_statistics
    calls = []

    def statistics(s, parts):
        calls.append((s, [p.count for p in parts]))
        return real(s, parts)

    monkeypatch.setattr(layers, "batch_norm_statistics", statistics)
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    with sm.use_threads(2):
        sm.forward(net, rng.random((33, 64, 64, 3), dtype=np.float32), "train")
    assert all(s is b for (s, _), b in zip(calls, net.bn_states))
    assert [counts for _, counts in calls] == [[2048, 2048, 2048, 2048, 256]] * net.config.depth


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("chunk_bytes, per_chunk", [(64, [1, 1, 1]), (128, [2, 1])])
def test_multi_chunk_train_gradient_check(monkeypatch, depth, chunk_bytes, per_chunk):
    """Batch norm merged across chunks is still the batch's: one TINY image
    is 64 bytes of float64 block activation, so 3 images run as 3 chunks or as 2+1."""
    monkeypatch.setattr(sm, "_CHUNK_BYTES", chunk_bytes)
    net = sm.build(dataclasses.replace(TINY, depth=depth), seed=4, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(104))
    x = rng.standard_normal((3, 4, 4, 1))
    labels = np.array([0, 1, 1])
    with sm.use_threads(2):
        probs, caches = sm.forward(net, x, "train")
        assert [c.rows.stop - c.rows.start for c in caches.chunks] == per_chunk
        _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
        grads = sm.backward(net, caches, dlogits)

        def loss_fn(_):
            return tr.cross_entropy(sm.forward(net, x, "train")[0], labels)

        for name, param in net.params.items():
            assert max_rel_err(grads[name], finite_diff_grad(loss_fn, param, 1e-5)) < 1e-4, name


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n - 1), max_size=5, unique=True), st.integers(0, 2**32 - 1))))
def test_merged_chunk_moments_match_the_whole_batch(case):
    n, cuts, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n, 2, 3, 4)) * rng.uniform(0.01, 100) + rng.uniform(-100, 100)
    parts = [layers.batch_norm_moments(chunk) for chunk in np.split(x, sorted(cuts))]
    merged = layers.merge_moments(parts)
    flat = x.reshape(-1, 4)
    assert merged.count == flat.shape[0]
    np.testing.assert_allclose(merged.mean, flat.mean(axis=0), rtol=1e-12, atol=1e-12 * np.abs(flat).max())
    np.testing.assert_allclose(merged.m2 / merged.count, np.var(flat, axis=0), rtol=1e-10)


def test_pooled_train_step_raises_a_chunks_exception(rng, monkeypatch):
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((20, 64, 64, 3), dtype=np.float32)
    labels = rng.integers(0, 10, 20)
    real_gelu, real_gelu_backward = layers.gelu_forward, layers.gelu_backward

    def gelu(h, mode):
        if len(h) == 4:  # the last chunk of 8 + 8 + 4 images
            raise RuntimeError("forward chunk of 4 images failed")
        return real_gelu(h, mode)

    def gelu_backward(cache, upstream):
        if len(upstream) == 4:
            raise RuntimeError("backward chunk of 4 images failed")
        return real_gelu_backward(cache, upstream)

    with sm.use_threads(2):
        monkeypatch.setattr(layers, "gelu_forward", gelu)
        with pytest.raises(RuntimeError, match="forward chunk of 4 images failed"):
            sm.forward(net, x, "train")
        monkeypatch.setattr(layers, "gelu_forward", real_gelu)
        probs, caches = sm.forward(net, x, "train")
        _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
        monkeypatch.setattr(layers, "gelu_backward", gelu_backward)
        with pytest.raises(RuntimeError, match="backward chunk of 4 images failed"):
            sm.backward(net, caches, dlogits)


def test_zero_images_give_empty_probs_and_labels():
    net = sm.build(TINY, seed=0)
    x = np.zeros((0, 4, 4, 1), np.float32)
    probs, caches = sm.forward(net, x, "infer")
    assert probs.shape == (0, 2) and caches is None
    assert sm.predict(net, x).shape == (0,)


def test_infer_twice_identical(rng):
    net = sm.build(TINY, seed=3)
    x = rng.random((3, 4, 4, 1), dtype=np.float32)
    a, _ = sm.forward(net, x, "infer")
    b, _ = sm.forward(net, x, "infer")
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# straight-line oracle: the same graph, written independently with loops

def _oracle_forward(net, x, mode):
    cfg = net.config
    p = cfg.patch

    def conv_patch(img, w, b):
        n, h, ww, ci = img.shape
        d = w.shape[3]
        out = np.zeros((n, h // p, ww // p, d))
        for ni in range(n):
            for gy in range(h // p):
                for gx in range(ww // p):
                    for dd in range(d):
                        acc = b[dd]
                        for dy in range(p):
                            for dx in range(p):
                                for c in range(ci):
                                    acc += img[ni, gy * p + dy, gx * p + dx, c] * w[dy, dx, c, dd]
                        out[ni, gy, gx, dd] = acc
        return out

    def conv_dw(img, w, b, k):
        n, h, ww, c = img.shape
        pad = k // 2
        out = np.zeros_like(img)
        for ni in range(n):
            for y in range(h):
                for xx in range(ww):
                    for ci in range(c):
                        acc = b[ci]
                        for dy in range(k):
                            for dx in range(k):
                                sy, sx = y + dy - pad, xx + dx - pad
                                if 0 <= sy < h and 0 <= sx < ww:
                                    acc += w[dy, dx, ci] * img[ni, sy, sx, ci]
                        out[ni, y, xx, ci] = acc
        return out

    t = conv_patch(x.astype(np.float64), net.params["embed.weights"], net.params["embed.bias"])
    for i in range(cfg.depth):
        merged = np.zeros_like(t)
        for k in cfg.kernels:
            merged += conv_dw(t, net.params[f"block{i}.dw{k}.weights"],
                              net.params[f"block{i}.dw{k}.bias"], k)
        pw_w, pw_b = net.params[f"block{i}.pw.weights"], net.params[f"block{i}.pw.bias"]
        h = np.einsum("nyxc,cd->nyxd", merged, pw_w) + pw_b
        g = np.vectorize(lambda v: v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))))(h)
        s = net.bn_states[i]
        if mode == "train":
            mean = g.mean(axis=(0, 1, 2))
            var = g.var(axis=(0, 1, 2))
        else:
            mean, var = s.running_mean, s.running_var
        b = s.gamma * (g - mean) / np.sqrt(var + s.epsilon) + s.beta
        t = b
    pooled = t.mean(axis=(1, 2))
    logits = pooled @ net.params["head.weights"] + net.params["head.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("mode", ["infer", "train"])
def test_tiny_forward_matches_straight_line_oracle(rng, mode):
    net = sm.build(TINY, seed=11, dtype=np.float64)
    # make BN running stats non-trivial so infer mode is a real check
    for s in net.bn_states:
        s.running_mean[:] = rng.standard_normal(s.running_mean.shape) * 0.1
        s.running_var[:] = 1.0 + rng.random(s.running_var.shape)
    x = rng.standard_normal((3, 4, 4, 1))
    want = _oracle_forward(net, x, mode)
    got, _ = sm.forward(net, x, mode)
    assert max_rel_err(got, want) < 1e-6


def test_zeroed_branch_equals_single_kernel_model(rng):
    cfg2 = sm.ModelConfig(input_h=8, input_w=8, input_c=2, patch=2, embed_dim=4,
                          depth=2, kernels=(3, 5), num_classes=3)
    both = sm.build(cfg2, seed=5)
    for i in range(cfg2.depth):
        both.params[f"block{i}.dw5.weights"][:] = 0.0
        both.params[f"block{i}.dw5.bias"][:] = 0.0
    single = sm.build(sm.ModelConfig(input_h=8, input_w=8, input_c=2, patch=2, embed_dim=4,
                                     depth=2, kernels=(3,), num_classes=3), seed=5)
    for name, value in both.params.items():
        if ".dw5." not in name:
            single.params[name][:] = value
    x = rng.random((2, 8, 8, 2), dtype=np.float32)
    a, _ = sm.forward(both, x, "infer")
    b, _ = sm.forward(single, x, "infer")
    assert np.array_equal(a, b)


def _cached_arrays(obj):
    """Every ndarray that train-mode caches refer to, once per reference."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _cached_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _cached_arrays(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _cached_arrays(getattr(obj, f.name))


def test_train_step_caches_each_activation_once(rng):
    """A 32-image bench-config step runs as 4 chunks of 8 images. Each chunk
    keeps block 0's input and, per block, the pointwise input, the GELU
    derivative and the batch-norm xhat: 13 one-chunk activations. Later block
    inputs are rebuilt from xhat, the depthwise caches keep only weights, and
    patch embed keeps a view of the batch, which the caller holds anyway."""
    cfg = sm.ModelConfig(input_h=64, input_w=64, input_c=3, num_classes=6)
    net = sm.build(cfg, seed=0)
    x = rng.random((32, 64, 64, 3), dtype=np.float32)
    _, caches = sm.forward(net, x, "train")
    activation = 8 * cfg.tokens * cfg.embed_dim * 4  # one chunk's block activation: 1 MiB
    assert len(caches.chunks) == 4
    held = [x, *net.all_tensors().values()]  # the caller's and the model's bytes
    arrays = [a for a in _cached_arrays(caches) if not any(np.shares_memory(a, b) for b in held)]
    image = activation // 8  # one image's block activation
    large = [a for a in arrays if a.nbytes >= image]
    # the rest are per-channel vectors, at most one per image (the pooled rows)
    assert all(a.shape[-1] == cfg.embed_dim and a.size <= 32 * cfg.embed_dim for a in arrays if a.nbytes < image)
    for j, a in enumerate(large):
        assert not any(np.shares_memory(a, b) for b in large[j + 1:]), a.shape
    for chunk in caches.chunks:
        for block in chunk.blocks:
            assert all(a.nbytes < image for a in _cached_arrays(block.dw)), "a depthwise cache holds an activation"
    held_bytes = sum(a.nbytes for a in large)
    assert held_bytes <= 13 * activation * len(caches.chunks), held_bytes / activation


def test_backward_frees_each_cache_it_consumes(rng, monkeypatch):
    """After a backward over two chunks no cache holds an array, and a second
    backward over the same caches is still refused."""
    cfg = dataclasses.replace(TINY, depth=2)
    monkeypatch.setattr(sm, "_CHUNK_BYTES", 2 * cfg.tokens * cfg.embed_dim * 4)  # 2 images a chunk
    net = sm.build(cfg, seed=0)
    probs, caches = sm.forward(net, rng.random((4, 4, 4, 1), dtype=np.float32), "train")
    assert len(caches.chunks) == 2 and list(_cached_arrays(caches))
    _, dlogits = tr.cross_entropy_with_logit_grad(probs, np.array([0, 1, 1, 0]))
    sm.backward(net, caches, dlogits)
    assert list(_cached_arrays(caches)) == []
    assert all(c.block_input is None for c in caches.chunks)
    with pytest.raises(RuntimeError, match="already consumed"):
        sm.backward(net, caches, dlogits)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_backward_rebuilds_each_block_input_byte_for_byte(rng, monkeypatch, dtype, threads):
    """The backward hands each depthwise backward the bytes its forward was
    given: block 0's kept input, and later blocks' rebuilt from batch norm."""
    cfg = sm.ModelConfig(input_h=8, input_w=8, input_c=3, patch=2, embed_dim=4, depth=3, num_classes=3)
    monkeypatch.setattr(sm, "_CHUNK_BYTES", 2 * cfg.tokens * cfg.embed_dim * np.dtype(dtype).itemsize)
    net = sm.build(cfg, seed=1, dtype=dtype)
    for s in net.bn_states:
        s.gamma[:] = rng.standard_normal(s.gamma.shape)
        s.beta[:] = rng.standard_normal(s.beta.shape)
    seen = {"forward": [], "backward": []}
    forward, backward = layers.depthwise_conv_forward, layers.depthwise_conv_backward

    def recording_forward(x, p):
        seen["forward"].append(x.tobytes())
        return forward(x, p)

    def recording_backward(cache, upstream, x):
        seen["backward"].append(x.tobytes())
        return backward(cache, upstream, x)

    monkeypatch.setattr(layers, "depthwise_conv_forward", recording_forward)
    monkeypatch.setattr(layers, "depthwise_conv_backward", recording_backward)
    x = rng.random((5, 8, 8, 3)).astype(dtype)
    with sm.use_threads(threads):
        _train_step(net, x, rng.integers(0, 3, 5))
    # 3 chunks x 3 blocks x 2 branches; pool threads finish in any order
    assert len(seen["forward"]) == 3 * 3 * 2
    assert sorted(seen["backward"]) == sorted(seen["forward"])


def test_full_model_gradient_check():
    """d(cross-entropy)/d(theta) for every parameter of the tiny config."""
    labels = np.array([0, 1, 1])
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        net = sm.build(TINY, seed=seed, dtype=np.float64)
        x = rng.standard_normal((3, 4, 4, 1))
        probs, caches = sm.forward(net, x, "train")
        _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
        grads = sm.backward(net, caches, dlogits)
        assert set(grads) == set(net.params)

        def loss_fn(_):
            p, _ = sm.forward(net, x, "train")
            return tr.cross_entropy(p, labels)

        for name, param in net.params.items():
            numeric = finite_diff_grad(loss_fn, param, 1e-5)
            assert max_rel_err(grads[name], numeric) < 1e-4, f"seed {seed}, {name}"


def test_depth_two_gradient_check():
    """Every TINY has one block; this one passes gradients from block to block."""
    cfg = sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, embed_dim=2,
                         depth=2, kernels=(3, 5), num_classes=2)
    labels = np.array([1, 0])
    rng = np.random.Generator(np.random.PCG64(9))
    net = sm.build(cfg, seed=9, dtype=np.float64)
    x = rng.standard_normal((2, 4, 4, 1))
    probs, caches = sm.forward(net, x, "train")
    _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
    grads = sm.backward(net, caches, dlogits)

    def loss_fn(_):
        p, _ = sm.forward(net, x, "train")
        return tr.cross_entropy(p, labels)

    for name, param in net.params.items():
        assert max_rel_err(grads[name], finite_diff_grad(loss_fn, param, 1e-5)) < 1e-4, name


# ---------------------------------------------------------------------------
# predict

def test_predict_matches_argmax(rng):
    net = sm.build(TINY, seed=2)
    x = rng.random((5, 4, 4, 1), dtype=np.float32)
    probs, _ = sm.forward(net, x, "infer")
    assert np.array_equal(sm.predict(net, x), np.argmax(probs, axis=1))


def test_predict_alone_matches_batch(rng):
    net = sm.build(sm.ModelConfig.eurosat_default(), seed=0)
    x = rng.random((12, 64, 64, 3), dtype=np.float32)
    alone = np.concatenate([sm.predict(net, x[i : i + 1]) for i in range(len(x))])
    assert np.array_equal(alone, sm.predict(net, x))


def test_predict_tie_breaks_low(rng):
    net = sm.build(TINY, seed=2)
    net.params["head.weights"][:] = 0.0
    net.params["head.bias"][:] = 0.0  # identical logits, uniform probs
    x = rng.random((4, 4, 4, 1), dtype=np.float32)
    assert np.all(sm.predict(net, x) == 0)


# ---------------------------------------------------------------------------
# persistence

def test_checkpoint_round_trip(tmp_path, rng):
    net = sm.build(TINY, seed=4)
    net.class_names = ["water", "forest"]
    x = rng.random((2, 4, 4, 1), dtype=np.float32)
    sm.forward(net, x, "train")  # perturb BN running stats
    before, _ = sm.forward(net, x, "infer")
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    loaded = sm.load(path)
    after, _ = sm.forward(loaded, x, "infer")
    assert np.array_equal(before, after)
    assert loaded.config == net.config
    assert loaded.class_names == ["water", "forest"]
    for name, t in net.all_tensors().items():
        assert np.array_equal(t, loaded.all_tensors()[name]), name


def test_checkpoint_bad_magic(tmp_path):
    net = sm.build(TINY, seed=4)
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(sm.CheckpointError, match="magic"):
        sm.load(path)


def test_checkpoint_truncation(tmp_path):
    net = sm.build(TINY, seed=4)
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(sm.CheckpointError, match="truncated"):
        sm.load(path)


def test_checkpoint_shape_disagreement_rejected(tmp_path):
    net = sm.build(TINY, seed=4)
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    # embed_dim=2 -> embed_dim=3 keeps the config block length but makes
    # every stored tensor disagree with the embedded config
    blob = path.read_bytes()
    assert blob.count(b"embed_dim=2") == 1
    path.write_bytes(blob.replace(b"embed_dim=2", b"embed_dim=3"))
    with pytest.raises(sm.CheckpointError, match="shape"):
        sm.load(path)


def test_checkpoint_carries_its_own_config(tmp_path):
    other = sm.ModelConfig(input_h=8, input_w=8, input_c=3, patch=4, embed_dim=6,
                           depth=2, kernels=(3,), num_classes=4)
    net = sm.build(other, seed=1)
    path = tmp_path / "other.smxc"
    sm.save(net, path)
    loaded = sm.load(path)
    assert loaded.config == other


def test_config_text_round_trip():
    cfg = sm.ModelConfig.eurosat_default()
    parsed, class_names = sm.parse_config_text(sm.config_to_text(cfg))
    assert parsed == cfg and class_names is None


@pytest.mark.parametrize("line", ["merge=avg", "residual=true", "residual=yes"])
def test_config_text_rejects_fixed_key_values(line):
    key, _, value = line.partition("=")
    text = sm.config_to_text(TINY).replace({"merge": "merge=sum", "residual": "residual=false"}[key], line)
    with pytest.raises(ValueError, match=rf"invalid model config: {key} .*got '{value}'"):
        sm.parse_config_text(text)


def test_config_text_accepts_residual_false_in_any_case():
    parsed, _ = sm.parse_config_text(sm.config_to_text(TINY).replace("residual=false", "residual=False"))
    assert parsed == TINY


def test_config_text_rejects_unknown_key():
    text = sm.config_to_text(sm.ModelConfig.eurosat_default()) + "bogus=1\n"
    with pytest.raises(ValueError, match="bogus"):
        sm.parse_config_text(text)


@pytest.mark.parametrize("line, new, pattern", [
    ("num_classes=2", "num_classes={long}", r"^config line 7: num_classes must be .*, got '9+'"),
    ("input=4x4x1", "input={long}x4x1", r"^config line 1: input must be .*, got '9+'"),
    ("merge=sum", "merge={long}", r"^config line 6: invalid model config: merge mode must be 'sum', got '9+'"),
    ("residual=false", "residual={long}", r"^config line 10: invalid model config: residual must be 'false', got '9+'"),
    ("depth=1", "{long}", r"^config line 4: expected key=value, got '9+'"),
    ("depth=1", "depth=1\n{long}=1", r"^config line 5: unknown key '9+'"),
    ("depth=1", "depth=1\nclass_names=a,b={long}", r"^class name 'b=9+' .*: name must not contain"),
], ids=["value", "extents", "merge", "residual", "line", "key", "class-name"])
def test_config_text_error_quotes_a_bounded_excerpt(line, new, pattern):
    text = sm.config_to_text(TINY).replace(line, new.format(long="9" * MEGABYTE))
    with pytest.raises(ValueError) as info:
        sm.parse_config_text(text)
    assert_bounded_excerpt(info.value, pattern)


@pytest.mark.parametrize("bn_eps", ["inf", "nan", "0", "-1e-3"])
def test_config_text_rejects_non_finite_or_non_positive_bn_eps(bn_eps):
    text = sm.config_to_text(TINY).replace("bn_eps=0.001", f"bn_eps={bn_eps}")
    with pytest.raises(ValueError, match=rf"bn_eps must be finite and > 0, got {float(bn_eps)}"):
        sm.parse_config_text(text)


@pytest.mark.parametrize("line", [
    "embed_dim=2_0", "embed_dim=\u0662", "patch=abc", "patch=-2", "num_classes=" + "9" * 5000,
    "num_classes=" + "0" * 18 + "2", "input=4x4", "input=4x4x\uff11", "kernels=3,5_0", "bn_eps=1_0",
    "bn_momentum=0.\u0669", "bn_eps=",
], ids=["int-underscore", "int-arabic-indic", "int-letters", "int-negative", "int-5000-digits", "int-19-digits",
        "input-two-extents", "input-fullwidth", "kernels-underscore", "float-underscore", "float-arabic-indic",
        "float-empty"])
def test_config_values_parse_as_written_or_name_their_line_and_key(line):
    key = line.partition("=")[0]
    lines = sm.config_to_text(TINY).splitlines()
    at = next(i for i, old in enumerate(lines) if old.startswith(key + "="))
    lines[at] = line
    with pytest.raises(ValueError, match=rf"^config line {at + 1}: {key} must be "):
        sm.parse_config_text("\n".join(lines))


def test_config_values_allow_outer_whitespace_and_18_digits():
    text = sm.config_to_text(TINY)
    for old, new in [("patch=2", "patch=\t" + "0" * 17 + "2 "), ("kernels=3,5", "kernels= 3 , 5"),
                     ("bn_eps=0.001", "bn_eps= 1e-3")]:
        text = text.replace(old, new)
    parsed, _ = sm.parse_config_text(text)
    assert parsed == TINY


@pytest.mark.parametrize("extents", [(2**62, 4, 1, 1), (2**32, 2**32, 1, 1)])
def test_checkpoint_forged_extents_rejected(tmp_path, extents):
    # both products are 2**64, which wraps a fixed-width element count to 0
    net = sm.build(TINY, seed=4)
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    blob = bytearray(path.read_bytes())
    at = blob.index(b"embed.weights") + len(b"embed.weights") + 4  # skip the u32 rank
    blob[at : at + 32] = struct.pack("<4Q", *extents)
    path.write_bytes(bytes(blob))
    with pytest.raises(sm.CheckpointError, match=_record_refused(0, "embed.weights", (2, 2, 1, 2))):
        sm.load(path)


def test_checkpoint_class_name_count_must_match(tmp_path):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"class_names=water,forest", b"class_names=a,b,c"))
    with pytest.raises(sm.CheckpointError, match="3 class names for 2 classes"):
        sm.load(path)


@pytest.mark.parametrize("names, match", [
    ([" a", "b "], "class name ' a': name must not"),  # would load back as ["a", "b"]
    (["a,b", "c"], "class name 'a,b': name must not"),
    (["a\nb", "c"], r"class name 'a\\nb': name must not"),
    (["a=b", "c"], "class name 'a=b': name must not"),
    (["a", "b", "c"], "3 class names for 2 classes"),
], ids=["outer-space", "comma", "newline", "equals", "count"])
def test_save_rejects_class_names_load_would_not_return(tmp_path, names, match):
    path, blob = _saved_blob(tmp_path)
    net = sm.build(TINY, seed=5)
    net.class_names = names
    with pytest.raises(ValueError, match=match):
        sm.save(net, path)
    assert path.read_bytes() == blob


@pytest.mark.parametrize("names", ["water, forest,urban", "water,,urban"], ids=["inner-space", "empty"])
def test_load_rejects_class_names_save_would_refuse(tmp_path, names):
    net = sm.build(dataclasses.replace(TINY, num_classes=3), seed=4)
    net.class_names = names.split(",")
    with pytest.raises(ValueError, match="name must not"):
        sm.save(net, tmp_path / "refused.smxc")
    net.class_names = ["water", "forest", "urban"]
    path = tmp_path / "three.smxc"
    sm.save(net, path)
    path.write_bytes(_replace_config(path.read_bytes(), b"class_names=water,forest,urban",
                                     b"class_names=" + names.encode()))
    with pytest.raises(sm.CheckpointError, match="name must not"):
        sm.load(path)


def _record_refused(index, name, shape):
    """The pattern of load's message for tensor record `index`, which the config gives as name and shape."""
    return re.escape(f"tensor record {index} is not the one save writes for the config: "
                     f"expected {name} of shape {shape}")


def _saved_blob(tmp_path):
    net = sm.build(TINY, seed=4)
    net.class_names = ["water", "forest"]
    path = tmp_path / "tiny.smxc"
    sm.save(net, path)
    return path, path.read_bytes()


def _config_span(blob):
    """(start, end) of the config block inside a checkpoint blob."""
    (n,) = struct.unpack_from("<I", blob, 8)
    return 12, 12 + n


def _replace_config(blob, old, new):
    start, end = _config_span(blob)
    config = blob[start:end]
    assert config.count(old) == 1
    config = config.replace(old, new)
    return blob[:8] + struct.pack("<I", len(config)) + config + blob[end:]


def test_checkpoint_duplicate_tensor_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    _, end = _config_span(blob)
    (count,) = struct.unpack_from("<I", blob, end)
    # a second embed.weights filled with 7.0, appended after the genuine one
    name = b"embed.weights"
    record = (struct.pack("<I", len(name)) + name + struct.pack("<I4Q", 4, 2, 2, 1, 2)
              + np.full(8, 7.0, dtype="<f4").tobytes())
    path.write_bytes(blob[:end] + struct.pack("<I", count + 1) + blob[end + 4 :] + record)
    with pytest.raises(sm.CheckpointError, match="^checkpoint stores 15 tensors, but its config has 14$"):
        sm.load(path)


def _renamed_first_tensor(blob, name: bytes):
    """blob with its first tensor, embed.weights, renamed to name."""
    at = blob.index(b"embed.weights")
    return blob[: at - 4] + struct.pack("<I", len(name)) + name + blob[at + len(b"embed.weights") :]


def test_checkpoint_forged_tensor_names_are_quoted_as_excerpts(tmp_path):
    path, blob = _saved_blob(tmp_path)
    forged = b"x" * MEGABYTE
    renamed = _renamed_first_tensor(blob, forged)
    path.write_bytes(renamed)
    with pytest.raises(sm.CheckpointError, match=_record_refused(0, "embed.weights", (2, 2, 1, 2))) as exc:
        sm.load(path)
    assert len(str(exc.value)) < 300  # the message quotes the config's name, not the forged one
    # the same name once more, as a second record after the genuine tensors
    _, end = _config_span(renamed)
    (count,) = struct.unpack_from("<I", renamed, end)
    record = (struct.pack("<I", len(forged)) + forged + struct.pack("<I4Q", 4, 2, 2, 1, 2)
              + np.full(8, 7.0, dtype="<f4").tobytes())
    path.write_bytes(renamed[:end] + struct.pack("<I", count + 1) + renamed[end + 4 :] + record)
    with pytest.raises(sm.CheckpointError, match="^checkpoint stores 15 tensors, but its config has 14$"):
        sm.load(path)


def test_checkpoint_non_utf8_tensor_name_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    at = blob.index(b"embed.weights")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
    with pytest.raises(sm.CheckpointError, match=_record_refused(0, "embed.weights", (2, 2, 1, 2))):
        sm.load(path)


def test_checkpoint_non_utf8_config_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"water", b"wat\xffr"))
    with pytest.raises(sm.CheckpointError, match="config block .* not UTF-8"):
        sm.load(path)


def test_checkpoint_config_error_keeps_message(tmp_path):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"bn_momentum=0.99", b"bn_momentum=9.99"))
    with pytest.raises(sm.CheckpointError, match=r"bn_momentum must be in \(0,1\), got 9.99") as info:
        sm.load(path)
    assert type(info.value.__cause__) is ValueError


def test_checkpoint_infinite_bn_eps_rejected(tmp_path):
    # with an infinite epsilon BN outputs beta everywhere, so every image gets the same probabilities
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"bn_eps=0.001", b"bn_eps=inf"))
    with pytest.raises(sm.CheckpointError, match=r"bn_eps must be finite and > 0, got inf"):
        sm.load(path)


def test_checkpoint_residual_true_rejected(tmp_path):
    # the mixer block has no skip connection, so a checkpoint asking for one cannot be honoured
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"residual=false", b"residual=true"))
    with pytest.raises(sm.CheckpointError, match=r"residual must be 'false', got 'true'"):
        sm.load(path)


def test_checkpoint_element_count_checked_before_build(tmp_path, monkeypatch):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"embed_dim=2", b"embed_dim=4096"))

    def no_build(*args, **kwargs):
        raise AssertionError("build ran for a checkpoint whose tensors cannot fit its config")

    monkeypatch.setattr(sm, "build", no_build)
    with pytest.raises(sm.CheckpointError, match=_record_refused(0, "embed.weights", (2, 2, 1, 4096))):
        sm.load(path)


def test_load_draws_no_weights(tmp_path, monkeypatch):
    path, _ = _saved_blob(tmp_path)
    saved = sm.build(TINY, seed=4)

    def no_build(*args, **kwargs):
        raise AssertionError("load built a model only to overwrite its weights")

    monkeypatch.setattr(sm, "build", no_build)
    loaded = sm.load(path)
    assert [(name, t.dtype, t.tobytes()) for name, t in loaded.all_tensors().items()] == [
        (name, t.dtype, t.tobytes()) for name, t in saved.all_tensors().items()
    ]


def test_checkpoint_depth_checked_before_counting(tmp_path, monkeypatch):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"depth=1", b"depth=100000000"))

    def no_table(*args, **kwargs):
        raise AssertionError("tensor_shapes ran for a depth the checkpoint's tensors cannot hold")

    monkeypatch.setattr(sm, "tensor_shapes", no_table)
    with pytest.raises(sm.CheckpointError, match="depth 100,000,000, but the checkpoint stores only 14 tensors"):
        sm.load(path)


def test_checkpoint_zero_extent_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    at = blob.index(b"embed.weights") + len(b"embed.weights") + 4  # skip the u32 rank
    path.write_bytes(blob[:at] + struct.pack("<2Q", 0, 2**63) + blob[at + 16 :])
    with pytest.raises(sm.CheckpointError, match=_record_refused(0, "embed.weights", (2, 2, 1, 2))):
        sm.load(path)


def test_checkpoint_count_and_depth_forged_together_rejected_before_counting(tmp_path, monkeypatch):
    path, blob = _saved_blob(tmp_path)
    forged = _replace_config(blob, b"depth=1", b"depth=100000000")
    _, end = _config_span(forged)
    path.write_bytes(forged[:end] + struct.pack("<I", 2**32 - 1) + forged[end + 4 :])

    def no_table(*args, **kwargs):
        raise AssertionError("tensor_shapes ran for a count and depth the checkpoint's bytes cannot hold")

    monkeypatch.setattr(sm, "tensor_shapes", no_table)
    with pytest.raises(sm.CheckpointError, match=f"^checkpoint declares 4,294,967,295 tensors in its last "
                                                 f"{len(forged) - end - 4} bytes$"):
        sm.load(path)


def test_checkpoint_kernel_list_checked_before_counting(tmp_path, monkeypatch):
    path, blob = _saved_blob(tmp_path)
    kernels = ",".join(str(k) for k in range(3, 2003, 2)).encode()  # 1,000 distinct odd sizes
    path.write_bytes(_replace_config(blob, b"kernels=3,5", b"kernels=" + kernels))

    def no_table(*args, **kwargs):
        raise AssertionError("tensor_shapes ran for a kernel list the checkpoint's tensors cannot hold")

    monkeypatch.setattr(sm, "tensor_shapes", no_table)
    with pytest.raises(sm.CheckpointError, match="^config has 1000 kernels at depth 1, but the checkpoint stores "
                                                 "only 14 tensors$"):
        sm.load(path)


def test_checkpoint_records_out_of_save_order_rejected(tmp_path):
    net = sm.build(TINY, seed=4)
    order = list(net.all_tensors())
    a, b = order.index("block0.bn.gamma"), order.index("block0.bn.beta")  # same shape, gamma ones, beta zeros
    order[a], order[b] = order[b], order[a]
    path = tmp_path / "swapped.smxc"
    sm.save(sm.SceneMixerModel(TINY, {name: net.all_tensors()[name] for name in order}), path)
    with pytest.raises(sm.CheckpointError, match=_record_refused(a, "block0.bn.gamma", (2,))):
        sm.load(path)


def test_checkpoint_mutations_give_a_model_or_checkpoint_error(tmp_path):
    path, blob = _saved_blob(tmp_path)
    mutants = [blob[:n] for n in range(len(blob))]
    for i, byte in enumerate(blob):
        for value in (0x00, 0xFF, byte ^ 1, ord("9"), ord(",")):
            mutants.append(blob[:i] + bytes([value]) + blob[i + 1 :])
    other = []
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            sm.load(path)
        except sm.CheckpointError:
            pass
        except Exception as exc:  # noqa: BLE001 -- any other type is the failure under test
            other.append(f"{type(exc).__name__}: {exc}")
    assert not other, f"{len(other)} of {len(mutants)} mutants raised another error, e.g. {other[:3]}"


BAD_VALUES = [
    ("head.weights", (1, 0), np.nan),
    ("embed.bias", (1,), -np.inf),
    ("block0.bn.running_var", (0,), -1.0),
]


@pytest.mark.parametrize("name, index, value", BAD_VALUES)
def test_load_rejects_a_non_finite_value_or_negative_running_variance(tmp_path, name, index, value):
    net = sm.build(TINY, seed=4)
    net.all_tensors()[name][index] = value
    path = tmp_path / "m.smxc"
    path.write_bytes(b"".join(sm._checkpoint_chunks(net)))  # save refuses such a model
    with pytest.raises(sm.CheckpointError, match=re.escape(f"tensor {name}: value {value} at index {index} ")):
        sm.load(path)


@pytest.mark.parametrize("name, index, value, dtype", [
    *((*case, np.float32) for case in BAD_VALUES),
    ("head.bias", (0,), 1e300, np.float64),  # finite in float64, inf as stored
])
def test_save_refuses_what_load_rejects_and_keeps_the_target(tmp_path, name, index, value, dtype):
    path = tmp_path / "m.smxc"
    net = sm.build(TINY, seed=4, dtype=dtype)
    sm.save(net, path)
    before = path.read_bytes()
    net.all_tensors()[name][index] = value
    with pytest.raises(sm.CheckpointError, match=f"tensor {name}: value"):
        sm.save(net, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.smxc"]


# ---------------------------------------------------------------------------
# atomic checkpoint output

def test_save_failing_mid_write_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "m.smxc"
    sm.save(sm.build(TINY, seed=4), path)
    before = path.read_bytes()
    # a file-size limit makes the write fail with EFBIG once half the bytes are out
    proc = run_with_file_size_limit(
        "from scenemixer import model as sm\n"
        f"sm.save(sm.build(sm.ModelConfig(**{TINY.__dict__!r}), seed=5), {str(path)!r})\n",
        len(before) // 2,
    )
    assert proc.returncode == 1 and "OSError" in proc.stderr, proc.stderr
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.smxc"]


def test_save_gives_the_mode_of_a_plain_open(tmp_path):
    net = sm.build(TINY, seed=4)
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    sm.save(net, tmp_path / "new.smxc")
    assert (tmp_path / "new.smxc").stat().st_mode == plain.stat().st_mode
    # an existing file keeps its mode, as it would when opened for writing
    kept = tmp_path / "kept.smxc"
    kept.write_bytes(b"")
    kept.chmod(0o640)
    sm.save(net, kept)
    assert kept.stat().st_mode & 0o777 == 0o640
    assert sm.load(kept).config == TINY
