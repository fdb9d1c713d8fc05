import math
import struct
import tracemalloc

import numpy as np
import pytest

from scenemixer import analyzer, layers
from scenemixer import model as sm
from scenemixer import train as tr
from scenemixer.numerics import ShapeError, finite_diff_grad

from conftest import max_rel_err, run_with_file_size_limit

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
    for block in caches.blocks:
        assert block.bn.out_shape == (1, 16, 16, 128)


def test_forward_rejects_wrong_shape(rng):
    net = sm.build(TINY, seed=0)
    with pytest.raises(ShapeError):
        sm.forward(net, rng.random((1, 8, 8, 1), dtype=np.float32), "infer")


def test_infer_forward_frees_each_block_before_the_next(rng):
    # an activation is one (8, 16, 16, 128) float32 array; a forward that frees
    # each block's intermediates and the patch embedding's im2col copy of the
    # input before the next block peaks at about 6.05 of them, one that keeps
    # that copy alive at about 6.45, and one that keeps a block's intermediates
    # alive into the next block at about 8.65. At 64 images only chunking keeps
    # the peak there: one 64-image pass reads 51
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
        assert activations <= 6.25, f"{n} images: peak of {activations:.2f} activations"


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
    with layers.count_multiplies() as counter:
        sm.forward(net, x, "infer")
    assert counter.total == 20 * analyzer.cost_report(cfg).total_macs


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


def test_train_caches_share_block_input_and_hold_no_padded_copy(rng):
    cfg = sm.ModelConfig(input_h=16, input_w=16, input_c=3, patch=4, embed_dim=8,
                         depth=2, kernels=(3, 5), num_classes=3)
    net = sm.build(cfg, seed=0)
    _, caches = sm.forward(net, rng.random((5, 16, 16, 3), dtype=np.float32), "train")
    for block in caches.blocks:
        dw3, dw5 = block.dw
        x = dw3.saved["x"]
        assert dw5.saved["x"] is x
        for cache in (dw3, dw5):
            arrays = [v for v in cache.saved.values() if isinstance(v, np.ndarray)]
            assert all(a is x or a is cache.saved["weights"] for a in arrays)
        gelu = block.gelu.saved
        assert list(gelu) == ["d"] and gelu["d"].dtype == np.float32


def test_full_model_gradient_check():
    """d(cross-entropy)/d(theta) for every parameter of the tiny config."""
    labels = np.array([0, 1, 1])
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        net = sm.build(TINY, seed=seed, dtype=np.float64)
        x = rng.standard_normal((3, 4, 4, 1))
        probs, caches = sm.forward(net, x, "train")
        _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
        grads, dinput = sm.backward(net, caches, dlogits)

        def loss_fn(_):
            p, _ = sm.forward(net, x, "train")
            return tr.cross_entropy(p, labels)

        for name, param in net.params.items():
            numeric = finite_diff_grad(loss_fn, param, 1e-5)
            assert max_rel_err(grads[name], numeric) < 1e-4, f"seed {seed}, {name}"
        # the loss gradient w.r.t. the input image, through every layer
        numeric_dx = finite_diff_grad(loss_fn, x, 1e-5)
        assert max_rel_err(dinput, numeric_dx) < 1e-4, f"seed {seed}, input"


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
    grads, dinput = sm.backward(net, caches, dlogits)

    def loss_fn(_):
        p, _ = sm.forward(net, x, "train")
        return tr.cross_entropy(p, labels)

    for name, param in net.params.items():
        assert max_rel_err(grads[name], finite_diff_grad(loss_fn, param, 1e-5)) < 1e-4, name
    assert max_rel_err(dinput, finite_diff_grad(loss_fn, x, 1e-5)) < 1e-4, "input"


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
    parsed, extras = sm.parse_config_text(sm.config_to_text(cfg))
    assert parsed == cfg and extras == {}


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


@pytest.mark.parametrize("bn_eps", ["inf", "nan", "0", "-1e-3"])
def test_config_text_rejects_non_finite_or_non_positive_bn_eps(bn_eps):
    text = sm.config_to_text(TINY).replace("bn_eps=0.001", f"bn_eps={bn_eps}")
    with pytest.raises(ValueError, match=rf"bn_eps must be finite and > 0, got {float(bn_eps)}"):
        sm.parse_config_text(text)


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
    with pytest.raises(sm.CheckpointError, match="truncated"):
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
    with pytest.raises(sm.CheckpointError, match="duplicate tensor 'embed.weights'"):
        sm.load(path)


def test_checkpoint_non_utf8_tensor_name_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    at = blob.index(b"embed.weights")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
    with pytest.raises(sm.CheckpointError, match="tensor name .* not UTF-8"):
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
    with pytest.raises(sm.CheckpointError, match="hold 102 values, the embedded config needs 16,973,826"):
        sm.load(path)


def test_checkpoint_depth_checked_before_counting(tmp_path, monkeypatch):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(_replace_config(blob, b"depth=1", b"depth=100000000"))

    def no_count(*args, **kwargs):
        raise AssertionError("count_params ran for a depth the checkpoint's tensors cannot hold")

    monkeypatch.setattr(analyzer, "count_params", no_count)
    with pytest.raises(sm.CheckpointError, match="depth 100,000,000, but the checkpoint stores only 14 tensors"):
        sm.load(path)


def test_checkpoint_zero_extent_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    at = blob.index(b"embed.weights") + len(b"embed.weights") + 4  # skip the u32 rank
    path.write_bytes(blob[:at] + struct.pack("<2Q", 0, 2**63) + blob[at + 16 :])
    with pytest.raises(sm.CheckpointError, match="zero extent"):
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
