import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemixer import data as dm

from conftest import MEGABYTE, assert_bounded_excerpt


# ---------------------------------------------------------------------------
# PPM codec

def test_decode_ppm_small():
    payload = bytes(range(12))
    blob = b"P6\n2 2\n255\n" + payload
    img = dm.decode_ppm(blob)
    assert img.shape == (2, 2, 3)
    assert img.dtype == np.uint8
    assert img.reshape(-1).tolist() == list(range(12))


def test_decode_ppm_header_comment():
    blob = b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03"
    assert dm.decode_ppm(blob).reshape(-1).tolist() == [1, 2, 3]


def test_decode_ppm_rejects_ascii_variant():
    with pytest.raises(dm.PpmError, match="P3"):
        dm.decode_ppm(b"P3\n1 1\n255\n1 2 3")


def test_decode_ppm_rejects_maxval():
    with pytest.raises(dm.PpmError, match="maxval"):
        dm.decode_ppm(b"P6\n1 1\n65535\n\x01\x02\x03")


@pytest.mark.parametrize("blob", [b"P6\n" + b"9" * 5000 + b" 1\n255\n", b"P6\n1 1\n" + b"0" * 19 + b"255\n\0\0\0"],
                         ids=["width", "zero-padded-maxval"])
def test_decode_ppm_rejects_over_long_header_fields(blob):
    with pytest.raises(dm.PpmError, match="digits is too large"):
        dm.decode_ppm(blob)


def test_decode_ppm_rejects_truncation():
    with pytest.raises(dm.PpmError, match="truncated"):
        dm.decode_ppm(b"P6\n2 2\n255\n" + bytes(11))


# each outcome, pixels or the exact PpmError message, is the one the earlier
# byte-at-a-time header reader gave
@pytest.mark.parametrize("blob, want", [
    pytest.param(b"# made by hand\nP6 1 1 255\n\x01\x02\x03", [1, 2, 3], id="comment-before-magic"),
    pytest.param(b"P6\n#a\n1 #b\n1\n#c\n255\n\x01\x02\x03", [1, 2, 3], id="comment-between-every-field"),
    pytest.param(b"P6 1#2 1 255\n\x01\x02\x03", "bad PPM header field b'1#2'", id="hash-inside-field"),
    pytest.param(b"P6#a\n1 1 255\n\x01\x02\x03", "unsupported PPM format b'P6#a': only binary P6 is handled",
                 id="hash-right-after-magic"),
    pytest.param(b"P6\t1\r1\x0b255\x0c\x01\x02\x03", [1, 2, 3], id="tab-cr-vt-ff-separators"),
    pytest.param(b"P6\xa01 1 255\n\x01\x02\x03", "unsupported PPM format b'P6\\xa01': only binary P6 is handled",
                 id="non-ascii-space-is-no-separator"),
    pytest.param(b"P6 1 1 255\n#\x02\x03", [35, 2, 3], id="one-byte-after-maxval-then-pixels"),
    pytest.param(b"P6 1 1", "truncated PPM header", id="header-ends-at-eof"),
    pytest.param(b"P6 1 1 # no newline", "truncated PPM header", id="comment-runs-to-eof"),
    pytest.param(b"P6 1 1 255", "truncated PPM payload: expected 3 bytes, got 0", id="nothing-after-maxval"),
    pytest.param(b"", "truncated PPM header", id="empty"),
    pytest.param(b" \t\r\n\x0b\x0c", "truncated PPM header", id="whitespace-only"),
    pytest.param(b"P6\n#" + b"c" * 4_000_000 + b"\n1 1\n255\n\x01\x02\x03", [1, 2, 3], id="four-megabyte-comment"),
])
def test_decode_ppm_header_grammar(blob, want):
    if isinstance(want, list):
        assert dm.decode_ppm(blob).reshape(-1).tolist() == want
    else:
        with pytest.raises(dm.PpmError) as info:
            dm.decode_ppm(blob)
        assert str(info.value) == want


@pytest.mark.parametrize("blob, pattern", [
    pytest.param(b"P" * MEGABYTE, "^unsupported PPM format b'PPP", id="magic"),
    pytest.param(b"P6 " + b"9" * (MEGABYTE - 1) + b"x 1 255\n", "^bad PPM header field b'999", id="width"),
])
def test_decode_ppm_error_quotes_a_bounded_excerpt(blob, pattern):
    with pytest.raises(dm.PpmError) as info:
        dm.decode_ppm(blob)
    assert_bounded_excerpt(info.value, pattern)


def test_ppm_round_trip(tmp_path, rng):
    img = rng.random((5, 7, 3)).astype(np.float32)
    path = tmp_path / "img.ppm"
    dm.write_ppm(path, img)
    back = dm.decode_ppm(path.read_bytes())
    assert back.shape == (5, 7, 3)
    assert np.max(np.abs(back / 255.0 - img)) <= 0.5 / 255.0 + 1e-6


# ---------------------------------------------------------------------------
# resize and normalize

def test_resize_identity_is_bit_exact(rng):
    img = rng.random((9, 13, 3)).astype(np.float32)
    out = dm.resize_bilinear(img, 9, 13)
    assert np.array_equal(out, img)


def test_resize_constant_stays_constant():
    img = np.full((5, 5, 3), 42.0, np.float32)
    out = dm.resize_bilinear(img, 12, 3)
    assert np.allclose(out, 42.0, atol=1e-5)


def _scalar_bilinear(img, oh, ow):
    """Per-pixel reference: half-pixel centers, edge clamp."""
    h, w, c = img.shape
    out = np.zeros((oh, ow, c))
    for oy in range(oh):
        for ox in range(ow):
            sy = (oy + 0.5) * h / oh - 0.5
            sx = (ox + 0.5) * w / ow - 0.5
            y0 = min(max(int(np.floor(sy)), 0), h - 1)
            x0 = min(max(int(np.floor(sx)), 0), w - 1)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy = min(max(sy - y0, 0.0), 1.0)
            fx = min(max(sx - x0, 0.0), 1.0)
            for ch in range(c):
                top = img[y0, x0, ch] * (1 - fx) + img[y0, x1, ch] * fx
                bot = img[y1, x0, ch] * (1 - fx) + img[y1, x1, ch] * fx
                out[oy, ox, ch] = top * (1 - fy) + bot * fy
    return out


def test_resize_matches_scalar_reference():
    img = np.zeros((2, 2, 1), np.float64)
    img[:, :, 0] = [[0.0, 100.0], [100.0, 200.0]]
    got = dm.resize_bilinear(img, 4, 4)
    want = _scalar_bilinear(img, 4, 4)
    assert np.max(np.abs(got - want)) < 1e-4


def test_resize_random_against_reference(rng):
    img = rng.random((6, 9, 2))
    for oh, ow in ((3, 4), (12, 5), (9, 9)):
        got = dm.resize_bilinear(img, oh, ow)
        want = _scalar_bilinear(img, oh, ow)
        assert np.max(np.abs(got - want)) < 1e-10


def _broadcast_bilinear(img, out_h, out_w):
    """The earlier whole-array formula: the same float64 expressions, with
    weights broadcast against the channel axis."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(img.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_is_byte_identical_to_broadcast_formula(rng, dtype):
    crop = rng.random((300, 280, 3)).astype(dtype)[10:200:2, 5:260:3]  # not contiguous
    cases = [(rng.random((256, 256, 3)).astype(dtype), 64, 64), (rng.random((5, 7, 3)).astype(dtype), 20, 13),
             (rng.random((9, 13, 3)).astype(dtype), 30, 3), (rng.random((64, 64, 3)).astype(dtype), 1, 1),
             (rng.random((1, 1, 3)).astype(dtype), 4, 4), (rng.random((6, 9, 2)).astype(dtype), 12, 5),
             (crop, 64, 64)]
    for img, oh, ow in cases:
        got, want = dm.resize_bilinear(img, oh, ow), _broadcast_bilinear(img, oh, ow)
        assert got.dtype == want.dtype and got.shape == want.shape, (img.shape, oh, ow)
        assert got.tobytes() == want.tobytes(), (img.shape, oh, ow)


def test_resize_rejects_bad_target():
    with pytest.raises(ValueError):
        dm.resize_bilinear(np.zeros((4, 4, 3)), 0, 4)


def test_normalize_endpoints():
    img = np.array([[[0.0, 127.0, 255.0]]], np.float32)
    out = dm.normalize(img)
    assert out[0, 0, 0] == 0.0
    assert abs(out[0, 0, 1] - 127.0 / 255.0) < 1e-6
    assert out[0, 0, 2] == 1.0


@pytest.mark.parametrize("side", [256, 64, 37])
def test_load_image_is_decode_then_normalize_then_resize(tmp_path, rng, side):
    blob = dm.encode_ppm(rng.random((side, side, 3)))
    path = tmp_path / "img.ppm"
    path.write_bytes(blob)
    # the arithmetic of the float32 decode this loader replaced, written out
    want = dm.resize_bilinear(dm.decode_ppm(blob).astype(np.float32) / np.float32(255), 64, 64)
    got = dm.load_image(path, 64, 64)
    assert got.dtype == np.float32 and got.shape == (64, 64, 3)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 70), w=st.integers(1, 70),
       target=st.one_of(st.just(None), st.tuples(st.integers(1, 80), st.integers(1, 80))))
def test_load_image_bytes_equal_normalize_then_resize(seed, h, w, target):
    """Down- and upsampling, identity (target None) and non-square targets."""
    out_h, out_w = target or (h, w)
    blob = dm.encode_ppm(np.random.default_rng(seed).random((h, w, 3)))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "img.ppm")
        with open(path, "wb") as fh:
            fh.write(blob)
        got = dm.load_image(path, out_h, out_w)
    want = dm.resize_bilinear(dm.normalize(dm.decode_ppm(blob)), out_h, out_w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_decode_ppm_does_not_copy_the_payload():
    blob = dm.encode_ppm(np.full((3, 2, 3), 0.5))
    assert np.shares_memory(dm.decode_ppm(blob), np.frombuffer(blob, np.uint8))


def test_load_image_normalizes_only_the_sampled_pixels(tmp_path, rng, monkeypatch):
    """Per-image load cost follows the model input, not the source size."""
    path = tmp_path / "aid.ppm"
    dm.write_ppm(path, rng.random((600, 600, 3)))
    sizes = []
    real_normalize = dm.normalize

    def normalize(img):
        sizes.append(img.size)
        return real_normalize(img)

    monkeypatch.setattr(dm, "normalize", normalize)
    dm.load_image(path, 64, 64)
    assert 0 < sum(sizes) <= 4 * 64 * 64 * 3
    sizes.clear()
    manifest = dm.DatasetManifest(["a"], [dm.SampleRecord("a/aid.ppm", 0, str(path), split="test")])
    dm.split_arrays(manifest, "test", 64, 64)
    assert 0 < sum(sizes) <= 4 * 64 * 64 * 3


def test_sampling_plan_arrays_refuse_writes():
    plan = dm._sampling_plan(10, 12, 3, 4, 5)
    assert plan is dm._sampling_plan(10, 12, 3, 4, 5)
    for array in plan:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def _mixed_size_tree(root, rng, sizes):
    manifest = dm.DatasetManifest(["a", "b"])
    for i, (h, w) in enumerate(sizes):
        cls = ["a", "b"][i % 2]
        os.makedirs(root / cls, exist_ok=True)
        path = root / cls / f"{i:02d}.ppm"
        dm.write_ppm(path, rng.random((h, w, 3)))
        manifest.samples.append(dm.SampleRecord(f"{cls}/{i:02d}.ppm", i % 2, str(path), split="train"))
    return manifest


def test_split_of_mixed_sizes_samples_each_image_with_its_own_plan(tmp_path, rng):
    sizes = [(40, 30), (17, 45), (40, 30), (16, 16), (90, 7), (17, 45)]
    manifest = _mixed_size_tree(tmp_path, rng, sizes)
    dm._sampling_plan.cache_clear()
    x, y = dm.split_arrays(manifest, "train", 16, 16)
    assert dm._sampling_plan.cache_info().currsize == 3  # (16, 16) is the target size: no plan
    for row, s in zip(x, manifest.samples):
        want = dm.resize_bilinear(dm.normalize(dm.read_ppm(s.path)), 16, 16)
        assert row.tobytes() == want.tobytes(), s.key
    assert y.tolist() == [0, 1, 0, 1, 0, 1]


def test_split_arrays_equals_stacked_per_image_loads(tmp_path, rng):
    manifest = _mixed_size_tree(tmp_path, rng, [(64, 64), (256, 256), (33, 80), (64, 64)])
    x, _ = dm.split_arrays(manifest, "train", 64, 64)
    want = np.stack([dm.load_image(s.path, 64, 64) for s in manifest.samples])
    assert x.dtype == np.float32 and x.tobytes() == want.tobytes()
    memory = dm.DatasetManifest(["a"], [dm.SampleRecord(f"a/{i}", 0, image=img, split="val")
                                        for i, img in enumerate(x[:2])])
    memory.samples.append(dm.SampleRecord("a/big", 0, image=rng.random((90, 70, 3)).astype(np.float32), split="val"))
    got, _ = dm.split_arrays(memory, "val", 48, 48)
    want = np.stack([dm.resize_bilinear(s.image, 48, 48) for s in memory.samples])
    assert got.tobytes() == want.tobytes()


def test_split_arrays_keeps_files_of_the_target_size_as_pixels(tmp_path, rng):
    """A split of files that all have the target size is their decoded uint8
    pixels, whose `to_input` has the bytes of the per-image loads; any other
    split is float32 in [0,1], as before."""
    same = _mixed_size_tree(tmp_path / "same", rng, [(16, 16)] * 5)
    x, y = dm.split_arrays(same, "train", 16, 16)
    assert x.dtype == np.uint8 and y.tolist() == [0, 1, 0, 1, 0]
    loads = np.stack([dm.load_image(s.path, 16, 16) for s in same.samples])
    assert dm.to_input(x).tobytes() == loads.tobytes()
    assert dm.to_input(loads) is loads
    mixed = _mixed_size_tree(tmp_path / "mixed", rng, [(16, 16), (16, 16), (20, 16)])
    memory = dm.DatasetManifest(["a"], [dm.SampleRecord(f"a/{i}", 0, image=img, split="train")
                                        for i, img in enumerate(loads)])
    for manifest, side in ((mixed, 16), (same, 8), (memory, 16)):  # mixed sizes, resized, in memory
        got, _ = dm.split_arrays(manifest, "train", side, side)
        want = np.stack([dm.load_image(s.path, side, side) if s.image is None
                         else dm.resize_bilinear(s.image, side, side) for s in manifest.samples])
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_load_and_split_reject_bad_target(tmp_path, rng):
    manifest = _mixed_size_tree(tmp_path, rng, [(8, 8), (8, 8)])
    with pytest.raises(ValueError, match="target size must be positive"):
        dm.load_image(manifest.samples[0].path, 0, 8)
    with pytest.raises(ValueError, match="target size must be positive"):
        dm.split_arrays(manifest, "train", 8, 0)


# ---------------------------------------------------------------------------
# directory loading

def _write_tree(root, classes, counts, side=4):
    rng = np.random.Generator(np.random.PCG64(0))
    for name, count in zip(classes, counts):
        folder = root / name
        folder.mkdir(parents=True)
        for i in range(count):
            dm.write_ppm(folder / f"{i:03d}.ppm", rng.random((side, side, 3)).astype(np.float32))


def test_load_dataset_sorted_classes(tmp_path):
    _write_tree(tmp_path, ["river", "forest", "city"], [3, 3, 3])
    manifest = dm.load_dataset(tmp_path)
    assert manifest.class_names == ["city", "forest", "river"]
    assert len(manifest.samples) == 9
    assert [s.key for s in manifest.samples] == sorted(s.key for s in manifest.samples)


def test_load_dataset_deterministic(tmp_path):
    _write_tree(tmp_path, ["a", "b"], [4, 4])
    m1 = dm.load_dataset(tmp_path)
    m2 = dm.load_dataset(tmp_path)
    assert [s.key for s in m1.samples] == [s.key for s in m2.samples]


def test_load_dataset_rejects_single_class(tmp_path):
    _write_tree(tmp_path, ["only"], [3])
    with pytest.raises(ValueError, match="class folders"):
        dm.load_dataset(tmp_path)


def test_load_dataset_rejects_empty_class(tmp_path):
    _write_tree(tmp_path, ["a", "b"], [3, 3])
    (tmp_path / "bare").mkdir()
    with pytest.raises(ValueError, match="bare.*no .ppm images"):
        dm.load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# stratified split

def _memory_manifest(per_class, classes=3):
    names = [f"c{i}" for i in range(classes)]
    manifest = dm.DatasetManifest(names)
    for cls in range(classes):
        for i in range(per_class):
            manifest.samples.append(
                dm.SampleRecord(key=f"c{cls}/{i:05d}", class_index=cls,
                                image=np.zeros((4, 4, 3), np.float32))
            )
    return manifest


def test_split_exact_fractions():
    manifest = dm.stratified_split(_memory_manifest(100), dm.SplitSpec(seed=1))
    assert manifest.per_class_counts("train") == [70, 70, 70]
    assert manifest.per_class_counts("val") == [15, 15, 15]
    assert manifest.per_class_counts("test") == [15, 15, 15]


def test_split_floor_remainder_rule_101():
    manifest = dm.stratified_split(_memory_manifest(101), dm.SplitSpec(seed=1))
    assert manifest.per_class_counts("train") == [71, 71, 71]
    assert manifest.per_class_counts("val") == [15, 15, 15]
    assert manifest.per_class_counts("test") == [15, 15, 15]


def test_split_eurosat_scale_band(rng):
    sizes = [int(rng.integers(2000, 3001)) for _ in range(10)]
    names = [f"c{i}" for i in range(10)]
    manifest = dm.DatasetManifest(names)
    for cls, n in enumerate(sizes):
        for i in range(n):
            manifest.samples.append(dm.SampleRecord(key=f"c{cls}/{i:05d}", class_index=cls))
    dm.stratified_split(manifest, dm.SplitSpec(seed=3))
    train = manifest.per_class_counts("train")
    for n, t in zip(sizes, train):
        assert t == n - 2 * int(np.floor(0.15 * n))
        assert 1400 <= t <= 2100


def test_split_disjoint_and_exhaustive():
    manifest = dm.stratified_split(_memory_manifest(37), dm.SplitSpec(seed=5))
    assert all(s.split in ("train", "val", "test") for s in manifest.samples)


def test_split_deterministic_and_order_independent():
    a = dm.stratified_split(_memory_manifest(50), dm.SplitSpec(seed=9))
    b = _memory_manifest(50)
    b.samples.reverse()  # enumeration order must not matter
    dm.stratified_split(b, dm.SplitSpec(seed=9))
    by_key_a = {s.key: s.split for s in a.samples}
    by_key_b = {s.key: s.split for s in b.samples}
    assert by_key_a == by_key_b


def test_split_rejects_tiny_class():
    manifest = _memory_manifest(2)
    with pytest.raises(ValueError, match=">= 3"):
        dm.stratified_split(manifest, dm.SplitSpec(seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        dm.SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2).validate()


def test_manifest_csv_round_trip():
    manifest = dm.stratified_split(_memory_manifest(10), dm.SplitSpec(seed=2))
    csv = dm.manifest_to_csv(manifest)
    fresh = _memory_manifest(10)
    dm.apply_split_csv(fresh, csv)
    assert [s.split for s in fresh.samples] == [s.split for s in manifest.samples]


# ---------------------------------------------------------------------------
# synthetic scenes

def test_synth_counts():
    manifest = dm.synth_generate(4, 25, side=16, seed=0)
    assert len(manifest.samples) == 100
    assert manifest.per_class_counts("unassigned") == [25, 25, 25, 25]


def test_synth_deterministic():
    a = dm.synth_generate(3, 5, side=16, seed=42)
    b = dm.synth_generate(3, 5, side=16, seed=42)
    for s1, s2 in zip(a.samples, b.samples):
        assert np.array_equal(s1.image, s2.image)


def test_synth_seed_changes_pixels():
    a = dm.synth_generate(2, 2, side=16, seed=1)
    b = dm.synth_generate(2, 2, side=16, seed=2)
    assert not np.array_equal(a.samples[0].image, b.samples[0].image)


def test_synth_default_stream_bytes_pinned():
    # SHA-256 of the images as generated before the unjittered path was
    # removed; the benchmark set-up and criterion 07 depend on these bytes
    manifest = dm.synth_generate(6, 2, side=16, seed=3)
    digest = hashlib.sha256()
    for s in manifest.samples:
        digest.update(s.image.tobytes())
    assert digest.hexdigest() == "0a4ee3a462c06f8d7231b7d5ed1de06478759c6ba233b4dd3731d117e09c9248"


def test_synth_rejects_too_many_classes():
    with pytest.raises(ValueError, match="patterns"):
        dm.synth_generate(7, 1)


def test_synth_images_in_unit_range():
    manifest = dm.synth_generate(6, 2, side=16, seed=3)
    for s in manifest.samples:
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_write_dataset_round_trip(tmp_path):
    manifest = dm.synth_generate(2, 3, side=8, seed=11)
    dm.write_dataset(manifest, tmp_path)
    loaded = dm.load_dataset(tmp_path)
    assert loaded.class_names == manifest.class_names
    assert len(loaded.samples) == 6
    # decode -> normalize recovers the written pixels up to quantization
    img = dm.normalize(dm.read_ppm(loaded.samples[0].path))
    assert np.max(np.abs(img - manifest.samples[0].image)) <= 0.5 / 255.0 + 1e-6


@pytest.mark.parametrize("bad", ["a,b", "a=b", "a\nb", "a\rb", " a", "a "])
def test_load_dataset_rejects_format_breaking_class_names(tmp_path, bad):
    _write_tree(tmp_path, [bad, "c"], [3, 3])
    with pytest.raises(ValueError, match="class folder .*must not contain"):
        dm.load_dataset(tmp_path)


@pytest.mark.parametrize("bad", ["a,b.ppm", "a\nb.ppm", "a\rb.ppm"])
def test_load_dataset_rejects_format_breaking_image_names(tmp_path, bad):
    _write_tree(tmp_path, ["a", "b"], [3, 3])
    (tmp_path / "b" / "001.ppm").rename(tmp_path / "b" / bad)
    with pytest.raises(ValueError, match=r"image file .*b.*must not contain ',' or a line break") as info:
        dm.load_dataset(tmp_path)
    assert repr(bad)[1:-1] in str(info.value)


def test_apply_split_csv_rejects_duplicate_path():
    manifest = dm.stratified_split(_memory_manifest(10), dm.SplitSpec(seed=2))
    lines = dm.manifest_to_csv(manifest).splitlines()
    key, cls, _ = lines[1].split(",")
    moved = ",".join([key, cls, "val" if manifest.samples[0].split == "train" else "train"])
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}: duplicate path '{key}'"):
        dm.apply_split_csv(_memory_manifest(10), "\n".join(lines + [moved]) + "\n")


@pytest.mark.parametrize("rows, pattern", [
    pytest.param(["{key},a,train", "{key},a,val"], r"^split manifest line 3: duplicate path 'a/1+'", id="path"),
    pytest.param(["{key},a,{long}"], r"^split manifest line 2: unknown split 'x+'", id="split"),
    pytest.param(["{key},{long},train"], r"^split manifest class mismatch for 'a/1+' .*: 'x+'", id="class"),
    pytest.param([], r"^split manifest missing sample 'a/1+'", id="missing"),
    pytest.param(["{key},a,train", "{long},a,train"], r"^split manifest line 3: path 'x+' .*not in the dataset tree",
                 id="extra"),
])
def test_apply_split_csv_error_quotes_a_bounded_excerpt(rows, pattern):
    key = "a/" + "1" * (MEGABYTE - 2)
    manifest = dm.DatasetManifest(["a"], [dm.SampleRecord(key=key, class_index=0)])
    text = "\n".join(["path,class,split"] + [row.format(key=key, long="x" * MEGABYTE) for row in rows])
    with pytest.raises(ValueError) as info:
        dm.apply_split_csv(manifest, text)
    assert_bounded_excerpt(info.value, pattern)


def test_excerpt_list_reads_like_a_list_and_stays_bounded():
    assert dm.excerpt_list(["a", "b"]) == str(["a", "b"])
    assert dm.excerpt_list([]) == "[]"
    text = dm.excerpt_list(["x" * MEGABYTE] * 1000)
    assert text.endswith(", ...] (first 16 of 1,000)") and text.count("(first 64 of 1,048,576)") == 16
    assert len(text) < 2000
