"""Dataset ingestion, preprocessing, deterministic splitting, and a
procedural texture generator for desk-scale experiments.

On-disk datasets are trees of binary PPM images, one folder per class
(`root/<class_name>/<image>.ppm`); `load_image` turns one into a model
input with the bytes of `resize_bilinear(normalize(pixels))`: decode yields
uint8 pixels, a view of the file's bytes, and `normalize` maps them to
float32 in [0,1]. Normalizing is elementwise, so `load_image` gathers the
pixels the bilinear resize samples and normalizes only those; its cost
follows the model input, not the source size (at 64 px: 0.15 ms per image
from 256 px sources, 0.24 ms from 600 px). The sampling plan, indices and
weights, is built once per geometry and cached.

`split_arrays` stacks a split. When every image is a file that already has
the model's size, it keeps their decoded uint8 pixels, a quarter of the
float32 bytes, and `to_input` normalizes each slice a train batch or an
inference chunk takes; normalizing is elementwise, so the model gets the
bytes that `load_image` gives. Any other split is float32 model input.

Synthetic images live in memory and are already normalized; each draws its
pattern's period, phase or placement and then its pixel noise (sigma
`SYNTH_NOISE_SIGMA`, 10/255) from a stream seeded by (seed, class, index).
`synth_samples` makes them one at a time, so a caller can write each and
drop it; `synth_generate` collects them into an in-memory dataset.

A PPM header is four fields, `P6`, width, height and maxval 255. Before
each field come any ASCII whitespace and `#` comments, which run to the end
of their line; each field ends at whitespace, and exactly one whitespace
byte follows maxval before the pixels.
"""

import functools
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fileio import write_atomic
from .numerics import Tensor


@dataclass
class SampleRecord:
    key: str  # class-relative path, or synthetic id; stable sort identity
    class_index: int
    path: str | None = None
    image: Tensor | None = None  # in-memory samples, float32 in [0,1]; a split of them stays float32
    split: str = "unassigned"


@dataclass
class DatasetManifest:
    class_names: list
    samples: list = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def of_split(self, split: str) -> list:
        return [s for s in self.samples if s.split == split]

    def per_class_counts(self, split: str) -> list:
        counts = [0] * self.num_classes
        for s in self.of_split(split):
            counts[s.class_index] += 1
        return counts


@dataclass
class SplitSpec:
    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def validate(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {fracs}")


EXCERPT_LEN = 64


def excerpt(value) -> str:
    """repr of a str or bytes value from outside the program, for an error
    message: whole up to EXCERPT_LEN items, else its first EXCERPT_LEN and its length."""
    if len(value) <= EXCERPT_LEN:
        return repr(value)
    return f"{value[:EXCERPT_LEN]!r} (first {EXCERPT_LEN} of {len(value):,})"


EXCERPT_ITEMS = 16


def excerpt_list(values) -> str:
    """A list of str or bytes values from outside the program, for an error
    message: like `str(list)`, but each item through `excerpt`, and past
    EXCERPT_ITEMS items only the first EXCERPT_ITEMS and the list's length."""
    shown = ", ".join(excerpt(v) for v in values[:EXCERPT_ITEMS])
    if len(values) <= EXCERPT_ITEMS:
        return f"[{shown}]"
    return f"[{shown}, ...] (first {EXCERPT_ITEMS} of {len(values):,})"


# ---------------------------------------------------------------------------
# PPM codec (binary "P6", maxval 255)

class PpmError(ValueError):
    pass


# magic, width, height, maxval: each after whitespace and '#' comments, each
# ending at whitespace. Every part can match empty, so the greedy first try
# always matches and never backtracks; an empty token means the blob ended.
_PPM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)


def decode_ppm(blob: bytes) -> Tensor:
    """Binary PPM bytes -> (h, w, 3) uint8 pixels, a read-only view of blob."""
    header = _PPM_HEADER.match(blob)
    magic, *tokens = header.groups()
    if not magic:
        raise PpmError("truncated PPM header")
    if magic != b"P6":
        raise PpmError(f"unsupported PPM format {excerpt(magic)}: only binary P6 is handled")
    fields = []
    for tok in tokens:
        if not tok:
            raise PpmError("truncated PPM header")
        if not tok.isdigit():
            raise PpmError(f"bad PPM header field {excerpt(tok)}")
        if len(tok) > 18:  # int() refuses or crawls on long digit runs; no payload this large fits in memory
            raise PpmError(f"PPM header field of {len(tok)} digits is too large")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise PpmError(f"unsupported PPM maxval {maxval}: expected 255")
    if w < 1 or h < 1:
        raise PpmError(f"bad PPM dimensions {w}x{h}")
    pos = header.end() + 1  # single whitespace byte after maxval
    available = max(len(blob) - pos, 0)
    if available < h * w * 3:
        raise PpmError(f"truncated PPM payload: expected {h * w * 3} bytes, got {available}")
    return np.frombuffer(blob, dtype=np.uint8, count=h * w * 3, offset=pos).reshape(h, w, 3)


def encode_ppm(img: Tensor) -> bytes:
    """(h, w, 3) array in [0,1] -> binary PPM bytes."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise PpmError(f"expected (h,w,3) image, got {img.shape}")
    h, w = img.shape[:2]
    raw = np.clip(np.rint(np.asarray(img, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + raw.tobytes()


def read_ppm(path) -> Tensor:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PpmError(f"cannot read {path}: {exc}") from exc
    return decode_ppm(blob)


def write_ppm(path, img: Tensor):
    write_atomic(path, [encode_ppm(img)])


# ---------------------------------------------------------------------------
# preprocessing

class _SamplingPlan(NamedTuple):
    """Where and with what weights a bilinear resize of one geometry samples.

    `index` holds the flat source positions of every output value's four
    neighbours, shape (2, 2, out_h, out_w, c): rows y0 then y1, columns x0
    then x1. The x weights repeat once per channel, so every product runs
    along out_w*c elements instead of c."""
    index: Tensor
    fx: Tensor  # (out_w, c)
    one_minus_fx: Tensor
    fy: Tensor  # (out_h, 1, 1)
    one_minus_fy: Tensor


@functools.lru_cache(maxsize=8)
def _sampling_plan(h: int, w: int, c: int, out_h: int, out_w: int) -> _SamplingPlan:
    """The read-only plan of an (h, w, c) -> (out_h, out_w, c) resize with
    half-pixel-centered sampling, built once per geometry."""
    # source coordinate of each output pixel center
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.repeat(np.clip(xs - x0, 0.0, 1.0), c).reshape(out_w, c)
    rows = np.stack([y0, y1])[:, None, :, None, None] * (w * c)
    cols = (np.stack([x0, x1])[:, :, None] * c + np.arange(c))[None, :, None]
    plan = _SamplingPlan(rows + cols, fx, 1 - fx, fy, 1 - fy)
    for array in plan:
        array.flags.writeable = False
    return plan


def _check_target(out_h: int, out_w: int):
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target size must be positive, got {out_h}x{out_w}")


def _fit(img: Tensor, out: Tensor, prep=None) -> Tensor:
    """Write the bilinear resize of img (h, w, c) to out's (out_h, out_w, c)
    into out and return it. The elementwise `prep`, if given, maps only the
    sampled source values, which gives the bytes of resizing prep(img)."""
    if img.shape == out.shape:
        out[...] = img if prep is None else prep(img)
        return out
    out_h, out_w, _ = out.shape
    plan = _sampling_plan(*img.shape, out_h, out_w)
    corners = np.take(img, plan.index)
    if prep is not None:
        corners = prep(corners)
    (top_left, top_right), (bottom_left, bottom_right) = corners
    top = top_left * plan.one_minus_fx + top_right * plan.fx
    bot = bottom_left * plan.one_minus_fx + bottom_right * plan.fx
    # the float64 blend is cast into out's dtype the way astype casts
    return np.add(top * plan.one_minus_fy, bot * plan.fy, out=out, casting="unsafe")


def resize_bilinear(img: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of an (h, w, c) image with half-pixel-centered
    sampling; a copy when the target equals the source size."""
    _check_target(out_h, out_w)
    _, _, c = img.shape
    return _fit(img, np.empty((out_h, out_w, c), img.dtype))


def normalize(img: Tensor) -> Tensor:
    """Map [0,255] pixel values, such as decoded uint8 pixels, to a new float32 array in [0,1]."""
    out = img.astype(np.float32)
    out /= np.float32(255.0)
    return out


def to_input(x: Tensor) -> Tensor:
    """x as model input in [0,1]: uint8 pixels through `normalize`, float input as it is."""
    return normalize(x) if x.dtype == np.uint8 else x


def load_image(path, out_h: int, out_w: int) -> Tensor:
    """One PPM file as an (out_h, out_w, 3) float32 model input in [0,1]:
    the bytes of `resize_bilinear(normalize(read_ppm(path)), out_h, out_w)`,
    normalizing only the pixels the resize samples."""
    _check_target(out_h, out_w)
    return _fit(read_ppm(path), np.empty((out_h, out_w, 3), np.float32), normalize)


# ---------------------------------------------------------------------------
# directory loading

def _breaks_line(name: str) -> bool:
    """True if str.splitlines, which reads manifests and configs, would split name."""
    return name.splitlines() != [name]


def check_class_name(name: str, what: str):
    """Raise ValueError, naming `what`, unless name can be a class name.

    Class names are stored comma-separated in key=value checkpoint lines,
    whose reader strips outer whitespace, and in the comma-separated split
    manifest. An empty name is refused too: `_breaks_line("")` is true.
    """
    if "," in name or "=" in name or _breaks_line(name) or name != name.strip():
        raise ValueError(f"{what}: name must not contain ',', '=' or a line break, nor be empty or begin or end "
                         "with whitespace")


def load_dataset(root) -> DatasetManifest:
    """Scan `root/<class>/<image>.ppm`; classes indexed in sorted name order,
    samples enumerated in sorted path order."""
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root} is not a directory")
    class_names = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    if len(class_names) < 2:
        raise ValueError(f"dataset root {root} has {len(class_names)} class folders; need >= 2")
    manifest = DatasetManifest(class_names)
    for idx, name in enumerate(class_names):
        folder = os.path.join(root, name)
        check_class_name(name, f"class folder {folder!r}")
        files = sorted(f for f in os.listdir(folder) if f.lower().endswith(".ppm"))
        if not files:
            raise ValueError(f"class folder {folder} contains no .ppm images")
        for f in files:
            path = os.path.join(folder, f)
            if "," in f or _breaks_line(f):
                # the sample key is a field of the comma-separated split manifest
                raise ValueError(f"image file {path!r}: name must not contain ',' or a line break")
            if not os.access(path, os.R_OK):
                raise PermissionError(f"unreadable image file {path}")
            manifest.samples.append(SampleRecord(key=f"{name}/{f}", class_index=idx, path=path))
    return manifest


def split_arrays(manifest: DatasetManifest, split: str, out_h: int, out_w: int):
    """Materialize one split as (images (n,h,w,3), labels).

    When every sample is a file of the target size, the images are its
    decoded uint8 pixels, a quarter of the float32 bytes; `to_input` turns
    any slice of them into the model input that `load_image` gives. Otherwise
    (an in-memory sample, or a file of another size) they are float32 in
    [0,1], as `load_image` and `resize_bilinear` give them.
    """
    records = manifest.of_split(split)
    if not records:
        sizes = np.bincount([s.class_index for s in manifest.samples], minlength=manifest.num_classes).tolist()
        raise ValueError(f"split {split!r} has no samples: per-class counts {manifest.per_class_counts(split)} "
                         f"of class sizes {sizes}")
    _check_target(out_h, out_w)
    x = np.empty((len(records), out_h, out_w, 3), np.uint8)
    for row, s in enumerate(records):
        pixels = None if s.image is not None else read_ppm(s.path)
        if x.dtype == np.uint8 and (pixels is None or pixels.shape != x.shape[1:]):
            # the split is float32 from here on, its rows so far normalized as `load_image` would
            floats = np.empty(x.shape, np.float32)
            floats[:row] = normalize(x[:row])
            x = floats
        if x.dtype == np.uint8:
            x[row] = pixels
        elif pixels is None:
            _fit(s.image, x[row])
        else:
            _fit(pixels, x[row], normalize)
    y = np.array([s.class_index for s in records], dtype=np.int64)
    return x, y


# ---------------------------------------------------------------------------
# stratified splitting

def stratified_split(manifest: DatasetManifest, spec: SplitSpec) -> DatasetManifest:
    """Assign each sample to train/val/test, per class, deterministically.

    Per class: samples are ordered by their stable key, shuffled by a PRNG
    seeded with (seed XOR class index), then floor(val_frac*n) go to val,
    floor(test_frac*n) to test, and the remainder to train. Assignment
    depends only on sample identity and the seed, not enumeration order.
    """
    spec.validate()
    by_class = {}
    for s in manifest.samples:
        by_class.setdefault(s.class_index, []).append(s)
    for idx in range(manifest.num_classes):
        group = sorted(by_class.get(idx, []), key=lambda s: s.key)
        n = len(group)
        if n < 3:
            raise ValueError(f"class {manifest.class_names[idx]!r} has {n} samples; need >= 3 to split")
        rng = np.random.Generator(np.random.PCG64(spec.seed ^ idx))
        order = rng.permutation(n)
        n_val = int(np.floor(spec.val_frac * n))
        n_test = int(np.floor(spec.test_frac * n))
        for rank, j in enumerate(order):
            if rank < n_val:
                group[j].split = "val"
            elif rank < n_val + n_test:
                group[j].split = "test"
            else:
                group[j].split = "train"
    return manifest


def manifest_to_csv(manifest: DatasetManifest) -> str:
    lines = ["path,class,split"]
    for s in manifest.samples:
        lines.append(f"{s.key},{manifest.class_names[s.class_index]},{s.split}")
    return "\n".join(lines) + "\n"


def apply_split_csv(manifest: DatasetManifest, text: str):
    """Apply split assignments from a manifest CSV onto a loaded manifest."""
    assignments = {}
    lines = text.splitlines()
    if not lines or lines[0] != "path,class,split":
        raise ValueError("split manifest: expected header 'path,class,split'")
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"split manifest line {lineno}: expected 3 fields")
        key, cls, split = parts
        if key in assignments:
            raise ValueError(f"split manifest line {lineno}: duplicate path {excerpt(key)}")
        if split not in ("train", "val", "test", "unassigned"):
            raise ValueError(f"split manifest line {lineno}: unknown split {excerpt(split)}")
        assignments[key] = (cls, split, lineno)
    for s in manifest.samples:
        if s.key not in assignments:
            raise ValueError(f"split manifest missing sample {excerpt(s.key)}")
        cls, split, _ = assignments.pop(s.key)
        if cls != manifest.class_names[s.class_index]:
            raise ValueError(f"split manifest class mismatch for {excerpt(s.key)}: {excerpt(cls)}")
        s.split = split
    if assignments:  # rows that no tree sample claimed, in manifest order
        key, (_, _, lineno) = next(iter(assignments.items()))
        raise ValueError(f"split manifest line {lineno}: path {excerpt(key)} is not in the dataset tree")
    return manifest


# ---------------------------------------------------------------------------
# synthetic scenes

def _grid(side):
    y, x = np.meshgrid(np.arange(side, dtype=np.float64), np.arange(side, dtype=np.float64), indexing="ij")
    return y, x


def _stripes_horizontal(side, rng):
    period = rng.uniform(6.0, 12.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    y, _ = _grid(side)
    return 0.5 + 0.5 * np.sin(2 * np.pi * y / period + phase)


def _checkerboard(side, rng):
    cell = int(rng.integers(4, 9))
    oy = int(rng.integers(0, cell))
    ox = int(rng.integers(0, cell))
    y, x = _grid(side)
    return (((y + oy) // cell + (x + ox) // cell) % 2).astype(np.float64)


def _radial_gradient(side, rng):
    cy = side / 2 + rng.uniform(-side / 8, side / 8)
    cx = side / 2 + rng.uniform(-side / 8, side / 8)
    scale = rng.uniform(0.6, 1.0)
    y, x = _grid(side)
    dist = np.sqrt((y - cy) ** 2 + (x - cx) ** 2)
    return np.clip(1.0 - dist / (scale * side * 0.75), 0.0, 1.0)


def _random_blobs(side, rng):
    count = int(rng.integers(6, 11))
    sigma = rng.uniform(3.0, 6.0)
    y, x = _grid(side)
    canvas = np.zeros((side, side), dtype=np.float64)
    for _ in range(count):
        cy, cx = rng.uniform(0, side, size=2)
        canvas += np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * sigma**2))
    top = canvas.max()
    return canvas / top if top > 0 else canvas


def _stripes_diagonal(side, rng):
    period = rng.uniform(6.0, 12.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    y, x = _grid(side)
    return 0.5 + 0.5 * np.sin(2 * np.pi * (y + x) / (period * np.sqrt(2.0)) + phase)


def _rings(side, rng):
    period = rng.uniform(5.0, 10.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    cy = side / 2 + rng.uniform(-side / 10, side / 10)
    cx = side / 2 + rng.uniform(-side / 10, side / 10)
    y, x = _grid(side)
    dist = np.sqrt((y - cy) ** 2 + (x - cx) ** 2)
    return 0.5 + 0.5 * np.sin(2 * np.pi * dist / period + phase)


SYNTH_NOISE_SIGMA = 10.0 / 255.0

SYNTH_PATTERNS = (
    ("00_stripes_horizontal", _stripes_horizontal),
    ("01_checkerboard", _checkerboard),
    ("02_radial_gradient", _radial_gradient),
    ("03_random_blobs", _random_blobs),
    ("04_stripes_diagonal", _stripes_diagonal),
    ("05_rings", _rings),
)


def synth_samples(classes: int, per_class: int, side: int = 64, seed: int = 0):
    """(class names, iterator of samples) of `classes` procedural textures with
    `per_class` samples each, deterministic under `seed`. Each sample's image is
    made as the iterator reaches it, so a caller that writes and drops each one
    holds one at a time. Raises ValueError on bad arguments at the call, before
    any image is made."""
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    if classes > len(SYNTH_PATTERNS):
        raise ValueError(f"only {len(SYNTH_PATTERNS)} texture patterns available, asked for {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    patterns = SYNTH_PATTERNS[:classes]
    return [name for name, _ in patterns], _synth_images(patterns, per_class, side, seed)


def _synth_images(patterns, per_class: int, side: int, seed: int):
    for cls, (name, pattern) in enumerate(patterns):
        for i in range(per_class):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, cls, i))))
            yield SampleRecord(key=f"{name}/{i:04d}.ppm", class_index=cls, image=_synth_image(pattern, side, rng))


def _synth_image(pattern, side: int, rng) -> Tensor:
    """The pattern plus pixel noise, clipped, worked in the buffer the noise is
    drawn into; only the float32 result outlives the call."""
    base = pattern(side, rng)
    img = rng.normal(0.0, SYNTH_NOISE_SIGMA, size=(side, side, 3))
    img += base[:, :, None]
    del base  # freed before the float32 copy is allocated, which can then reuse its memory
    np.clip(img, 0.0, 1.0, out=img)
    return img.astype(np.float32)


def synth_generate(classes: int, per_class: int, side: int = 64, seed: int = 0) -> DatasetManifest:
    """In-memory dataset of the samples of `synth_samples`."""
    names, samples = synth_samples(classes, per_class, side, seed)
    return DatasetManifest(names, list(samples))


def write_dataset(manifest: DatasetManifest, root):
    """Write a manifest's in-memory samples as a PPM tree under `root`. The
    samples may be any iterable, such as `synth_samples`' iterator: each is
    written as it is drawn."""
    for name in manifest.class_names:
        os.makedirs(os.path.join(root, name), exist_ok=True)
    for s in manifest.samples:
        if s.image is None:
            raise ValueError(f"sample {s.key} has no in-memory image to write")
        write_ppm(os.path.join(root, s.key), s.image)
