"""Dataset ingestion, preprocessing, deterministic splitting, and a
procedural texture generator for desk-scale experiments.

On-disk datasets are trees of binary PPM images, one folder per class
(`root/<class_name>/<image>.ppm`); `load_image` turns one into a model
input: decode yields uint8 pixels, `normalize` maps them to float32 in
[0,1], `resize_bilinear` fits the model's size. Synthetic datasets live
in memory and are already normalized; each synthetic image draws its
pattern's period, phase or placement and then its pixel noise (sigma
`SYNTH_NOISE_SIGMA`, 10/255) from a stream seeded by (seed, class, index).
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .fileio import write_atomic
from .numerics import Tensor


@dataclass
class SampleRecord:
    key: str  # class-relative path, or synthetic id; stable sort identity
    class_index: int
    path: str | None = None
    image: Tensor | None = None  # in-memory samples, float32 in [0,1]
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


# ---------------------------------------------------------------------------
# PPM codec (binary "P6", maxval 255)

class PpmError(ValueError):
    pass


def _read_header_token(blob: bytes, pos: int):
    # skip whitespace and '#' comment lines between header fields
    n = len(blob)
    while pos < n:
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and blob[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PpmError("truncated PPM header")
    return blob[start:pos], pos


def decode_ppm(blob: bytes) -> Tensor:
    """Binary PPM bytes -> (h, w, 3) uint8 pixels, a read-only view of blob."""
    magic, pos = _read_header_token(blob, 0)
    if magic != b"P6":
        raise PpmError(f"unsupported PPM format {magic!r}: only binary P6 is handled")
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(blob, pos)
        if not tok.isdigit():
            raise PpmError(f"bad PPM header field {tok!r}")
        if len(tok) > 18:  # int() refuses or crawls on long digit runs; no payload this large fits in memory
            raise PpmError(f"PPM header field of {len(tok)} digits is too large")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise PpmError(f"unsupported PPM maxval {maxval}: expected 255")
    if w < 1 or h < 1:
        raise PpmError(f"bad PPM dimensions {w}x{h}")
    pos += 1  # single whitespace byte after maxval
    payload = blob[pos : pos + h * w * 3]
    if len(payload) != h * w * 3:
        raise PpmError(f"truncated PPM payload: expected {h * w * 3} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


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

def resize_bilinear(img: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of an (h, w, c) image with half-pixel-centered
    sampling; identity when the target equals the source size."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target size must be positive, got {out_h}x{out_w}")
    h, w, c = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()
    # source coordinate of each output pixel center
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    # rows flattened to x*c values, so every product runs along out_w*c
    # elements instead of c; the x weights repeat once per channel
    fx = np.repeat(np.clip(xs - x0, 0.0, 1.0), c)
    cols0 = (x0[:, None] * c + np.arange(c)).ravel()
    cols1 = (x1[:, None] * c + np.arange(c)).ravel()

    def lerp_x(rows):
        rows = rows.reshape(out_h, w * c)
        return np.take(rows, cols0, axis=1) * (1 - fx) + np.take(rows, cols1, axis=1) * fx

    top = lerp_x(np.take(img, y0, axis=0))
    bot = lerp_x(np.take(img, y1, axis=0))
    return (top * (1 - fy) + bot * fy).astype(img.dtype).reshape(out_h, out_w, c)


def normalize(img: Tensor) -> Tensor:
    """Map [0,255] pixel values, such as decoded uint8 pixels, to a new float32 array in [0,1]."""
    out = img.astype(np.float32)
    out /= np.float32(255.0)
    return out


def load_image(path, out_h: int, out_w: int) -> Tensor:
    """One PPM file as an (out_h, out_w, 3) float32 model input in [0,1]."""
    return resize_bilinear(normalize(read_ppm(path)), out_h, out_w)


# ---------------------------------------------------------------------------
# directory loading

def _breaks_line(name: str) -> bool:
    """True if str.splitlines, which reads manifests and configs, would split name."""
    return name.splitlines() != [name]


def check_class_name(name: str, what: str):
    """Raise ValueError, naming `what`, unless name can be a class name.

    Class names are stored comma-separated in key=value checkpoint lines,
    whose reader strips outer whitespace, and in the comma-separated split
    manifest.
    """
    if "," in name or "=" in name or _breaks_line(name) or name != name.strip():
        raise ValueError(f"{what}: name must not contain ',', '=' or a line break, nor begin or end with whitespace")


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
    """Materialize one split as (images (n,h,w,3) float32 in [0,1], labels)."""
    records = manifest.of_split(split)
    if not records:
        raise ValueError(f"split {split!r} has no samples (was stratified_split run?)")
    x = np.stack([load_image(s.path, out_h, out_w) if s.image is None else resize_bilinear(s.image, out_h, out_w)
                  for s in records])
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
            raise ValueError(f"split manifest line {lineno}: duplicate path {key!r}")
        if split not in ("train", "val", "test", "unassigned"):
            raise ValueError(f"split manifest line {lineno}: unknown split {split!r}")
        assignments[key] = (cls, split)
    for s in manifest.samples:
        if s.key not in assignments:
            raise ValueError(f"split manifest missing sample {s.key!r}")
        cls, split = assignments[s.key]
        if cls != manifest.class_names[s.class_index]:
            raise ValueError(f"split manifest class mismatch for {s.key!r}: {cls!r}")
        s.split = split
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


def synth_generate(classes: int, per_class: int, side: int = 64, seed: int = 0) -> DatasetManifest:
    """In-memory dataset of procedural textures, `classes` of them with
    `per_class` samples each, deterministic under `seed`."""
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    if classes > len(SYNTH_PATTERNS):
        raise ValueError(f"only {len(SYNTH_PATTERNS)} texture patterns available, asked for {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    names = [name for name, _ in SYNTH_PATTERNS[:classes]]
    manifest = DatasetManifest(names)
    for cls in range(classes):
        _, pattern = SYNTH_PATTERNS[cls]
        for i in range(per_class):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, cls, i))))
            base = pattern(side, rng)
            img = np.repeat(base[:, :, None], 3, axis=2)
            img = img + rng.normal(0.0, SYNTH_NOISE_SIGMA, size=img.shape)
            img = np.clip(img, 0.0, 1.0).astype(np.float32)
            manifest.samples.append(
                SampleRecord(key=f"{names[cls]}/{i:04d}.ppm", class_index=cls, image=img)
            )
    return manifest


def write_dataset(manifest: DatasetManifest, root):
    """Write an in-memory manifest as a PPM tree under `root`."""
    for name in manifest.class_names:
        os.makedirs(os.path.join(root, name), exist_ok=True)
    for s in manifest.samples:
        if s.image is None:
            raise ValueError(f"sample {s.key} has no in-memory image to write")
        write_ppm(os.path.join(root, s.key), s.image)
