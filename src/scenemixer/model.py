"""Mixer network assembly: config, init, forward/backward, persistence.

The graph is: patch embedding -> depth x mixer block -> global average
pooling -> dense -> softmax. A mixer block runs one depthwise branch per
configured kernel size on the same input, merges the branches by
elementwise sum, then pointwise conv, GELU and batch normalization. An
infer-mode forward runs the whole graph over chunks of about 1 MiB of
block activation, so they stay in a core's L2 cache, and an image's
probabilities do not depend on its batch or chunk; a train-mode forward
runs the whole batch at once.

Checkpoints use a small binary container (magic "SMXC"): little-endian
u32 version, u32-length-prefixed UTF-8 config block of key=value lines,
u32 tensor count, then per tensor a u32-length-prefixed UTF-8 name, u32
rank, u64 extents and raw float32 data. `load` raises `CheckpointError`
for any file that is not such a container for the config it embeds.
`save` writes a temp file beside the target and renames it over the
target, so a failed save leaves the earlier file intact.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import layers
from .data import check_class_name
from .fileio import write_atomic
from .layers import BatchNormState, ConvParams, LayerCache
from .numerics import ShapeError, Tensor

CHECKPOINT_MAGIC = b"SMXC"
CHECKPOINT_VERSION = 1
# bytes of one block activation per infer-mode chunk: the chunk's activations stay
# in a core's L2 cache across the ~10 passes a block makes over them
_INFER_CHUNK_BYTES = 1 << 20


@dataclass
class ModelConfig:
    input_h: int
    input_w: int
    input_c: int
    patch: int = 4
    embed_dim: int = 128
    depth: int = 4
    kernels: tuple = (3, 5)
    num_classes: int = 10
    bn_eps: float = 1e-3
    bn_momentum: float = 0.99

    def __post_init__(self):
        self.kernels = tuple(int(k) for k in self.kernels)

    def validate(self):
        problems = []
        if self.input_h < 1 or self.input_w < 1 or self.input_c < 1:
            problems.append(f"input extents must be positive, got {self.input_h}x{self.input_w}x{self.input_c}")
        if self.patch < 1:
            problems.append(f"patch size must be >= 1, got {self.patch}")
        elif self.input_h % self.patch or self.input_w % self.patch:
            problems.append(f"input {self.input_h}x{self.input_w} not divisible by patch {self.patch}")
        if self.embed_dim < 1:
            problems.append(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.depth < 1:
            problems.append(f"depth must be >= 1, got {self.depth}")
        if not self.kernels:
            problems.append("kernels must be non-empty")
        if any(k < 1 or k % 2 == 0 for k in self.kernels):
            problems.append(f"kernels must be odd and positive, got {self.kernels}")
        if len(set(self.kernels)) != len(self.kernels):
            # parameters are named by kernel size, so a repeated size would share one branch's weights
            problems.append(f"kernels must be distinct, got {self.kernels}")
        if self.num_classes < 2:
            problems.append(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0 < self.bn_eps < math.inf:
            problems.append(f"bn_eps must be finite and > 0, got {self.bn_eps}")
        if not 0 < self.bn_momentum < 1:
            problems.append(f"bn_momentum must be in (0,1), got {self.bn_momentum}")
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))

    @property
    def tokens(self) -> int:
        return (self.input_h // self.patch) * (self.input_w // self.patch)

    @classmethod
    def eurosat_default(cls) -> "ModelConfig":
        return cls(input_h=64, input_w=64, input_c=3, num_classes=10)

    @classmethod
    def aid_default(cls) -> "ModelConfig":
        return cls(input_h=64, input_w=64, input_c=3, num_classes=30)


def config_to_text(config: ModelConfig, extras: dict | None = None) -> str:
    lines = [
        f"input={config.input_h}x{config.input_w}x{config.input_c}",
        f"patch={config.patch}",
        f"embed_dim={config.embed_dim}",
        f"depth={config.depth}",
        "kernels=" + ",".join(str(k) for k in config.kernels),
        "merge=sum",  # branches always merge by sum; the key stays for format compatibility
        f"num_classes={config.num_classes}",
        f"bn_eps={config.bn_eps!r}",
        f"bn_momentum={config.bn_momentum!r}",
        "residual=false",  # the block has no skip connection; the key stays for format compatibility
    ]
    for key, value in (extras or {}).items():
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


_CONFIG_KEYS = {
    "input", "patch", "embed_dim", "depth", "kernels", "merge",
    "num_classes", "bn_eps", "bn_momentum", "residual",
}
_EXTRA_KEYS = {"class_names"}


def parse_config_text(text: str):
    """Parse flat key=value config lines. Returns (ModelConfig, extras dict)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS | _EXTRA_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    missing = _CONFIG_KEYS - values.keys()
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")
    try:
        h, w, c = (int(v) for v in values["input"].split("x"))
    except ValueError as exc:
        raise ValueError(f"bad input spec {values['input']!r}, expected HxWxC") from exc
    if values["merge"] != "sum":
        raise ValueError(f"invalid model config: merge mode must be 'sum', got {values['merge']!r}")
    if values["residual"].lower() != "false":
        raise ValueError(f"invalid model config: residual must be 'false', got {values['residual']!r}")
    config = ModelConfig(
        input_h=h,
        input_w=w,
        input_c=c,
        patch=int(values["patch"]),
        embed_dim=int(values["embed_dim"]),
        depth=int(values["depth"]),
        kernels=tuple(int(k) for k in values["kernels"].split(",")),
        num_classes=int(values["num_classes"]),
        bn_eps=float(values["bn_eps"]),
        bn_momentum=float(values["bn_momentum"]),
    )
    config.validate()
    extras = {k: values[k] for k in _EXTRA_KEYS if k in values}
    return config, extras


@dataclass
class SceneMixerModel:
    config: ModelConfig
    params: dict  # ordered name -> array; BN gamma/beta alias bn_states
    bn_states: list
    class_names: list | None = None

    @property
    def dtype(self):
        return self.params["embed.weights"].dtype

    def all_tensors(self) -> dict:
        """Trainable parameters plus BN running statistics, in save order."""
        out = dict(self.params)
        for i, s in enumerate(self.bn_states):
            out[f"block{i}.bn.running_mean"] = s.running_mean
            out[f"block{i}.bn.running_var"] = s.running_var
        return out

    def snapshot(self) -> dict:
        return {name: t.copy() for name, t in self.all_tensors().items()}

    def restore(self, snap: dict):
        # in-place so BN gamma/beta aliasing with params is preserved
        for name, t in self.all_tensors().items():
            t[:] = snap[name]

    def conv(self, name: str) -> ConvParams:
        """Weights and bias of layer `name`: "embed", "block{i}.dw{k}", "block{i}.pw" or "head"."""
        return ConvParams(self.params[f"{name}.weights"], self.params[f"{name}.bias"])


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build(config: ModelConfig, seed: int, dtype=np.float32) -> SceneMixerModel:
    """Deterministically initialized model: Glorot-uniform weights, zero
    biases, unit-variance BN state. Same seed, same bits."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(seed))
    p, d, c_in = config.patch, config.embed_dim, config.input_c
    params = {}
    params["embed.weights"] = _glorot(rng, (p, p, c_in, d), p * p * c_in, p * p * d, dtype)
    params["embed.bias"] = np.zeros(d, dtype)
    bn_states = []
    for i in range(config.depth):
        for k in config.kernels:
            # depthwise fans are per channel: k*k in, k*k out
            params[f"block{i}.dw{k}.weights"] = _glorot(rng, (k, k, d), k * k, k * k, dtype)
            params[f"block{i}.dw{k}.bias"] = np.zeros(d, dtype)
        params[f"block{i}.pw.weights"] = _glorot(rng, (d, d), d, d, dtype)
        params[f"block{i}.pw.bias"] = np.zeros(d, dtype)
        gamma = np.ones(d, dtype)
        beta = np.zeros(d, dtype)
        params[f"block{i}.bn.gamma"] = gamma
        params[f"block{i}.bn.beta"] = beta
        bn_states.append(
            BatchNormState(gamma, beta, np.zeros(d, dtype), np.ones(d, dtype),
                           momentum=config.bn_momentum, epsilon=config.bn_eps)
        )
    params["head.weights"] = _glorot(rng, (d, config.num_classes), d, config.num_classes, dtype)
    params["head.bias"] = np.zeros(config.num_classes, dtype)
    return SceneMixerModel(config, params, bn_states)


@dataclass
class BlockCache:
    """Layer caches of one train-mode mixer block."""

    dw: list  # one depthwise cache per kernel, in config order
    pw: LayerCache
    gelu: LayerCache
    bn: LayerCache


@dataclass
class ForwardCaches:
    """Per-layer caches from one train-mode forward, in graph order."""

    embed: LayerCache
    blocks: list  # one BlockCache per block
    gap: LayerCache
    dense: LayerCache


def _block_forward(model: SceneMixerModel, i: int, t: Tensor, mode: str):
    """Mixer block i on t: (output, BlockCache in train mode or None in infer mode)."""
    merged, dw_caches = None, []
    for k in model.config.kernels:
        branch, c = layers.depthwise_conv_forward(t, model.conv(f"block{i}.dw{k}"))
        # no cache holds a branch output, so the first one accumulates the rest in place
        if merged is None:
            merged = branch
        else:
            merged += branch
        dw_caches.append(c)
    h, pw_cache = layers.pointwise_conv_forward(merged, model.conv(f"block{i}.pw"))
    g, gelu_cache = layers.gelu_forward(h, mode)
    b, bn_cache = layers.batch_norm_forward(g, model.bn_states[i], mode)
    return b, (BlockCache(dw_caches, pw_cache, gelu_cache, bn_cache) if mode == "train" else None)


def _block_backward(model: SceneMixerModel, i: int, cache: BlockCache, dout: Tensor, grads: dict) -> Tensor:
    """Write block i's gradients into grads; return d(loss)/d(block input)."""
    dg, grads[f"block{i}.bn.gamma"], grads[f"block{i}.bn.beta"] = layers.batch_norm_backward(cache.bn, dout)
    dh = layers.gelu_backward(cache.gelu, dg)
    dmerged, grads[f"block{i}.pw.weights"], grads[f"block{i}.pw.bias"] = layers.pointwise_conv_backward(
        cache.pw, dh
    )
    dinput = None
    for k, dw_cache in zip(model.config.kernels, cache.dw):
        dx, grads[f"block{i}.dw{k}.weights"], grads[f"block{i}.dw{k}.bias"] = layers.depthwise_conv_backward(
            dw_cache, dmerged
        )
        # every dx is a fresh array, so the first one accumulates the rest in place
        if dinput is None:
            dinput = dx
        else:
            dinput += dx
    return dinput


def forward(model: SceneMixerModel, x: Tensor, mode: str):
    """Run the network. Returns (probs, caches); caches is None in infer mode.

    Infer mode runs the whole network over consecutive chunks of the
    batch, each sized so that one block activation fits in
    `_INFER_CHUNK_BYTES`. The head contracts without BLAS, so an image's
    probabilities do not depend on its batch or chunk. Train mode runs the
    whole batch at once, because batch norm normalizes with the statistics
    of the batch.
    """
    cfg = model.config
    if x.ndim != 4 or x.shape[1:] != (cfg.input_h, cfg.input_w, cfg.input_c):
        raise ShapeError(
            f"input shape {tuple(x.shape)} does not match configured "
            f"(n,{cfg.input_h},{cfg.input_w},{cfg.input_c})"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = x.astype(model.dtype, copy=False)
    if mode == "train":
        return _network(model, x, mode)
    chunk = max(1, _INFER_CHUNK_BYTES // (cfg.tokens * cfg.embed_dim * x.itemsize))
    probs = np.empty((x.shape[0], cfg.num_classes), model.dtype)
    # the helper, not `forward` itself: a tracer that wraps `forward` would count each image twice
    for start in range(0, x.shape[0], chunk):
        probs[start : start + chunk] = _network(model, x[start : start + chunk], mode)[0]
    return probs, None


def _network(model: SceneMixerModel, x: Tensor, mode: str):
    """Patch embed, blocks, GAP, dense and softmax on x, already in the
    model's dtype: (probs, ForwardCaches in train mode or None in infer mode)."""
    t, embed_cache = layers.patch_embed_forward(x, model.conv("embed"))
    if mode == "infer":
        embed_cache = None  # its im2col copy of x would outlive every block
    block_caches = [None] * model.config.depth
    for i in range(model.config.depth):
        t, block_caches[i] = _block_forward(model, i, t, mode)
    pooled, gap_cache = layers.global_avg_pool_forward(t)
    logits, dense_cache = layers.dense_forward(pooled, model.conv("head"))
    probs, _ = layers.softmax_forward(logits)
    if mode == "infer":
        return probs, None
    return probs, ForwardCaches(embed_cache, block_caches, gap_cache, dense_cache)


def backward(model: SceneMixerModel, caches: ForwardCaches, dlogits: Tensor):
    """Gradients given d(loss)/d(logits): (per-parameter dict, d(loss)/d(input))."""
    grads = {}
    dpooled, grads["head.weights"], grads["head.bias"] = layers.dense_backward(caches.dense, dlogits)
    dt = layers.global_avg_pool_backward(caches.gap, dpooled)
    for i in reversed(range(model.config.depth)):
        dt = _block_backward(model, i, caches.blocks[i], dt, grads)
    dx, grads["embed.weights"], grads["embed.bias"] = layers.patch_embed_backward(caches.embed, dt)
    return grads, dx


def predict(model: SceneMixerModel, x: Tensor) -> np.ndarray:
    """Infer-mode argmax labels; ties resolve to the lowest class index."""
    probs, _ = forward(model, x, "infer")
    return np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# persistence

class CheckpointError(ValueError):
    """Raised on malformed, truncated, or inconsistent checkpoint files."""


def save(model: SceneMixerModel, path):
    """Write the checkpoint atomically: a failed save leaves any earlier file at `path` intact.

    Raises ValueError, before writing, on class names that `load` would
    read back differently or reject.
    """
    if model.class_names:
        if len(model.class_names) != model.config.num_classes:
            raise ValueError(f"{len(model.class_names)} class names for {model.config.num_classes} classes")
        for name in model.class_names:
            check_class_name(name, f"class name {name!r}")
    write_atomic(path, _checkpoint_chunks(model))


def _checkpoint_chunks(model: SceneMixerModel):
    """The `.smxc` bytes of model, one field at a time."""
    extras = {}
    if model.class_names:
        extras["class_names"] = ",".join(model.class_names)
    config_blob = config_to_text(model.config, extras).encode("utf-8")
    tensors = model.all_tensors()
    yield CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    yield struct.pack("<I", len(config_blob)) + config_blob
    yield struct.pack("<I", len(tensors))
    for name, t in tensors.items():
        name_b = name.encode("utf-8")
        yield struct.pack("<I", len(name_b)) + name_b
        yield struct.pack("<I", t.ndim) + struct.pack(f"<{t.ndim}Q", *t.shape)
        yield np.ascontiguousarray(t, dtype="<f4").tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, have {len(self.blob)}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}Q", self.take(8 * n))

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} at offset {self.pos - len(raw)} is not UTF-8: {exc}") from exc


def load(path) -> SceneMixerModel:
    from .analyzer import count_params  # analyzer imports this module

    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic in {path}: not a SMXC checkpoint")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    config_text = r.text("config block")
    try:
        config, extras = parse_config_text(config_text)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    count = r.u32()
    tensors = {}
    for _ in range(count):
        name = r.text("tensor name")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor {name!r} in checkpoint")
        shape = r.u64s(r.u32())
        if 0 in shape:
            # no tensor of any config is empty, and numpy rejects (0, 2**63)
            raise CheckpointError(f"tensor {name}: zero extent in shape {shape}")
        size = math.prod(shape)  # Python ints: forged extents cannot wrap to a small count
        tensors[name] = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape)
    if r.pos != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint: {len(blob) - r.pos}")
    # count_params walks the blocks, and every block stores tensors: a forged
    # depth must not cost more than the file's size
    if config.depth > len(tensors):
        raise CheckpointError(f"config has depth {config.depth:,}, but the checkpoint stores only {len(tensors)} tensors")
    # before build: a forged embed_dim must not allocate its embed_dim**2 weights
    stored, needed = sum(t.size for t in tensors.values()), count_params(config)
    if stored != needed:
        raise CheckpointError(f"stored tensor shapes hold {stored:,} values, the embedded config needs {needed:,}")

    model = build(config, seed=0)
    expected = model.all_tensors()
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise CheckpointError(f"tensor set disagrees with embedded config: missing {missing}, unexpected {extra}")
    for name, t in expected.items():
        if tensors[name].shape != t.shape:
            raise CheckpointError(f"tensor {name}: shape {tensors[name].shape} != {t.shape} expected from config")
        t[:] = tensors[name]
    if "class_names" in extras:
        names = extras["class_names"].split(",")
        if len(names) != config.num_classes:
            raise CheckpointError(f"checkpoint lists {len(names)} class names for {config.num_classes} classes")
        model.class_names = names
    return model
