"""Mixer network assembly: config, init, forward/backward, persistence.

The graph is: patch embedding -> depth x mixer block -> global average
pooling -> dense -> softmax. A mixer block runs one depthwise branch per
configured kernel size on the same input, merges the branches by
elementwise sum, then pointwise conv, GELU and batch normalization.
An optional residual connection around the whole block is off by default.

Checkpoints use a small binary container (magic "SMXC"): little-endian
u32 version, u32-length-prefixed UTF-8 config block of key=value lines,
u32 tensor count, then per tensor a u32-length-prefixed UTF-8 name, u32
rank, u64 extents and raw float32 data. `load` raises `CheckpointError`
for any file that is not such a container for the config it embeds.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import layers
from .layers import BatchNormState, ConvParams
from .numerics import ShapeError, Tensor

CHECKPOINT_MAGIC = b"SMXC"
CHECKPOINT_VERSION = 1


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
    residual: bool = False

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
        if not self.bn_eps > 0:
            problems.append(f"bn_eps must be > 0, got {self.bn_eps}")
        if not 0 < self.bn_momentum < 1:
            problems.append(f"bn_momentum must be in (0,1), got {self.bn_momentum}")
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))

    @property
    def grid(self) -> int:
        return self.input_h // self.patch

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
        f"residual={'true' if config.residual else 'false'}",
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
    residual = values["residual"].lower()
    if residual not in ("true", "false"):
        raise ValueError(f"residual must be true or false, got {values['residual']!r}")
    if values["merge"] != "sum":
        raise ValueError(f"invalid model config: merge mode must be 'sum', got {values['merge']!r}")
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
        residual=residual == "true",
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

    def num_scalars(self) -> int:
        return sum(t.size for t in self.all_tensors().values())

    def snapshot(self) -> dict:
        return {name: t.copy() for name, t in self.all_tensors().items()}

    def restore(self, snap: dict):
        # in-place so BN gamma/beta aliasing with params is preserved
        for name, t in self.all_tensors().items():
            t[:] = snap[name]

    def block_conv_params(self, i: int):
        """(per-kernel depthwise ConvParams, pointwise ConvParams) of block i."""
        dws = [
            ConvParams(self.params[f"block{i}.dw{k}.weights"], self.params[f"block{i}.dw{k}.bias"])
            for k in self.config.kernels
        ]
        pw = ConvParams(self.params[f"block{i}.pw.weights"], self.params[f"block{i}.pw.bias"])
        return dws, pw

    def embed_params(self) -> ConvParams:
        return ConvParams(self.params["embed.weights"], self.params["embed.bias"])

    def head_params(self) -> ConvParams:
        return ConvParams(self.params["head.weights"], self.params["head.bias"])


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
class ForwardCaches:
    """Per-layer caches from one train-mode forward, in graph order."""

    embed: object
    blocks: list  # per block: {"dw": [cache per kernel], "pw", "gelu", "bn"}
    gap: object
    dense: object


def forward(model: SceneMixerModel, x: Tensor, mode: str):
    """Run the network. Returns (probs, caches); caches is None in infer mode."""
    cfg = model.config
    if x.ndim != 4 or x.shape[1:] != (cfg.input_h, cfg.input_w, cfg.input_c):
        raise ShapeError(
            f"input shape {tuple(x.shape)} does not match configured "
            f"(n,{cfg.input_h},{cfg.input_w},{cfg.input_c})"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    want_caches = mode == "train"
    x = x.astype(model.dtype, copy=False)

    t, embed_cache = layers.patch_embed_forward(x, model.embed_params())
    block_caches = []
    for i in range(cfg.depth):
        dws, pw = model.block_conv_params(i)
        dw_caches = []
        merged = None
        for dwp in dws:
            branch, c = layers.depthwise_conv_forward(t, dwp)
            merged = branch if merged is None else merged + branch
            dw_caches.append(c)
        h, pw_cache = layers.pointwise_conv_forward(merged, pw)
        g, gelu_cache = layers.gelu_forward(h)
        b, bn_cache = layers.batch_norm_forward(g, model.bn_states[i], mode)
        out = b + t if cfg.residual else b
        if want_caches:
            block_caches.append({"dw": dw_caches, "pw": pw_cache, "gelu": gelu_cache, "bn": bn_cache})
        t = out

    pooled, gap_cache = layers.global_avg_pool_forward(t)
    logits, dense_cache = layers.dense_forward(pooled, model.head_params())
    probs, _ = layers.softmax_forward(logits)
    if not want_caches:
        return probs, None
    return probs, ForwardCaches(embed_cache, block_caches, gap_cache, dense_cache)


def backward(model: SceneMixerModel, caches: ForwardCaches, dlogits: Tensor):
    """Gradients given d(loss)/d(logits): (per-parameter dict, d(loss)/d(input))."""
    cfg = model.config
    grads = {}
    dpooled, grads["head.weights"], grads["head.bias"] = layers.dense_backward(caches.dense, dlogits)
    dt = layers.global_avg_pool_backward(caches.gap, dpooled)
    for i in range(cfg.depth - 1, -1, -1):
        c = caches.blocks[i]
        db = dt  # grad at the BN output; residual adds dt to the block input as well
        dg, grads[f"block{i}.bn.gamma"], grads[f"block{i}.bn.beta"] = layers.batch_norm_backward(c["bn"], db)
        dh = layers.gelu_backward(c["gelu"], dg)
        dmerged, grads[f"block{i}.pw.weights"], grads[f"block{i}.pw.bias"] = layers.pointwise_conv_backward(
            c["pw"], dh
        )
        dinput = dt if cfg.residual else None
        for k, cache in zip(cfg.kernels, c["dw"]):
            dx, grads[f"block{i}.dw{k}.weights"], grads[f"block{i}.dw{k}.bias"] = layers.depthwise_conv_backward(
                cache, dmerged
            )
            dinput = dx if dinput is None else dinput + dx
        dt = dinput
    dx, grads["embed.weights"], grads["embed.bias"] = layers.patch_embed_backward(caches.embed, dt)
    return grads, dx


def predict(model: SceneMixerModel, x: Tensor, batch_size: int = 64) -> np.ndarray:
    """Infer-mode argmax labels; ties resolve to the lowest class index."""
    labels = np.empty(x.shape[0], dtype=np.int64)
    for start in range(0, x.shape[0], batch_size):
        probs, _ = forward(model, x[start : start + batch_size], "infer")
        labels[start : start + batch_size] = np.argmax(probs, axis=1)
    return labels


# ---------------------------------------------------------------------------
# persistence

class CheckpointError(ValueError):
    """Raised on malformed, truncated, or inconsistent checkpoint files."""


def save(model: SceneMixerModel, path):
    extras = {}
    if model.class_names:
        extras["class_names"] = ",".join(model.class_names)
    config_blob = config_to_text(model.config, extras).encode("utf-8")
    tensors = model.all_tensors()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(struct.pack("<I", len(config_blob)))
    chunks.append(config_blob)
    chunks.append(struct.pack("<I", len(tensors)))
    for name, t in tensors.items():
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", t.ndim))
        chunks.append(struct.pack(f"<{t.ndim}Q", *t.shape))
        chunks.append(np.ascontiguousarray(t, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


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
        tensors[name] = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape).copy()
    if r.pos != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint: {len(blob) - r.pos}")
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
