"""Mixer network assembly: config, init, forward/backward, persistence.

The graph is: patch embedding -> depth x mixer block -> global average
pooling -> dense -> softmax. A mixer block runs one depthwise branch per
configured kernel size on the same input, merges the branches by
elementwise sum, then pointwise conv, GELU and batch normalization.
`forward` and `backward` run the graph over chunks of about 1 MiB of block
activation, so they stay in a core's L2 cache, on a pool of as many
threads as `use_threads` allows. In infer mode each chunk runs the whole
graph, and an image's probabilities do not depend on its batch, its chunk
or the thread count. In train mode the chunks meet at each batch norm,
whose statistics are merged from theirs in chunk order, and nothing a step
computes depends on the thread count. A train step caches each activation
once: per chunk, block 0's input and, per block, the pointwise input, the
GELU derivative and the batch-norm `xhat`. The backward rebuilds each later
block's input from the `xhat` of the batch norm before it, with
`layers.batch_norm_output`, and takes each cache's arrays out as it consumes
them, so a step's caches are freed block by block.

Checkpoints use a small binary container (magic "SMXC"): little-endian
u32 version, u32-length-prefixed UTF-8 config block of key=value lines,
u32 tensor count, then per tensor a header (`_tensor_header`: u32-length-
prefixed UTF-8 name, u32 rank, u64 extents) and raw float32 data, in the
order of `tensor_shapes`, the one table of a config's tensors. `load`
compares each header with the one that table gives, and raises
`CheckpointError` for any file that is not such a container for the config
it embeds, or whose tensors hold a non-finite value or a negative running
variance.
`save` writes a temp file beside the target and renames it over the
target, so a failed save leaves the earlier file intact.
"""

import contextlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import data, layers
from .data import check_class_name, excerpt
from .fileio import write_atomic
from .layers import BatchNormState, ConvParams, LayerCache
from .numerics import ShapeError, Tensor

CHECKPOINT_MAGIC = b"SMXC"
CHECKPOINT_VERSION = 1
# bytes of one block activation per chunk of a forward or backward: the chunk's
# activations stay in a core's L2 cache across the ~10 passes a block makes over them
_CHUNK_BYTES = 1 << 20


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


def config_to_text(config: ModelConfig, class_names=None) -> str:
    """The key=value config block of config, ending in a `class_names` line when names are given."""
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
    if class_names:
        lines.append("class_names=" + ",".join(class_names))
    return "\n".join(lines) + "\n"


_CONFIG_KEYS = {
    "input", "patch", "embed_dim", "depth", "kernels", "merge",
    "num_classes", "bn_eps", "bn_momentum", "residual",
}


def check_class_names(names, num_classes: int):
    """Raise ValueError unless names can label num_classes classes in a config block."""
    if len(names) != num_classes:
        raise ValueError(f"{len(names)} class names for {num_classes} classes")
    for name in names:
        check_class_name(name, f"class name {excerpt(name)}")


_INT = "a decimal integer of at most 18 ASCII digits"
_FLOAT = "a float without '_' or non-ASCII characters"


def _ascii_int(text: str) -> int:
    """int(text) for at most 18 ASCII decimal digits between optional whitespace."""
    digits = text.strip()
    # int() also reads '_' separators and non-ASCII digits, and refuses or crawls on long digit runs
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 18):
        raise ValueError(f"not {_INT}: {excerpt(text)}")
    return int(digits)


def _ascii_float(text: str) -> float:
    """float(text) for text without '_' or non-ASCII characters; 'inf' and 'nan' parse."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not {_FLOAT}: {excerpt(text)}")
    return float(text)


def _extents(text: str) -> tuple:
    """(h, w, c) of an HxWxC spec."""
    h, w, c = (_ascii_int(v) for v in text.split("x"))
    return h, w, c


def _config_value(values: dict, key: str, parse, expected: str):
    """parse of the value of key; a ValueError names the key's line, the key and `expected`."""
    lineno, text = values[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"config line {lineno}: {key} must be {expected}, got {excerpt(text)}") from exc


def parse_config_text(text: str):
    """Parse flat key=value config lines: (ModelConfig, class names or None).

    Raises ValueError, naming the line and key, on a value that does not
    parse as written, and on class names that `check_class_names` refuses.
    """
    values = {}  # key -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {excerpt(raw)}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS | {"class_names"}:
            raise ValueError(f"config line {lineno}: unknown key {excerpt(key)}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, value)
    missing = _CONFIG_KEYS - values.keys()
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")
    (merge_line, merge), (residual_line, residual) = values["merge"], values["residual"]
    if merge != "sum":
        raise ValueError(
            f"config line {merge_line}: invalid model config: merge mode must be 'sum', got {excerpt(merge)}"
        )
    if residual.lower() != "false":
        raise ValueError(
            f"config line {residual_line}: invalid model config: residual must be 'false', got {excerpt(residual)}"
        )
    h, w, c = _config_value(values, "input", _extents, f"HxWxC, each {_INT}")
    config = ModelConfig(
        input_h=h,
        input_w=w,
        input_c=c,
        patch=_config_value(values, "patch", _ascii_int, _INT),
        embed_dim=_config_value(values, "embed_dim", _ascii_int, _INT),
        depth=_config_value(values, "depth", _ascii_int, _INT),
        kernels=_config_value(values, "kernels", lambda v: tuple(_ascii_int(k) for k in v.split(",")),
                              f"comma-separated, each {_INT}"),
        num_classes=_config_value(values, "num_classes", _ascii_int, _INT),
        bn_eps=_config_value(values, "bn_eps", _ascii_float, _FLOAT),
        bn_momentum=_config_value(values, "bn_momentum", _ascii_float, _FLOAT),
    )
    config.validate()
    class_names = None
    if "class_names" in values:
        class_names = values["class_names"][1].split(",")
        check_class_names(class_names, config.num_classes)
    return config, class_names


def tensor_shapes(config: ModelConfig) -> dict:
    """Name -> shape of each tensor a model of config stores, in `.smxc` save
    order: the parameters, then every block's batch-norm running statistics.
    Raises ValueError on an invalid config."""
    config.validate()
    p, d = config.patch, config.embed_dim
    shapes = {}

    def conv(name, kernel):  # a layer's weights, and a bias per output channel
        shapes[f"{name}.weights"], shapes[f"{name}.bias"] = kernel, kernel[-1:]

    conv("embed", (p, p, config.input_c, d))
    for i in range(config.depth):
        for k in config.kernels:
            conv(f"block{i}.dw{k}", (k, k, d))
        conv(f"block{i}.pw", (d, d))
        shapes[f"block{i}.bn.gamma"] = shapes[f"block{i}.bn.beta"] = (d,)
    conv("head", (d, config.num_classes))
    for i in range(config.depth):
        shapes[f"block{i}.bn.running_mean"] = shapes[f"block{i}.bn.running_var"] = (d,)
    return shapes


@dataclass
class SceneMixerModel:
    config: ModelConfig
    tensors: dict  # name -> array, keyed and ordered as `tensor_shapes(config)`
    class_names: list | None = None
    # views of tensors: the trainable ones, which Adam updates, and per block a batch-norm state
    params: dict = field(init=False, repr=False)
    bn_states: list = field(init=False, repr=False)

    def __post_init__(self):
        t, cfg = self.tensors, self.config
        self.params = {name: a for name, a in t.items() if ".running_" not in name}
        self.bn_states = [
            BatchNormState(*(t[f"block{i}.bn.{s}"] for s in ("gamma", "beta", "running_mean", "running_var")),
                           momentum=cfg.bn_momentum, epsilon=cfg.bn_eps)
            for i in range(cfg.depth)
        ]

    @property
    def dtype(self):
        return self.params["embed.weights"].dtype

    def all_tensors(self) -> dict:
        """Every stored tensor, in save order: the model's own dict, not a copy."""
        return self.tensors

    def snapshot(self) -> dict:
        return {name: t.copy() for name, t in self.all_tensors().items()}

    def restore(self, snap: dict):
        # in-place, so params and bn_states keep aliasing the tensors
        for name, t in self.all_tensors().items():
            t[:] = snap[name]

    def conv(self, name: str) -> ConvParams:
        """Weights and bias of layer `name`: "embed", "block{i}.dw{k}", "block{i}.pw" or "head"."""
        return ConvParams(self.params[f"{name}.weights"], self.params[f"{name}.bias"])


def build(config: ModelConfig, seed: int, dtype=np.float32) -> SceneMixerModel:
    """Deterministically initialized model: Glorot-uniform weights, drawn in
    save order, zero biases, unit-variance BN state. Same seed, same bits."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith(".weights"):
            # fan in plus fan out; a depthwise (k, k, d) kernel maps each channel alone, k*k to k*k
            fans = 2 * shape[0] * shape[1] if len(shape) == 3 else math.prod(shape[:-2]) * sum(shape[-2:])
            limit = np.sqrt(6.0 / fans)
            tensors[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
        else:
            tensors[name] = (np.ones if name.endswith((".gamma", ".running_var")) else np.zeros)(shape, dtype)
    return SceneMixerModel(config, tensors)


_POOL = None  # the executor of the innermost `use_threads(n > 1)`


@contextlib.contextmanager
def use_threads(n: int):
    """Run every `forward` and `backward` inside on up to n threads; outside, they run on one.

    With n > 1 this opens one `ThreadPoolExecutor(n)`, which serves every call
    inside and is shut down on exit. An executor starts threads only as work
    is submitted, so a call of one chunk starts none.

    BLAS must run on one thread, or its threads and the pool's oversubscribe
    the cores: importing `scenemixer.cli` before numpy sets
    `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` to 1, and
    a program that imports numpy first must set them itself. Importing `cli`
    also sets glibc's malloc thresholds, so that the buffers the threads free
    serve the next step instead of being faulted in again; another program
    gets that by setting `MALLOC_MMAP_THRESHOLD_=33554432` and
    `MALLOC_TRIM_THRESHOLD_=268435456` before it starts. README gives the
    measured costs.
    """
    global _POOL
    if n < 1:
        raise ValueError(f"threads must be >= 1, got {n}")
    prev, _POOL = _POOL, (ThreadPoolExecutor(n) if n > 1 else None)
    try:
        yield
    finally:
        if _POOL is not None:
            _POOL.shutdown()
        _POOL = prev


def _map_chunks(fn, items) -> list:
    """[fn(item) for item in items], on the pool of `use_threads` when there
    are two or more items. Every call has finished when this returns, or
    raises the exception of the first item that failed."""
    items, pool = list(items), _POOL
    if pool is None or len(items) < 2:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


@dataclass
class BlockCache:
    """Layer caches of one mixer block over one chunk."""

    dw: list  # one depthwise cache per kernel, in config order
    pw: LayerCache
    gelu: LayerCache
    bn: LayerCache = None  # set once the batch's statistics are merged


@dataclass
class ChunkCaches:
    """Layer caches of one chunk of a train-mode forward, in graph order."""

    rows: slice  # the chunk's images in the batch
    embed: LayerCache = None
    # block 0's input; each later block's is rebuilt from the batch-norm cache before it
    block_input: Tensor = None
    blocks: list = field(default_factory=list)  # one BlockCache per block
    gap: LayerCache = None


@dataclass
class ForwardCaches:
    """Per-chunk caches from one train-mode forward, plus the head's over the whole batch."""

    chunks: list  # one ChunkCaches per chunk, in batch order
    dense: LayerCache


def _mix(model: SceneMixerModel, i: int, t: Tensor, mode: str):
    """Mixer block i on t up to its batch norm: depthwise branches, merge by sum,
    pointwise and GELU. Returns (GELU output, BlockCache without bn)."""
    outs, dw_caches = zip(*(layers.depthwise_conv_forward(t, model.conv(f"block{i}.dw{k}"))
                            for k in model.config.kernels))
    merged = _sum_in_order(outs)
    del outs  # no cache holds a branch output: the sum reuses the first, the rest are freed here
    h, pw_cache = layers.pointwise_conv_forward(merged, model.conv(f"block{i}.pw"))
    g, gelu_cache = layers.gelu_forward(h, mode)
    return g, BlockCache(list(dw_caches), pw_cache, gelu_cache)


def _mix_backward(model: SceneMixerModel, i: int, cache: BlockCache, dg: Tensor, t: Tensor, grads: dict) -> Tensor:
    """Write block i's GELU, pointwise and depthwise gradients into grads, given
    its input t; return d(loss)/d(block input)."""
    dh = layers.gelu_backward(cache.gelu, dg)
    dmerged, grads[f"block{i}.pw.weights"], grads[f"block{i}.pw.bias"] = layers.pointwise_conv_backward(
        cache.pw, dh
    )
    dxs = []
    for k, dw_cache in zip(model.config.kernels, cache.dw):
        dx, grads[f"block{i}.dw{k}.weights"], grads[f"block{i}.dw{k}.bias"] = layers.depthwise_conv_backward(
            dw_cache, dmerged, t
        )
        dxs.append(dx)
    return _sum_in_order(dxs)


def _sum_in_order(parts):
    """parts[0] + parts[1] + ..., left to right, accumulated into parts[0]."""
    total = parts[0]
    for p in parts[1:]:
        total += p
    return total


def forward(model: SceneMixerModel, x: Tensor, mode: str):
    """Run the network. Returns (probs, caches); caches is None in infer mode.

    Both modes run the network over consecutive chunks of the batch, each
    sized so that one block activation fits in `_CHUNK_BYTES`, on the
    threads of `use_threads`, at most `min(threads, chunks)` at a time; with
    one thread or one chunk, the chunks run on the calling thread. The
    chunk size does not depend on the thread count, and the head contracts
    without BLAS, so the result does not depend on the thread count either.

    Infer mode runs the whole network per chunk, so an image's
    probabilities depend neither on its batch nor on its chunk. Peak
    memory grows by about one chunk's working set per extra thread.

    Train mode normalizes with the statistics of the whole batch, so the
    chunks meet at each batch norm: the calling thread merges the chunks'
    moments in chunk order and updates the running statistics once. A batch
    of one chunk computes what a whole-batch step does, bit for bit.

    x is float input in [0,1], or uint8 pixels such as a split that
    `data.split_arrays` keeps as decoded pixels. Pixel input is converted per
    chunk, by `data.to_input`, as each chunk runs: no float copy of the whole
    of x is made, and each chunk's input has the bytes that converting the
    whole of x would give.
    """
    cfg = model.config
    if x.ndim != 4 or x.shape[1:] != (cfg.input_h, cfg.input_w, cfg.input_c):
        raise ShapeError(
            f"input shape {tuple(x.shape)} does not match configured "
            f"(n,{cfg.input_h},{cfg.input_w},{cfg.input_c})"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    chunk = max(1, _CHUNK_BYTES // (cfg.tokens * cfg.embed_dim * model.dtype.itemsize))
    n = x.shape[0]
    rows = [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]
    if mode == "train":
        return _train_forward(model, x, rows)
    probs = np.empty((n, cfg.num_classes), model.dtype)

    def run(r):
        # each chunk writes its own rows; an infer-mode network only reads the model
        probs[r] = _infer_network(model, _chunk_input(model, x[r]))

    _map_chunks(run, rows)
    return probs, None


def _chunk_input(model: SceneMixerModel, x: Tensor) -> Tensor:
    """A chunk of a forward's input as model input in the model's dtype."""
    return data.to_input(x).astype(model.dtype, copy=False)


def _infer_network(model: SceneMixerModel, x: Tensor) -> Tensor:
    """Infer-mode probabilities of x, already in the model's dtype."""
    t = layers.patch_embed_forward(x, model.conv("embed"))[0]
    for i in range(model.config.depth):
        # no name holds the GELU output, so it is freed as its batch norm returns
        t = layers.batch_norm_forward(_mix(model, i, t, "infer")[0], model.bn_states[i], "infer")[0]
    return _head(model, layers.global_avg_pool_forward(t)[0])[0]


def _head(model: SceneMixerModel, pooled: Tensor):
    """Dense and softmax on the pooled rows: (probs, dense cache)."""
    logits, dense_cache = layers.dense_forward(pooled, model.conv("head"))
    probs, _ = layers.softmax_forward(logits)
    return probs, dense_cache


def _train_forward(model: SceneMixerModel, x: Tensor, rows: list):
    """Train-mode (probs, ForwardCaches) of x: the chunks `rows` run `_chunk_forward` in lockstep."""
    chunks = [ChunkCaches(r) for r in rows]
    # a generator keeps its last locals until this step drops the list as it returns
    steps = [_chunk_forward(model, x, c) for c in chunks]
    out = _map_chunks(next, steps)
    for s in model.bn_states:
        stats = layers.batch_norm_statistics(s, out)
        out = _map_chunks(lambda step: step.send(stats), steps)
    # a pooled row and its head output do not depend on the rows beside it
    probs, dense_cache = _head(model, np.concatenate(out))
    return probs, ForwardCaches(chunks, dense_cache)


def _chunk_forward(model: SceneMixerModel, x: Tensor, c: ChunkCaches):
    """Train-mode forward of chunk c, filling its caches: yields each block's
    GELU moments and is sent the batch's statistics, then yields the pooled rows."""
    t, c.embed = layers.patch_embed_forward(_chunk_input(model, x[c.rows]), model.conv("embed"))
    c.block_input = t
    for i, s in enumerate(model.bn_states):
        g, block = _mix(model, i, t, "train")
        c.blocks.append(block)
        stats = yield layers.batch_norm_moments(g)
        t, block.bn = layers.batch_norm_forward(g, s, "train", stats)
        del g  # no cache holds the GELU output
    pooled, c.gap = layers.global_avg_pool_forward(t)
    yield pooled


def backward(model: SceneMixerModel, caches: ForwardCaches, dlogits: Tensor):
    """Per-parameter gradients given d(loss)/d(logits), keyed like `model.params`.

    The forward's chunks run `_chunk_backward` in lockstep; the calling thread
    sums their batch-norm partials at each yield and the rest at the end.
    """
    grads = {}
    dpooled, grads["head.weights"], grads["head.bias"] = layers.dense_backward(caches.dense, dlogits)
    parts = [{} for _ in caches.chunks]  # each chunk's parameter-gradient partials
    # a generator keeps its last locals until this step drops the list as it returns
    steps = [_chunk_backward(model, c, dpooled[c.rows], part) for c, part in zip(caches.chunks, parts)]
    out = _map_chunks(next, steps)
    for i in reversed(range(model.config.depth)):
        sums = tuple(_sum_in_order(p) for p in zip(*out))
        grads[f"block{i}.bn.gamma"], grads[f"block{i}.bn.beta"] = sums
        out = _map_chunks(lambda step: step.send(sums), steps)
    for name in parts[0]:
        grads[name] = _sum_in_order([part[name] for part in parts])
    return grads


def _chunk_backward(model: SceneMixerModel, c: ChunkCaches, dpooled: Tensor, grads: dict):
    """Backward of chunk c, writing its parameter-gradient partials into grads:
    from the last block on, yields each block's batch-norm partials and is sent
    the batch's (dgamma, dbeta); yields once more after the patch embed. Each
    layer's backward takes its arrays out of its cache, and block 0's input is
    taken out of c, so c's memory is freed as the backward moves past it."""
    dt = layers.global_avg_pool_backward(c.gap, dpooled)
    for i in reversed(range(model.config.depth)):
        block = c.blocks[i]
        sums = yield layers.batch_norm_partials(block.bn, dt)
        dt = layers.batch_norm_backward(block.bn, dt, sums)[0]  # d(loss)/d(GELU output)
        # block i's input, rebuilt from block i-1's batch-norm cache, which is not
        # consumed yet, or block 0's kept one, taken out of c; `del` frees it before
        # the next yield
        if i:
            t = layers.batch_norm_output(c.blocks[i - 1].bn)
        else:
            t, c.block_input = c.block_input, None
        dt = _mix_backward(model, i, block, dt, t, grads)
        del t
    # the model drops patch embed's dx
    _, grads["embed.weights"], grads["embed.bias"] = layers.patch_embed_backward(c.embed, dt)
    yield


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

    Raises ValueError, before writing, on class names or tensor values that
    `load` would read back differently or reject.
    """
    if model.class_names:
        check_class_names(model.class_names, model.config.num_classes)
    _check_tensor_values(model)
    write_atomic(path, _checkpoint_chunks(model))


def _check_tensor_values(model: SceneMixerModel):
    """Raise CheckpointError, naming the tensor, on a value that is not finite
    as stored, or on a negative running variance."""
    for name, t in model.all_tensors().items():
        with np.errstate(over="ignore"):  # a float64 value beyond float32's range is stored as inf
            t = t.astype("<f4", copy=False)
        ok = np.isfinite(t)
        if name.endswith(".running_var"):
            ok &= t >= 0
        if not ok.all():
            index = tuple(int(i) for i in np.argwhere(~ok)[0])
            raise CheckpointError(f"tensor {name}: value {t[index]} at index {index} is not finite, or a negative variance")


def _checkpoint_chunks(model: SceneMixerModel):
    """The `.smxc` bytes of model, one field at a time."""
    config_blob = config_to_text(model.config, model.class_names).encode("utf-8")
    tensors = model.all_tensors()
    yield CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    yield struct.pack("<I", len(config_blob)) + config_blob
    yield struct.pack("<I", len(tensors))
    for name, t in tensors.items():
        yield _tensor_header(name, t.shape)
        yield np.ascontiguousarray(t, dtype="<f4").tobytes()


def _tensor_header(name: str, shape: tuple) -> bytes:
    """The `.smxc` bytes in front of a tensor's data: u32 name length, UTF-8 name, u32 rank, u64 extents."""
    name_b = name.encode("utf-8")
    return struct.pack(f"<I{len(name_b)}sI{len(shape)}Q", len(name_b), name_b, len(shape), *shape)


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

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} at offset {self.pos - len(raw)} is not UTF-8: {exc}") from exc


def load(path) -> SceneMixerModel:
    """The model in a `.smxc` file. Raises CheckpointError unless, after the config,
    the file holds the tensor count and records `save` writes for that config, in
    `tensor_shapes` order, the order of every file `save` has written: each record
    header must equal `_tensor_header`'s, so no name, rank or extent is parsed."""
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
        config, class_names = parse_config_text(config_text)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    count = r.u32()
    # tensor_shapes walks every kernel of every block, and each stores tensors: a forged count,
    # depth or kernel list must not cost more than the file's size, where no record is under 20 bytes
    if count > (len(blob) - r.pos) // 20:
        raise CheckpointError(f"checkpoint declares {count:,} tensors in its last {len(blob) - r.pos} bytes")
    if config.depth * len(config.kernels) > count:
        raise CheckpointError(f"config has {len(config.kernels)} kernels at depth {config.depth:,}, "
                              f"but the checkpoint stores only {count} tensors")
    expected = tensor_shapes(config)
    if count != len(expected):
        raise CheckpointError(f"checkpoint stores {count} tensors, but its config has {len(expected)}")
    tensors = {}
    for i, (name, shape) in enumerate(expected.items()):
        header = _tensor_header(name, shape)
        if r.take(len(header)) != header:
            raise CheckpointError(f"tensor record {i} is not the one save writes for the config: "
                                  f"expected {name} of shape {shape}")
        tensors[name] = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape).astype(np.float32)
    if r.pos != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint: {len(blob) - r.pos}")
    model = SceneMixerModel(config, tensors, class_names)
    _check_tensor_values(model)
    return model
