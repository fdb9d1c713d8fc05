"""Float64 reference for the SceneMixer forward pass, used to check outputs.

Written against the documented file formats and the network description
only: it parses `.smxc` checkpoints, config text and binary PPM itself
and computes with numpy/scipy, so a defect in the program under test
cannot hide in shared code. It never imports `scenemixer`.

Layer formulations differ on purpose from the program's: depthwise
convolution is `scipy.ndimage.correlate` per channel, patch embedding an
einsum over patch blocks, resizing a product of interpolation matrices,
GELU is written with `erf`.
"""

import math
import struct

import numpy as np
from scipy import ndimage
from scipy.special import erf

# A served or evaluated label may differ from the reference's only when the
# reference's top-1 and top-2 probabilities are closer than this. float32
# rounding through the network moves probabilities by about 1e-6.
MARGIN_TOL = 1e-4
# |program first-batch train loss - reference loss| allowed, in nats.
LOSS_TOL = 1e-4


class ReferenceError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Config `key=value` lines -> dict of typed values."""
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    h, w, c = (int(v) for v in raw["input"].split("x"))
    return {
        "input": (h, w, c),
        "patch": int(raw["patch"]),
        "embed_dim": int(raw["embed_dim"]),
        "depth": int(raw["depth"]),
        "kernels": tuple(int(k) for k in raw["kernels"].split(",")),
        "num_classes": int(raw["num_classes"]),
        "bn_eps": float(raw["bn_eps"]),
        "residual": raw["residual"] == "true",
        "class_names": raw["class_names"].split(",") if "class_names" in raw else None,
    }


def read_checkpoint(path):
    """`.smxc` file -> (config dict, {tensor name: float64 array})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise ReferenceError(f"{path}: truncated at offset {pos}")
        pos += n
        return blob[pos - n : pos]

    def u32():
        return struct.unpack("<I", take(4))[0]

    if take(4) != b"SMXC" or u32() != 1:
        raise ReferenceError(f"{path}: not a version-1 SMXC checkpoint")
    config = parse_config(take(u32()).decode("utf-8"))
    tensors = {}
    for _ in range(u32()):
        name = take(u32()).decode("utf-8")
        rank = u32()
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        count = math.prod(shape)
        tensors[name] = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise ReferenceError(f"{path}: {len(blob) - pos} trailing bytes")
    return config, tensors


def read_ppm(path) -> np.ndarray:
    """Binary P6 PPM with maxval 255 -> (h, w, 3) uint8."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            pos = blob.index(b"\n", pos)
            continue
        end = pos
        while not blob[end : end + 1].isspace():
            end += 1
        fields.append(blob[pos:end])
        pos = end
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ReferenceError(f"{path}: not a P6/255 PPM")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(blob[pos + 1 : pos + 1 + h * w * 3], dtype=np.uint8).reshape(h, w, 3)


def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Rows of bilinear weights, half-pixel-centred sampling, edges clamped."""
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        m[i, lo] += 1.0 - (src - lo)
        m[i, hi] += src - lo
    return m


def load_image(path, out_h: int, out_w: int) -> np.ndarray:
    """Decode, scale to [0,1] and resize one PPM, all in float64."""
    img = read_ppm(path).astype(np.float64) / 255.0
    h, w = img.shape[:2]
    rows = np.einsum("yi,ijc->yjc", _interp_matrix(out_h, h), img, optimize=True)
    return np.einsum("yjc,xj->yxc", rows, _interp_matrix(out_w, w), optimize=True)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _depthwise(x, weights, bias):
    planes = np.ascontiguousarray(np.moveaxis(x, 3, 0))  # one (n, y, x) plane per channel
    out = np.empty_like(planes)
    for c in range(planes.shape[0]):
        out[c] = ndimage.correlate(planes[c], weights[None, :, :, c], mode="constant", cval=0.0)
    return np.moveaxis(out, 0, 3) + bias


def forward(config: dict, t: dict, x: np.ndarray, mode: str) -> np.ndarray:
    """Class probabilities (n, classes) for images x (n, h, w, c) in [0,1].

    mode "infer" normalizes with the running statistics, "train" with the
    biased statistics of this batch, as batch normalization defines them.
    """
    n, h, w, c = x.shape
    p = config["patch"]
    patches = x.reshape(n, h // p, p, w // p, p, c)
    z = np.einsum("nyaxbc,abcd->nyxd", patches, t["embed.weights"], optimize=True) + t["embed.bias"]
    for i in range(config["depth"]):
        merged = sum(
            _depthwise(z, t[f"block{i}.dw{k}.weights"], t[f"block{i}.dw{k}.bias"]) for k in config["kernels"]
        )
        g = _gelu(merged @ t[f"block{i}.pw.weights"] + t[f"block{i}.pw.bias"])
        if mode == "train":
            mean, var = g.mean(axis=(0, 1, 2)), g.var(axis=(0, 1, 2))
        else:
            mean, var = t[f"block{i}.bn.running_mean"], t[f"block{i}.bn.running_var"]
        b = t[f"block{i}.bn.gamma"] * (g - mean) / np.sqrt(var + config["bn_eps"]) + t[f"block{i}.bn.beta"]
        z = b + z if config["residual"] else b
    logits = z.mean(axis=(1, 2)) @ t["head.weights"] + t["head.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(labels)), labels], 1e-12))))


def labels_and_margins(probs: np.ndarray):
    """Top-1 labels, top-2 labels and the top-1 minus top-2 probability."""
    order = np.argsort(-probs, axis=1, kind="stable")
    top = np.take_along_axis(probs, order[:, :2], axis=1)
    return order[:, 0], order[:, 1], top[:, 0] - top[:, 1]


def label_ok(got: int, ref_top1: int, ref_top2: int, margin: float) -> bool:
    return got == ref_top1 or (margin < MARGIN_TOL and got == ref_top2)


def summary_from_counts(counts: np.ndarray) -> dict:
    """OA, AA (mean recall), AA_eq2 (mean one-vs-rest accuracy) and kappa x100."""
    c = counts.astype(np.float64)
    total = c.sum()
    rows, cols, tp = c.sum(axis=1), c.sum(axis=0), np.diag(c)
    p_o = tp.sum() / total
    p_e = (rows * cols).sum() / total**2
    return {
        "OA": p_o,
        "AA": float(np.mean(tp / rows)),
        "AA_eq2": float(np.mean((total - rows - cols + 2 * tp) / total)),
        "kappa_x100": (p_o - p_e) / (1.0 - p_e) * 100.0,
    }
