"""Span tracing of the program from outside it.

`Tracer.install` replaces public functions of the scenemixer modules by
timing wrappers, as module attributes, and `uninstall` puts the
originals back. This reaches every call because `cli`, `model`, `train`
and `data` call each other through module globals (`layers.gelu_forward`,
`model_mod.forward`, `read_ppm`, ...). Functions left unwrapped count in
the self time of the span that calls them.

A span is [name, start, end, parent index, request id, images, extra].
`images` is the batch a layer or `model.forward` call processed; `extra`
holds what a wrapper measured beside time: bytes an array-sized layer call
touched, or for `model.forward` the bytes held by the caches it returned
(None in infer mode, so it also marks train-mode calls).
"""

import dataclasses
import functools
import time

import numpy as np


def _depthwise_k(weights) -> str:
    return f"k{weights.shape[0]}"


def cache_bytes(obj) -> int:
    """Bytes of every ndarray in each `LayerCache.saved` reachable from obj."""
    if hasattr(obj, "saved") and isinstance(obj.saved, dict):
        return sum(v.nbytes for v in obj.saved.values() if isinstance(v, np.ndarray))
    if isinstance(obj, dict):
        return sum(cache_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_bytes(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(cache_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _array_bytes(args, result):
    """Bytes of input, weights, bias and output, computed from array sizes."""
    return sum(a.nbytes for a in (args[0], args[1].weights, args[1].bias, result[0]))


def _conv_forward(name):
    return (lambda args, kwargs: (name, args[0].shape[0])), _array_bytes


def _depthwise_forward():
    return (lambda args, kwargs: (f"layers.depthwise_conv.{_depthwise_k(args[1].weights)}.fwd",
                                  args[0].shape[0])), _array_bytes


def _backward(name):
    return (lambda args, kwargs: (name, args[1].shape[0])), None


def _depthwise_backward():
    return (lambda args, kwargs: (f"layers.depthwise_conv.{_depthwise_k(args[0].saved['weights'])}.bwd",
                                  args[1].shape[0])), None


def _plain(name):
    return (lambda args, kwargs: (name, 0)), None


def _model_forward():
    def namer(args, kwargs):
        return "model.forward", args[1].shape[0]

    def after(args, result):
        return None if result[1] is None else cache_bytes(result[1])

    return namer, after


def command_targets(sm):
    """(owner, attribute, (namer, after)) for every function traced while
    a command runs. `sm` is the imported scenemixer package."""
    L, M, T, D, X = sm.layers, sm.model, sm.train, sm.data, sm.metrics
    return [
        (sm.cli, "main", _plain("cli")),
        (L, "patch_embed_forward", _conv_forward("layers.patch_embed.fwd")),
        (L, "patch_embed_backward", _backward("layers.patch_embed.bwd")),
        (L, "depthwise_conv_forward", _depthwise_forward()),
        (L, "depthwise_conv_backward", _depthwise_backward()),
        (L, "pointwise_conv_forward", _conv_forward("layers.pointwise_conv.fwd")),
        (L, "pointwise_conv_backward", _backward("layers.pointwise_conv.bwd")),
        (L, "gelu_forward", _plain("layers.gelu.fwd")),
        (L, "gelu_backward", _plain("layers.gelu.bwd")),
        (L, "batch_norm_forward", _plain("layers.batch_norm.fwd")),
        (L, "batch_norm_backward", _plain("layers.batch_norm.bwd")),
        (L, "global_avg_pool_forward", _plain("layers.head.fwd")),
        (L, "dense_forward", _plain("layers.head.fwd")),
        (L, "softmax_forward", _plain("layers.head.fwd")),
        (L, "global_avg_pool_backward", _plain("layers.head.bwd")),
        (L, "dense_backward", _plain("layers.head.bwd")),
        (L, "softmax_backward", _plain("layers.head.bwd")),
        (M, "forward", _model_forward()),
        (M, "backward", _plain("model.backward")),
        (M, "save", _plain("model.save")),
        (M, "load", _plain("model.load")),
        (M.SceneMixerModel, "snapshot", _plain("model.snapshot")),
        (T, "fit", _plain("train.fit")),
        (T, "train_epoch", _plain("train.train_epoch")),
        (T, "evaluate", _plain("train.evaluate")),
        (T, "adam_step", _plain("train.adam_step")),
        (T, "cross_entropy", _plain("train.loss")),
        (T, "cross_entropy_with_logit_grad", _plain("train.loss")),
        (D, "read_ppm", _plain("data.read_ppm")),
        (D, "normalize", _plain("data.normalize")),
        (D, "resize_bilinear", _plain("data.resize_bilinear")),
        (D, "split_arrays", _plain("data.split_arrays")),
        (D, "load_dataset", _plain("data.load_dataset")),
        (X, "confusion", _plain("metrics.confusion")),
        (X, "metrics_summary", _plain("metrics.summary")),
        (X, "confusion_to_csv", _plain("metrics.summary")),
        (X, "metrics_to_csv", _plain("metrics.summary")),
    ]


# data functions traced while the benchmark sets a workload up -> span names
SETUP_FUNCTIONS = {
    "synth_generate": "data.synth_generate",
    "write_dataset": "data.write_dataset",
    "stratified_split": "data.stratified_split",
}


def setup_targets(sm):
    return [(sm.data, attr, _plain(name)) for attr, name in SETUP_FUNCTIONS.items()]


class Tracer:
    """Spans kept in memory; `spans` is written out when the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.request = 0

    def _wrap(self, fn, namer, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, images = namer(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, images, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[6] = after(args, result)
            return result

        return wrapper

    def install(self, targets):
        for owner, attr, (namer, after) in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, namer, after))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_seconds(self) -> dict:
        """Self time per span name: duration minus what direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {}
        for s, c in zip(self.spans, child):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("name,start_s,end_s,parent,request,images,extra\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},{s[5]},{s[6] if s[6] is not None else ''}\n")

