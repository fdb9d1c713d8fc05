"""Runs one workload's timed loop in a process of its own.

`python3 bench/worker.py <spec.json>`: imports the program from the
spec's `src`, runs one untimed warm-up command, then repeats the
workload's command until `seconds` have passed, and writes
`worker_result.json` into the work directory. The process does nothing
but the workload, so its high-water RSS is the workload's.

With `trace` set, commands alternate untraced and traced; the traced ones
run under `spans.Tracer` and `layers.count_multiplies()`, and the
per-layer metrics are derived from their spans.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


class FirstBatchProbe:
    """Keeps the inputs, weights and loss of the first training step of a
    command, for the reference check. It copies arrays once per command
    and adds two Python calls per step."""

    def __init__(self, sm):
        self.model, self.train = sm.model, sm.train
        self.forward, self.loss_fn = sm.model.forward, sm.train.cross_entropy_with_logit_grad
        self.capture = None

    def install(self):
        self.capture = None
        probe = self

        def forward(net, x, mode):
            if mode == "train" and probe.capture is None:
                probe.capture = {"x": x.copy()}
                probe.capture.update({f"param:{k}": v.copy() for k, v in net.all_tensors().items()})
            return probe.forward(net, x, mode)

        def loss_fn(probs, labels):
            loss, grad = probe.loss_fn(probs, labels)
            if "loss" not in probe.capture:
                probe.capture["loss"] = loss
                probe.capture["labels"] = labels.copy()
            return loss, grad

        self.model.forward, self.train.cross_entropy_with_logit_grad = forward, loss_fn

    def uninstall(self):
        self.model.forward, self.train.cross_entropy_with_logit_grad = self.forward, self.loss_fn


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, reported with its message
            print(f"benchmark: command raised {exc!r}", file=sys.stderr)
            rc = -1
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


# analyzer entries whose per-image MACs each traced layer computes
MAC_ENTRIES = {
    "layers.patch_embed": "patch_embed",
    "layers.depthwise_conv.k3": "block0.dw3x3",
    "layers.depthwise_conv.k5": "block0.dw5x5",
    "layers.pointwise_conv": "block0.pw",
}
MS_SPANS = [
    "layers.depthwise_conv.k3.{}", "layers.depthwise_conv.k5.{}", "layers.gelu.{}", "layers.batch_norm.{}",
    "layers.pointwise_conv.{}", "layers.patch_embed.{}", "layers.head.{}",
]
OTHER_MS = {
    "model.forward.self_ms": "model.forward",
    "model.backward.self_ms": "model.backward",
    "train.adam_step_ms": "train.adam_step",
    "train.loss_ms": "train.loss",
    "train.train_epoch.self_ms": "train.train_epoch",
    "train.evaluate.self_ms": "train.evaluate",
    "train.fit.self_ms": "train.fit",
    "model.snapshot_ms": "model.snapshot",
    "model.save_ms": "model.save",
    "model.load_ms": "model.load",
    "data.read_ppm_ms": "data.read_ppm",
    "data.normalize_ms": "data.normalize",
    "data.resize_bilinear_ms": "data.resize_bilinear",
    "data.split_arrays.self_ms": "data.split_arrays",
    "data.load_dataset_ms": "data.load_dataset",
    "metrics.confusion_ms": "metrics.confusion",
    "metrics.summary_ms": "metrics.summary",
    "cli.self_ms": "cli",
}


def layer_metrics(sm, tracer, traced, workload, config_text):
    """Per-layer metrics of the traced commands. `_ms` values are self
    milliseconds per unit of work: per training image on train-eurosat,
    per scored image on eval-ppm256, per request on serve-predict."""
    spans = tracer.spans
    forward_spans = [s for s in spans if s[0] == "model.forward"]
    if workload == "train-eurosat":
        units = sum(s[5] for s in forward_spans if s[6] is not None)
    elif workload == "eval-ppm256":
        units = sum(s[5] for s in forward_spans)
    else:
        units = len(traced)
    self_s = tracer.self_seconds()
    m = {}
    for phase in ("fwd", "bwd"):
        for pattern in MS_SPANS:
            name = pattern.format(phase)
            m[f"{name}_ms"] = 1e3 * self_s.get(name, 0.0) / units
    for metric, name in OTHER_MS.items():
        m[metric] = 1e3 * self_s.get(name, 0.0) / units

    config, _ = sm.model.parse_config_text(config_text)
    report = sm.analyzer.cost_report(config)
    per_image = {e.name: e.macs for e in report.entries}
    for layer, entry in MAC_ENTRIES.items():
        for phase, factor in (("fwd", 1), ("bwd", 2)):  # backward counts 2x the forward MACs
            name = f"{layer}.{phase}"
            images = sum(s[5] for s in spans if s[0] == name)
            seconds = self_s.get(name, 0.0)
            m[f"{name}_gmacs"] = factor * per_image[entry] * images / seconds / 1e9 if seconds else 0.0
        fwd = [s for s in spans if s[0] == f"{layer}.fwd"]
        moved = sum(s[6] for s in fwd)
        m[f"{layer}.macs_per_byte"] = per_image[entry] * sum(s[5] for s in fwd) / moved if moved else 0.0

    train_forwards = [s[6] for s in forward_spans if s[6] is not None]
    m["model.cache_mb"] = max(train_forwards, default=0) / 1e6
    images_forwarded = sum(s[5] for s in forward_spans)
    executed = sum(t["macs_recorded"] for t in traced)
    m["layers.calls_per_image"] = sum(1 for s in spans if s[0].startswith("layers.")) / units
    m["layers.macs_per_image"] = executed / images_forwarded
    m["analyzer.macs_per_image"] = float(report.total_macs)
    m["layers.macs_recorded_over_logical"] = m["layers.macs_per_image"] / report.total_macs
    m["train.steps"] = sum(1 for s in spans if s[0] == "train.adam_step") / len(traced)
    m["model.checkpoint_bytes"] = float(traced[0]["checkpoint_bytes"])
    return m


def per_command_counts(tracer, request):
    """Counts of one traced command, which must repeat exactly."""
    spans = [s for s in tracer.spans if s[4] == request]
    counts = {}
    for s in spans:
        key = s[0]
        counts[key] = counts.get(key, 0) + 1
        counts[key + ":images"] = counts.get(key + ":images", 0) + s[5]
        if isinstance(s[6], int):
            counts[key + ":extra"] = counts.get(key + ":extra", 0) + s[6]
    return counts


def main():
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy as np

    import scenemixer as sm
    from scenemixer import analyzer, cli, data, layers, metrics, model, train  # noqa: F401  (load before timing)

    import spans as spans_mod
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    with open(spec["state"], "r", encoding="utf-8") as fh:
        state = json.load(fh)
    root = state["root"]
    probe = FirstBatchProbe(sm) if wl.name == "train-eurosat" else None
    tracer = spans_mod.Tracer() if spec["trace"] else None
    records, traced = [], []

    def one(tag, trace):
        argv = wl.command(state, tag)
        if probe:
            probe.install()
        if trace:
            tracer.request = len(traced)
            tracer.install(spans_mod.command_targets(sm))
            with layers.count_multiplies() as counter:
                rc, wall, out, err = run_command(cli, argv)
            tracer.uninstall()
            checkpoint = argv[argv.index("--out" if "--out" in argv else "--model") + 1]
            traced.append({"macs_recorded": counter.total, "checkpoint_bytes": os.path.getsize(checkpoint),
                           "counts": per_command_counts(tracer, tracer.request)})
        else:
            rc, wall, out, err = run_command(cli, argv)
        if probe:
            probe.uninstall()
            if probe.capture is not None:
                np.savez(os.path.join(root, f"first_batch_{tag}.npz"), **probe.capture)
        records.append({"tag": tag, "traced": trace, "rc": rc, "wall_s": wall, "stdout": out,
                        "stderr_tail": err[-2000:], "argv": argv})

    one("warmup", False)
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < spec["seconds"] or i < spec["min_commands"]:
        one(str(i), bool(tracer) and i % 2 == 1)
        i += 1
    peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    result = {"records": records, "peak_rss_bytes": peak_rss_bytes}
    if tracer:
        walls = {flag: [r["wall_s"] for r in records[1:] if r["traced"] == flag] for flag in (False, True)}
        result["layers"] = layer_metrics(sm, tracer, traced, wl.name, workloads.BENCH_CONFIG)
        result["layers"]["trace.overhead_share"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        result["counts_repeat"] = all(t == traced[0] for t in traced)
        tracer.write(os.path.join(spec["work"], "spans.csv"))
    with open(os.path.join(spec["work"], "worker_result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
