"""The three workloads: set-up, the CLI command each one repeats, and the
checks of that command's outputs against an independent reference.

Every workload drives `scenemixer.cli.main` in-process with the argument
lists a user would type. The workload seed drives `synth_generate`, the
split and `--seed`; nothing else about the inputs depends on it, so the
amount of work per command is the same on every seed.
"""

import math
import os

import numpy as np

import reference

# eurosat-default geometry with 6 classes, one per synthetic pattern
BENCH_CONFIG = """input=64x64x3
patch=4
embed_dim=128
depth=4
kernels=3,5
merge=sum
num_classes=6
bn_eps=0.001
bn_momentum=0.99
residual=false
"""
NUM_CLASSES = 6
CALIBRATION_PER_CLASS = 2


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _calibrated_checkpoint(sm, manifest, seed, root):
    """Seeded initial weights, BN running statistics set to those of a
    train-mode pass over a few images, saved as `model.smxc`.

    Without calibration the untrained network puts almost every image in
    one or two classes, which would make the label checks weak.
    """
    config, _ = sm.model.parse_config_text(BENCH_CONFIG)
    net = sm.model.build(config, seed=seed)
    net.class_names = manifest.class_names
    picks = []
    for c in range(NUM_CLASSES):
        picks += [s for s in manifest.samples if s.class_index == c][:CALIBRATION_PER_CLASS]
    x = np.stack([sm.data.resize_bilinear(s.image, config.input_h, config.input_w) for s in picks])
    for s in net.bn_states:
        s.momentum = 0.0  # running statistics := this batch's statistics
    sm.model.forward(net, x, "train")
    for s in net.bn_states:
        s.momentum = config.bn_momentum
    path = os.path.join(root, "model.smxc")
    sm.model.save(net, path)
    return path


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


class TrainEurosat:
    """`train` on a 64x64 PPM tree: 96 training images (3 full batches of
    32), 18 validation images, 2 epochs per command."""

    name = "train-eurosat"
    PER_CLASS = 22  # stratified 70/15/15 split: 16 train, 3 val, 3 test per class
    EPOCHS = 2
    BATCH = 32

    def setup(self, sm, seed, root):
        _write(os.path.join(root, "bench.cfg"), BENCH_CONFIG)
        manifest = sm.data.synth_generate(NUM_CLASSES, self.PER_CLASS, side=64, seed=seed)
        sm.data.write_dataset(manifest, os.path.join(root, "data"))
        sm.data.stratified_split(manifest, sm.data.SplitSpec(seed=seed))
        return {
            "root": root,
            "seed": seed,
            "class_names": manifest.class_names,
            "images_per_command": self.EPOCHS * sum(manifest.per_class_counts("train")),
        }

    def command(self, state, tag):
        root = state["root"]
        return ["train", "--data", os.path.join(root, "data"), "--config", os.path.join(root, "bench.cfg"),
                "--epochs", str(self.EPOCHS), "--batch", str(self.BATCH), "--seed", str(state["seed"]),
                "--out", os.path.join(root, f"train_{tag}.smxc"),
                "--history", os.path.join(root, f"history_{tag}.csv")]

    def reference(self, sm, state):
        return {}  # filled from the first command's outputs

    def check_one(self, sm, state, ctx, rec):
        """History loss finite and decreasing, checkpoint loads, outputs
        byte-identical across commands, and the first batch's train-mode
        loss agrees with the reference."""
        root, tag = state["root"], rec["tag"]
        with open(os.path.join(root, f"history_{tag}.csv"), "rb") as fh:
            history = fh.read()
        rows = [line.split(",") for line in history.decode().splitlines()]
        if rows[0][:2] != ["epoch", "train_loss"] or len(rows) != self.EPOCHS + 1:
            rec["problems"].append(f"history has {len(rows) - 1} epochs, expected {self.EPOCHS}")
            return
        losses = [float(r[1]) for r in rows[1:]]
        if not all(math.isfinite(v) for v in losses) or any(b >= a for a, b in zip(losses, losses[1:])):
            rec["problems"].append(f"train loss not finite and decreasing: {losses}")
        ckpt_path = os.path.join(root, f"train_{tag}.smxc")
        net = sm.model.load(ckpt_path)
        if net.class_names != state["class_names"] or net.config.num_classes != NUM_CLASSES:
            rec["problems"].append("checkpoint class names or class count differ from the data")
        with open(ckpt_path, "rb") as fh:
            ckpt = fh.read()
        with np.load(os.path.join(root, f"first_batch_{tag}.npz")) as z:
            capture = {k: z[k] for k in z.files}
        if not ctx:
            ctx.update(history=history, ckpt=ckpt, capture=capture, loss_problem=self._loss_problem(capture))
        if history != ctx["history"] or ckpt != ctx["ckpt"]:
            rec["problems"].append("history or checkpoint differs from the first command's")
        if capture.keys() != ctx["capture"].keys() or any(
                not np.array_equal(capture[k], ctx["capture"][k]) for k in capture):
            rec["problems"].append("first batch or its loss differs from the first command's")
        elif ctx["loss_problem"]:
            rec["problems"].append(ctx["loss_problem"])

    @staticmethod
    def _loss_problem(capture):
        """None if the captured first-batch loss matches the train-mode reference."""
        tensors = {k[len("param:"):]: v.astype(np.float64) for k, v in capture.items() if k.startswith("param:")}
        probs = reference.forward(reference.parse_config(BENCH_CONFIG), tensors, capture["x"].astype(np.float64),
                                  "train")
        ref_loss = reference.cross_entropy(probs, capture["labels"])
        if abs(float(capture["loss"]) - ref_loss) <= reference.LOSS_TOL:
            return None
        return f"first-batch loss {float(capture['loss'])!r} vs reference {ref_loss!r}"


class EvalPpm256:
    """`eval` of a saved checkpoint on 256x256 PPM sources resized to 64:
    126 test images, scored as batches of 64 and 62."""

    name = "eval-ppm256"
    PER_CLASS = 27  # split 10/10/80 %: 2 train, 2 val, 21 test per class
    SIDE = 256

    def setup(self, sm, seed, root):
        manifest = sm.data.synth_generate(NUM_CLASSES, self.PER_CLASS, side=self.SIDE, seed=seed)
        sm.data.write_dataset(manifest, os.path.join(root, "data"))
        sm.data.stratified_split(manifest, sm.data.SplitSpec(0.1, 0.1, 0.8, seed=seed))
        _write(os.path.join(root, "manifest.csv"), sm.data.manifest_to_csv(manifest))
        model_path = _calibrated_checkpoint(sm, manifest, seed, root)
        return {
            "root": root,
            "seed": seed,
            "model": model_path,
            "class_names": manifest.class_names,
            "images_per_command": sum(manifest.per_class_counts("test")),
        }

    def command(self, state, tag):
        root = state["root"]
        return ["eval", "--model", state["model"], "--data", os.path.join(root, "data"), "--split", "test",
                "--seed", str(state["seed"]), "--manifest", os.path.join(root, "manifest.csv"),
                "--confusion", os.path.join(root, f"confusion_{tag}.csv"),
                "--metrics", os.path.join(root, f"metrics_{tag}.csv")]

    def reference(self, sm, state):
        """Reference confusion counts and the number of images whose
        reference top-2 margin is below the tolerance."""
        root = state["root"]
        config, tensors = reference.read_checkpoint(state["model"])
        names = state["class_names"]
        paths, truth = [], []
        for key, cls, split in _read_csv(os.path.join(root, "manifest.csv"))[1:]:
            if split == "test":
                paths.append(os.path.join(root, "data", key))
                truth.append(names.index(cls))
        h, w, _ = config["input"]
        x = np.stack([reference.load_image(p, h, w) for p in paths])
        top1, _, margin = reference.labels_and_margins(reference.forward(config, tensors, x, "infer"))
        counts = np.zeros((NUM_CLASSES, NUM_CLASSES), np.int64)
        np.add.at(counts, (np.array(truth), top1), 1)
        return {"counts": counts, "ambiguous": int(np.sum(margin < reference.MARGIN_TOL))}

    def check_one(self, sm, state, ctx, rec):
        """Confusion matrix agrees with the reference's, up to images whose
        reference top-2 margin is below the tolerance; metrics CSV and the
        printed summary agree with the confusion CSV."""
        names, tag = state["class_names"], rec["tag"]
        rows = _read_csv(os.path.join(state["root"], f"confusion_{tag}.csv"))
        if rows[0] != ["true"] + names or [r[0] for r in rows[1:]] != names:
            rec["problems"].append("confusion CSV header or row names differ from the classes")
            return
        counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]], np.int64)
        ref_counts, ambiguous = ctx["counts"], ctx["ambiguous"]
        moved = int(np.abs(counts - ref_counts).sum())
        if not np.array_equal(counts.sum(axis=1), ref_counts.sum(axis=1)) or moved > 2 * ambiguous:
            rec["problems"].append(f"confusion differs from the reference by {moved} with {ambiguous} ambiguous images")
        want = reference.summary_from_counts(counts)
        got = dict(_read_csv(os.path.join(state["root"], f"metrics_{tag}.csv"))[1:])
        printed = dict(line.split(": ", 1) for line in rec["stdout"].splitlines())
        for key, label, scale in (("OA", "OA", 100.0), ("AA", "AA", 100.0), ("AA_eq2", "AA_eq2", 100.0),
                                  ("kappa_x100", "kappa x100", 1.0)):
            if not math.isclose(float(got[key]), want[key] * scale, rel_tol=1e-9, abs_tol=1e-9):
                rec["problems"].append(f"metrics CSV {key}={got[key]} but confusion gives {want[key] * scale!r}")
            if not abs(float(printed[label].rstrip("%")) - want[key] * scale) <= 0.005 + 1e-9:
                rec["problems"].append(f"printed {label} {printed[label]} disagrees with the confusion CSV")


class ServePredict:
    """Single-image `predict` requests over 24 256x256 PPM files, one
    after another (a closed loop with one client)."""

    name = "serve-predict"
    PER_CLASS = 4
    SIDE = 256

    def setup(self, sm, seed, root):
        manifest = sm.data.synth_generate(NUM_CLASSES, self.PER_CLASS, side=self.SIDE, seed=seed)
        sm.data.write_dataset(manifest, os.path.join(root, "data"))
        model_path = _calibrated_checkpoint(sm, manifest, seed, root)
        order = np.random.default_rng(seed).permutation(len(manifest.samples))
        return {
            "root": root,
            "seed": seed,
            "model": model_path,
            "class_names": manifest.class_names,
            "images": [os.path.join(root, "data", manifest.samples[j].key) for j in order],
            "images_per_command": 1,
        }

    def command(self, state, tag):
        images = state["images"]
        index = 0 if tag == "warmup" else int(tag) % len(images)
        return ["predict", "--model", state["model"], "--image", images[index]]

    def reference(self, sm, state):
        config, tensors = reference.read_checkpoint(state["model"])
        h, w, _ = config["input"]
        x = np.stack([reference.load_image(p, h, w) for p in state["images"]])
        top1, top2, margin = reference.labels_and_margins(reference.forward(config, tensors, x, "infer"))
        return {"top1": top1, "top2": top2, "margin": margin}

    def check_one(self, sm, state, ctx, rec):
        """The served label equals the reference's top-1 label, or its top-2
        label where the reference's top-2 margin is below the tolerance."""
        j = state["images"].index(self.command(state, rec["tag"])[-1])
        names, got = state["class_names"], rec["stdout"].strip()
        if got not in names or not reference.label_ok(names.index(got), ctx["top1"][j], ctx["top2"][j],
                                                      ctx["margin"][j]):
            rec["problems"].append(f"served {got!r} for {state['images'][j]}, reference "
                                   f"{names[ctx['top1'][j]]!r} (margin {ctx['margin'][j]:.2e})")


WORKLOADS = {w.name: w for w in (TrainEurosat(), EvalPpm256(), ServePredict())}

