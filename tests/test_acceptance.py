"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
criterion takes a few minutes of CPU; everything else is seconds.
"""

import subprocess
import sys
import time

import numpy as np

from scenemixer import analyzer, layers
from scenemixer import data as dm
from scenemixer import metrics as mx
from scenemixer import model as sm
from scenemixer import train as tr
from scenemixer.layers import BatchNormState, ConvParams
from scenemixer.numerics import finite_diff_grad

from conftest import max_rel_err, src_env

EUROSAT = sm.ModelConfig.eurosat_default()
TINY = sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, embed_dim=2,
                      depth=1, kernels=(3, 5), num_classes=2)


def _report(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_mac_reproduction():
    t0 = time.perf_counter()
    macs = analyzer.count_macs(EUROSAT)
    text = analyzer.format_report(analyzer.cost_report(EUROSAT), EUROSAT)
    elapsed = time.perf_counter() - t0
    ok = macs == 22_807_808 and "22,807,808" in text and elapsed < 1.0
    _report(1, "eurosat-default MACs equal 22,807,808 exactly", ok,
            f"macs={macs}, {elapsed * 1000:.0f} ms")


def test_criterion_02_flop_proximity():
    report = analyzer.cost_report(EUROSAT)
    ref = 45_913_344
    rel = abs(report.total_flops - ref) / ref
    text = analyzer.format_report(report, EUROSAT)
    ok = rel < 0.02 and report.flop_convention in text
    _report(2, "FLOPs within 2% of reference under the documented convention", ok,
            f"flops={report.total_flops} ({rel * 100:+.2f}% vs {ref})")


def test_criterion_03_parameter_accounting(rng):
    exact = True
    for trial in range(6):
        patch = int(rng.choice([1, 2, 4]))
        cfg = sm.ModelConfig(
            input_h=patch * int(rng.integers(2, 5)), input_w=patch * int(rng.integers(2, 5)),
            input_c=int(rng.integers(1, 4)), patch=patch,
            embed_dim=int(rng.integers(1, 9)), depth=int(rng.integers(1, 4)),
            kernels=tuple(sorted(rng.choice([1, 3, 5], size=int(rng.integers(1, 3)), replace=False).tolist())),
            num_classes=int(rng.integers(2, 6)),
        )
        cfg.input_w = cfg.input_h  # keep a square grid
        exact &= analyzer.count_params(cfg) == sm.build(cfg, seed=trial).num_scalars()
    default_count = analyzer.count_params(EUROSAT)
    text = analyzer.format_report(analyzer.cost_report(EUROSAT), EUROSAT)
    discrepancy_noted = "94,090" in text and "100,117" in text and "differs" in text
    ok = exact and default_count == 94_090 and discrepancy_noted
    _report(3, "count_params matches built models; 94,090 reported beside 100,117", ok,
            f"default={default_count}")


def test_criterion_04_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0

    def track(analytic, numeric):
        nonlocal worst
        worst = max(worst, max_rel_err(analytic, numeric))

    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        # patch embedding
        x = rng.standard_normal((1, 4, 4, 2))
        p = ConvParams(rng.standard_normal((2, 2, 2, 3)), rng.standard_normal(3))
        out, cache = layers.patch_embed_forward(x, p)
        r = rng.standard_normal(out.shape)
        dx, dw, db = layers.patch_embed_backward(cache, r)
        track(dx, finite_diff_grad(lambda t: float(np.sum(layers.patch_embed_forward(t, p)[0] * r)), x))
        track(dw, finite_diff_grad(
            lambda t: float(np.sum(layers.patch_embed_forward(x, ConvParams(t, p.bias))[0] * r)), p.weights))
        track(db, finite_diff_grad(
            lambda t: float(np.sum(layers.patch_embed_forward(x, ConvParams(p.weights, t))[0] * r)), p.bias))
        # depthwise
        for k in (3, 5):
            x = rng.standard_normal((1, 5, 5, 2))
            p = ConvParams(rng.standard_normal((k, k, 2)), rng.standard_normal(2))
            out, cache = layers.depthwise_conv_forward(x, p)
            r = rng.standard_normal(out.shape)
            dx, dw, db = layers.depthwise_conv_backward(cache, r)
            track(dx, finite_diff_grad(lambda t: float(np.sum(layers.depthwise_conv_forward(t, p)[0] * r)), x))
            track(dw, finite_diff_grad(
                lambda t: float(np.sum(layers.depthwise_conv_forward(x, ConvParams(t, p.bias))[0] * r)), p.weights))
        # pointwise
        x = rng.standard_normal((1, 3, 3, 2))
        p = ConvParams(rng.standard_normal((2, 4)), rng.standard_normal(4))
        out, cache = layers.pointwise_conv_forward(x, p)
        r = rng.standard_normal(out.shape)
        dx, dw, db = layers.pointwise_conv_backward(cache, r)
        track(dx, finite_diff_grad(lambda t: float(np.sum(layers.pointwise_conv_forward(t, p)[0] * r)), x))
        track(dw, finite_diff_grad(
            lambda t: float(np.sum(layers.pointwise_conv_forward(x, ConvParams(t, p.bias))[0] * r)), p.weights))
        # gelu
        x = rng.standard_normal((3, 4)) * 2
        out, cache = layers.gelu_forward(x)
        r = rng.standard_normal(out.shape)
        track(layers.gelu_backward(cache, r),
              finite_diff_grad(lambda t: float(np.sum(layers.gelu_forward(t)[0] * r)), x))
        # batch norm, both modes
        for mode in ("train", "infer"):
            x = rng.standard_normal((2, 3, 3, 2))
            gamma, beta = rng.standard_normal(2) + 1, rng.standard_normal(2)

            def fresh():
                return BatchNormState(gamma.copy(), beta.copy(), np.zeros(2), np.ones(2), 0.99, 1e-3)

            out, cache = layers.batch_norm_forward(x, fresh(), mode)
            r = rng.standard_normal(out.shape)
            dx, dgamma, dbeta = layers.batch_norm_backward(cache, r)
            track(dx, finite_diff_grad(
                lambda t: float(np.sum(layers.batch_norm_forward(t, fresh(), mode)[0] * r)), x))
            track(dgamma, finite_diff_grad(
                lambda t: float(np.sum(layers.batch_norm_forward(
                    x, BatchNormState(t.copy(), beta.copy(), np.zeros(2), np.ones(2), 0.99, 1e-3), mode)[0] * r)),
                gamma))
        # pooling, dense, softmax
        x = rng.standard_normal((2, 3, 3, 2))
        out, cache = layers.global_avg_pool_forward(x)
        r = rng.standard_normal(out.shape)
        track(layers.global_avg_pool_backward(cache, r),
              finite_diff_grad(lambda t: float(np.sum(layers.global_avg_pool_forward(t)[0] * r)), x))
        x = rng.standard_normal((3, 4))
        p = ConvParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        out, cache = layers.dense_forward(x, p)
        r = rng.standard_normal(out.shape)
        dx, dw, db = layers.dense_backward(cache, r)
        track(dx, finite_diff_grad(lambda t: float(np.sum(layers.dense_forward(t, p)[0] * r)), x))
        track(dw, finite_diff_grad(
            lambda t: float(np.sum(layers.dense_forward(x, ConvParams(t, p.bias))[0] * r)), p.weights))
        x = rng.standard_normal((2, 4))
        out, cache = layers.softmax_forward(x)
        r = rng.standard_normal(out.shape)
        track(layers.softmax_backward(cache, r),
              finite_diff_grad(lambda t: float(np.sum(layers.softmax_forward(t)[0] * r)), x))
        # full tiny model, every parameter
        net = sm.build(TINY, seed=seed, dtype=np.float64)
        xin = rng.standard_normal((2, 4, 4, 1))
        labels = np.array([0, 1])
        probs, caches = sm.forward(net, xin, "train")
        _, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
        grads, _ = sm.backward(net, caches, dlogits)

        def loss_fn(_):
            pr, _ = sm.forward(net, xin, "train")
            return tr.cross_entropy(pr, labels)

        for name, param in net.params.items():
            track(grads[name], finite_diff_grad(loss_fn, param))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(4, "all layers and the tiny model pass finite-difference checks", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f} s, 5 seeds")


def test_criterion_05_counting_oracle(rng):
    ok = True
    tried = 0
    for trial in range(6):
        patch = int(rng.choice([1, 2, 4]))
        grid = int(rng.integers(2, 5))
        cfg = sm.ModelConfig(
            input_h=patch * grid, input_w=patch * grid, input_c=int(rng.integers(1, 4)),
            patch=patch, embed_dim=int(rng.integers(1, 9)), depth=int(rng.integers(1, 4)),
            kernels=tuple(sorted(rng.choice([1, 3, 5, 7], size=int(rng.integers(1, 3)), replace=False).tolist())),
            num_classes=int(rng.integers(2, 6)),
        )
        net = sm.build(cfg, seed=trial)
        x = rng.random((1, cfg.input_h, cfg.input_w, cfg.input_c), dtype=np.float32)
        with layers.count_multiplies() as counter:
            sm.forward(net, x, "infer")
        ok &= counter.total == analyzer.count_macs(cfg)
        tried += 1
    _report(5, "instrumented forward multiply counts equal count_macs exactly", ok,
            f"{tried} random configs")


def _oracle_metric_stats(counts):
    c = len(counts)
    total = sum(map(sum, counts))
    oa = sum(counts[i][i] for i in range(c)) / total
    recalls, ovr = [], []
    for i in range(c):
        row = sum(counts[i])
        col = sum(counts[t][i] for t in range(c))
        tp = counts[i][i]
        ovr.append((tp + total - row - col + tp) / total)
        if row:
            recalls.append(tp / row)
    aa = sum(recalls) / c if len(recalls) == c else None
    aa2 = sum(ovr) / c
    p_e = sum(sum(counts[i]) * sum(counts[t][i] for t in range(c)) for i in range(c)) / total**2
    kap = (oa - p_e) / (1 - p_e) if p_e != 1 else None
    return oa, aa, aa2, kap


def test_criterion_06_metrics_oracle(rng):
    ok = abs(mx.kappa(mx.ConfusionMatrix(np.array([[40, 10], [20, 30]]))) - 0.4) < 1e-15
    cm = mx.ConfusionMatrix(np.array([[10, 0, 0], [0, 10, 0], [5, 0, 5]]))
    ok &= abs(mx.average_accuracy(cm, "macro_recall") - 5 / 6) < 1e-15
    ok &= abs(mx.average_accuracy(cm, "eq2") - 8 / 9) < 1e-15
    checked = 0
    while checked < 100:
        c = int(rng.integers(2, 11))
        counts = rng.integers(0, 51, size=(c, c)).astype(np.int64)
        if counts.sum() == 0:
            continue
        got = mx.ConfusionMatrix(counts)
        oa, aa, aa2, kap = _oracle_metric_stats(counts.tolist())
        ok &= abs(mx.overall_accuracy(got) - oa) < 1e-12
        ok &= abs(mx.average_accuracy(got, "eq2") - aa2) < 1e-12
        if aa is not None:
            ok &= abs(mx.average_accuracy(got, "macro_recall") - aa) < 1e-12
        if kap is not None:
            ok &= abs(mx.kappa(got) - kap) < 1e-12
        checked += 1
    _report(6, "OA/AA(both)/kappa match the direct-definition oracle to 1e-12", ok,
            f"{checked} random matrices + hand-anchored cases")


def test_criterion_07_desk_scale_learning():
    cfg = sm.ModelConfig(input_h=64, input_w=64, input_c=3, patch=4, embed_dim=64,
                         depth=2, kernels=(3, 5), num_classes=4)
    manifest = dm.synth_generate(4, 250, side=64, seed=7)
    dm.stratified_split(manifest, dm.SplitSpec(seed=7))
    train_xy = dm.split_arrays(manifest, "train", 64, 64)
    val_xy = dm.split_arrays(manifest, "val", 64, 64)
    test_xy = dm.split_arrays(manifest, "test", 64, 64)
    net = sm.build(cfg, seed=7)
    t0 = time.perf_counter()
    net, history = tr.fit(net, train_xy, val_xy, tr.TrainConfig(epochs=30, batch_size=32, seed=7))
    elapsed = time.perf_counter() - t0
    best_val = max(r.val_oa for r in history.records)
    _, test_oa = tr.evaluate(net, *test_xy)
    ok = best_val >= 0.95 and test_oa >= 0.90 and elapsed < 600.0
    _report(7, "synthetic 4-class run reaches val OA >= 95% in 30 epochs, test OA >= 90%", ok,
            f"best val {best_val:.3f} (epoch {history.best_epoch}), test {test_oa:.3f}, {elapsed:.0f} s")


def test_criterion_08_scheduler_conformance():
    sched = tr.PlateauScheduler(1e-3, patience=10)
    trace = [sched.update(0.5) for _ in range(120)]  # never improves after call 1
    # halvings land exactly when each 10-epoch stagnation window closes
    expected = []
    lr = 1e-3
    stagnant = 0
    best_seen = False
    for _ in range(120):
        if not best_seen:
            best_seen = True  # the first call records the metric as best
        else:
            stagnant += 1
            if stagnant == 10:
                lr = max(lr * 0.5, 5e-5)
                stagnant = 0
        expected.append(lr)
    ok = trace == expected and trace[10] == 5e-4 and trace[-1] == 5e-5
    _report(8, "plateau trace halves at patience-10 boundaries and clamps at 5e-5", ok,
            f"first cut at call {trace.index(5e-4) + 1}, floor {trace[-1]:g}")


TINY_PIPE_CONFIG = """\
input=16x16x3
patch=4
embed_dim=8
depth=1
kernels=3,5
merge=sum
num_classes=3
bn_eps=0.001
bn_momentum=0.99
residual=false
"""


def _run_pipeline(workdir, threads):
    workdir.mkdir()
    cfg = workdir / "tiny.cfg"
    cfg.write_text(TINY_PIPE_CONFIG)
    data = workdir / "data"
    t = str(threads)
    steps = [
        ["synth", "--out", str(data), "--classes", "3", "--per-class", "8",
         "--seed", "11", "--side", "16", "--threads", t],
        ["split", "--data", str(data), "--seed", "11", "--out", str(workdir / "manifest.csv"),
         "--threads", t],
        ["train", "--data", str(data), "--config", str(cfg), "--epochs", "2", "--batch", "8",
         "--seed", "11", "--out", str(workdir / "model.smxc"),
         "--history", str(workdir / "history.csv"),
         "--manifest", str(workdir / "manifest.csv"), "--quiet", "--threads", t],
        ["eval", "--model", str(workdir / "model.smxc"), "--data", str(data),
         "--split", "test", "--manifest", str(workdir / "manifest.csv"),
         "--confusion", str(workdir / "cm.csv"), "--metrics", str(workdir / "metrics.csv"),
         "--threads", t],
    ]
    for step in steps:
        proc = subprocess.run([sys.executable, "-m", "scenemixer", *step],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, f"{step} failed:\n{proc.stderr}"
    artifacts = {}
    for p in sorted(workdir.rglob("*")):
        if p.is_file() and p.suffix in (".csv", ".smxc", ".ppm"):
            artifacts[str(p.relative_to(workdir))] = p.read_bytes()
    return artifacts


def test_criterion_09_persistence_and_determinism(tmp_path, rng):
    # checkpoint round-trip: bit-identical predictions
    net = sm.build(TINY, seed=3)
    x = rng.random((4, 4, 4, 1), dtype=np.float32)
    sm.forward(net, x, "train")
    before, _ = sm.forward(net, x, "infer")
    sm.save(net, tmp_path / "m.smxc")
    after, _ = sm.forward(sm.load(tmp_path / "m.smxc"), x, "infer")
    round_trip_ok = np.array_equal(before, after)

    # full pipeline, twice, with different thread caps
    a = _run_pipeline(tmp_path / "run_a", threads=1)
    b = _run_pipeline(tmp_path / "run_b", threads=2)
    pipeline_ok = set(a) == set(b) and all(a[k] == b[k] for k in a)
    ok = round_trip_ok and pipeline_ok
    _report(9, "round-trip is bit-identical; pipeline bytes independent of reruns/threads", ok,
            f"{len(a)} artifacts compared")


def test_criterion_10_split_protocol(rng):
    sizes = [int(rng.integers(2000, 3001)) for _ in range(10)]
    manifest = dm.DatasetManifest([f"c{i}" for i in range(10)])
    for cls, n in enumerate(sizes):
        for i in range(n):
            manifest.samples.append(dm.SampleRecord(key=f"c{cls}/{i:05d}", class_index=cls))
    dm.stratified_split(manifest, dm.SplitSpec(seed=1))
    train_counts = manifest.per_class_counts("train")
    band_ok = all(1400 <= t <= 2100 for t in train_counts)

    adversarial = dm.DatasetManifest(["a", "b"])
    for cls in range(2):
        for i in range(101):
            adversarial.samples.append(dm.SampleRecord(key=f"{cls}/{i:03d}", class_index=cls))
    dm.stratified_split(adversarial, dm.SplitSpec(seed=1))
    floor_ok = (adversarial.per_class_counts("train") == [71, 71]
                and adversarial.per_class_counts("val") == [15, 15]
                and adversarial.per_class_counts("test") == [15, 15])
    ok = band_ok and floor_ok
    _report(10, "split counts keep the 1,400-2,100 band and the floor-remainder rule", ok,
            f"train counts {min(train_counts)}..{max(train_counts)}; 101 -> 71/15/15")
