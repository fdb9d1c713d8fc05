import math

import numpy as np
import pytest

from scenemixer import analyzer, layers
from scenemixer import model as sm

EUROSAT = sm.ModelConfig.eurosat_default()
AID = sm.ModelConfig.aid_default()
TINY = sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, embed_dim=2,
                      depth=1, kernels=(3, 5), num_classes=2)


def test_param_goldens():
    assert analyzer.cost_report(EUROSAT).total_params == 94_090
    assert analyzer.cost_report(TINY).total_params == 102
    assert analyzer.cost_report(AID).total_params == 96_670


def test_param_breakdown_default():
    report = analyzer.cost_report(EUROSAT)
    by_name = {e.name: e for e in report.entries}
    assert by_name["patch_embed"].params == 6_272
    block = sum(e.params for n, e in by_name.items() if n.startswith("block0."))
    assert block == 21_632
    assert by_name["head"].params == 1_290


def test_trainable_only_subtracts_running_stats():
    full = analyzer.cost_report(EUROSAT).total_params
    trainable = analyzer.cost_report(EUROSAT, trainable_only=True).total_params
    assert full - trainable == 2 * 128 * 4  # two running vectors per block


def test_mac_goldens():
    assert analyzer.cost_report(TINY).total_macs == 324
    report = analyzer.cost_report(EUROSAT)
    assert report.total_macs == 22_807_808
    embed = next(e for e in report.entries if e.name == "patch_embed")
    assert embed.macs == 1_572_864


def test_flop_goldens():
    flops = analyzer.cost_report(EUROSAT).total_flops
    assert flops == 46_041_610
    assert flops == 2 * 22_807_808 + 425_994
    # tiny config: 2*324 multiplies-as-flops plus one bias add per conv/dense
    # output element (8 embed + 8 + 8 dw + 8 pw + 2 head = 34), frozen by the
    # instrumented oracle below
    assert analyzer.cost_report(TINY).total_flops == 682


def test_flop_proximity_to_reference():
    got = analyzer.cost_report(EUROSAT).total_flops
    ref = analyzer.EUROSAT_REFERENCE["flops"]
    assert abs(got - ref) / ref < 0.02


def _random_small_config(rng):
    patch = int(rng.choice([1, 2, 4]))
    grid = int(rng.integers(2, 5))
    kernels = tuple(sorted(rng.choice([1, 3, 5, 7], size=int(rng.integers(1, 3)), replace=False).tolist()))
    return sm.ModelConfig(
        input_h=patch * grid,
        input_w=patch * grid,
        input_c=int(rng.integers(1, 4)),
        patch=patch,
        embed_dim=int(rng.integers(1, 9)),
        depth=int(rng.integers(1, 4)),
        kernels=kernels,
        num_classes=int(rng.integers(2, 6)),
    )


def test_instrumented_forward_matches_count_macs(rng):
    """Multiplies observed by running the real model on a batch of one must
    equal the closed-form count, exactly, config by config."""
    for trial in range(8):
        cfg = _random_small_config(rng)
        net = sm.build(cfg, seed=trial)
        x = rng.random((1, cfg.input_h, cfg.input_w, cfg.input_c), dtype=np.float32)
        with layers.count_multiplies() as counter:
            sm.forward(net, x, "infer")
        assert counter.total == analyzer.cost_report(cfg).total_macs, f"trial {trial}: {cfg}"


def test_instrumented_forward_tiny_breakdown(rng):
    net = sm.build(TINY, seed=0)
    x = rng.random((1, 4, 4, 1), dtype=np.float32)
    with layers.count_multiplies() as counter:
        sm.forward(net, x, "infer")
    assert counter.by_layer == {
        "patch_embed": 32,
        "depthwise_conv": 72 + 200,
        "pointwise_conv": 16,
        "dense": 4,
    }


def test_backward_records_no_multiplies(rng):
    """The counter holds the forward's MACs only: a train forward plus its
    backward must count exactly what the forward alone counts."""
    cfg = sm.ModelConfig(input_h=16, input_w=16, input_c=3, patch=4, embed_dim=8,
                         depth=2, kernels=(3, 5), num_classes=3)
    net = sm.build(cfg, seed=0)
    x = rng.random((5, 16, 16, 3), dtype=np.float32)
    with layers.count_multiplies() as forward_only:
        sm.forward(net, x, "train")
    with layers.count_multiplies() as both:
        probs, caches = sm.forward(net, x, "train")
        sm.backward(net, caches, probs)
    assert both.by_layer == forward_only.by_layer
    assert both.total == forward_only.total == 5 * analyzer.cost_report(cfg).total_macs


def test_param_total_matches_built_models(rng, tmp_path):
    # the analyzer's closed-form counts are an oracle independent of `model.tensor_shapes`
    unordered = sm.ModelConfig(input_h=8, input_w=8, input_c=2, patch=2, embed_dim=3, depth=2,
                               kernels=(5, 1, 3), num_classes=4)
    cases = [(_random_small_config(rng), np.float32) for _ in range(6)] + [(unordered, np.float64)]
    for trial, (cfg, dtype) in enumerate(cases):
        net = sm.build(cfg, seed=trial, dtype=dtype)
        stored = sum(t.size for t in net.all_tensors().values())
        assert analyzer.cost_report(cfg).total_params == stored, f"trial {trial}: {cfg}"
        trainable = sum(t.size for t in net.params.values())
        assert analyzer.cost_report(cfg, trainable_only=True).total_params == trainable
        table = sm.tensor_shapes(cfg)
        assert list(table.items()) == [(name, t.shape) for name, t in net.all_tensors().items()]
        assert sum(math.prod(shape) for shape in table.values()) == analyzer.cost_report(cfg).total_params
        sm.save(net, tmp_path / "m.smxc")
        assert list(sm.load(tmp_path / "m.smxc").all_tensors()) == list(table)


def test_counts_linear_in_depth():
    def with_depth(depth):
        return sm.ModelConfig(input_h=64, input_w=64, input_c=3, depth=depth)

    reports = [analyzer.cost_report(with_depth(d)) for d in range(1, 6)]
    for total in ("total_params", "total_macs", "total_flops"):
        counts = [getattr(r, total) for r in reports]
        deltas = {b - a for a, b in zip(counts, counts[1:])}
        assert len(deltas) == 1, total


def test_report_totals_consistent():
    report = analyzer.cost_report(EUROSAT)
    assert report.total_params == sum(e.params for e in report.entries)
    assert report.total_macs == sum(e.macs for e in report.entries)
    assert report.total_flops == sum(e.flops for e in report.entries)
    assert "bias" in report.flop_convention


def test_format_report_mentions_reference_for_default():
    text = analyzer.format_report(analyzer.cost_report(EUROSAT), EUROSAT)
    assert "22,807,808" in text
    assert "94,090" in text
    assert "100,117" in text
    assert "convention" in text


def test_format_report_no_reference_for_other_configs():
    text = analyzer.format_report(analyzer.cost_report(TINY), TINY)
    assert "100,117" not in text


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        analyzer.cost_report(sm.ModelConfig(input_h=63, input_w=64, input_c=3))


def test_report_csv_shape():
    csv = analyzer.report_to_csv(analyzer.cost_report(TINY))
    lines = csv.strip().split("\n")
    assert lines[0] == "layer,params,macs,flops"
    assert lines[-1] == "total,102,324,682"
