"""Cost accounting walkthrough: parameters, MACs and FLOPs per layer.

The closed-form counter and an instrumented forward pass are two
independent routes to the same multiply count; this script shows both
agreeing, plus what changes between the 10-class and 30-class defaults.
"""
import numpy as np

from scenemixer import analyzer, layers
from scenemixer import model as sm

print("=== eurosat-default (64x64x3, 10 classes) ===")
cfg = sm.ModelConfig.eurosat_default()
report = analyzer.cost_report(cfg)
print(analyzer.format_report(report, cfg))

print("=== aid-default (same trunk, 30 classes) ===")
aid = sm.ModelConfig.aid_default()
print(analyzer.format_report(analyzer.cost_report(aid), aid))

# The analytic count must agree, integer for integer, with the multiplies
# actually performed by a forward pass on a batch of one.
net = sm.build(cfg, seed=0)
x = np.zeros((1, 64, 64, 3), np.float32)
with layers.count_multiplies() as counter:
    sm.forward(net, x, "infer")
print("instrumented multiplies:", counter.total)
print("closed-form total_macs :", report.total_macs)
assert counter.total == report.total_macs

# Block cost is constant, so totals are affine in depth.
for depth in (1, 2, 4, 8):
    d_cfg = sm.ModelConfig(input_h=64, input_w=64, input_c=3, depth=depth)
    d_report = analyzer.cost_report(d_cfg)
    print(f"depth {depth}: params {d_report.total_params:>7,}  "
          f"macs {d_report.total_macs:>11,}")
