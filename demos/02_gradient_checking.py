"""Gradient checking tour: analytic backward passes vs finite differences.

Every backward in the package is hand-written; the only ground truth is
the central-difference quotient. This script re-derives a few of them the
slow way and prints the agreement.
"""
import numpy as np

from scenemixer import layers
from scenemixer import model as sm
from scenemixer import train as tr
from scenemixer.layers import ConvParams
from scenemixer.numerics import finite_diff_grad

rng = np.random.Generator(np.random.PCG64(0))


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


# A single depthwise filter bank, checked coordinate by coordinate.
x = rng.standard_normal((1, 6, 6, 2))
p = ConvParams(rng.standard_normal((3, 3, 2)), rng.standard_normal(2))
out, cache = layers.depthwise_conv_forward(x, p)
direction = rng.standard_normal(out.shape)
dx, dw, db = layers.depthwise_conv_backward(cache, direction)

numeric_dw = finite_diff_grad(
    lambda w: float(np.sum(layers.depthwise_conv_forward(x, ConvParams(w, p.bias))[0] * direction)),
    p.weights,
)
print(f"depthwise dW vs finite differences: rel err {rel_err(dw, numeric_dw):.2e}")

# The full network: loss gradient for every parameter of a small config.
cfg = sm.ModelConfig(input_h=8, input_w=8, input_c=1, patch=2, embed_dim=3,
                     depth=2, kernels=(3, 5), num_classes=3)
net = sm.build(cfg, seed=1, dtype=np.float64)
images = rng.standard_normal((4, 8, 8, 1))
labels = np.array([0, 1, 2, 1])

probs, caches = sm.forward(net, images, "train")
loss, dlogits = tr.cross_entropy_with_logit_grad(probs, labels)
grads, _ = sm.backward(net, caches, dlogits)
print(f"cross-entropy at init: {loss:.4f} (chance would be {np.log(3):.4f})")


def loss_fn(_):
    pr, _ = sm.forward(net, images, "train")
    return tr.cross_entropy(pr, labels)


worst = 0.0
for name, param in net.params.items():
    numeric = finite_diff_grad(loss_fn, param)
    err = rel_err(grads[name], numeric)
    worst = max(worst, err)
    print(f"  {name:<22} rel err {err:.2e}")
print(f"worst parameter gradient error: {worst:.2e}")
