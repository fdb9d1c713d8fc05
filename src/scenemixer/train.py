"""Training protocol: cross-entropy, Adam, plateau LR schedule, epoch loop.

`fit` trains for a fixed number of epochs, monitors validation overall
accuracy after each one, multiplies the learning rate by `LR_FACTOR` (0.5)
after `LR_PATIENCE` (10) epochs without strict improvement (never below
`LR_MIN`, 5e-5), and finally restores the weights of the best validation
epoch (earliest on ties). Adam's constants are fixed too: `ADAM_BETA1` 0.9,
`ADAM_BETA2` 0.999 and `ADAM_EPS` 1e-7. Validation is one infer-mode
`model.forward` over the whole split, which bounds its own memory by
running the network in chunks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .fileio import write_atomic
from .numerics import Tensor

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-7
LR_FACTOR, LR_PATIENCE, LR_MIN = 0.5, 10, 5e-5


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr_init: float = 1e-3
    seed: int = 0

    def validate(self):
        if not math.isfinite(self.lr_init):
            raise ValueError(f"lr_init must be finite, got {self.lr_init}")
        if self.lr_init < LR_MIN:
            raise ValueError(f"lr_init {self.lr_init} is below the learning-rate floor LR_MIN {LR_MIN}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def cross_entropy(probs: Tensor, labels) -> float:
    """Mean negative log-probability of the true class, clamped at 1e-12."""
    labels = np.asarray(labels)
    n, c = probs.shape
    if n == 0:
        raise ValueError("cross_entropy: empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels outside [0,{c}): min {labels.min()}, max {labels.max()}")
    picked = np.maximum(probs[np.arange(n), labels], 1e-12)
    loss = float(-np.mean(np.log(picked)))
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite cross-entropy loss: {loss}")
    return loss


def cross_entropy_with_logit_grad(probs: Tensor, labels):
    """Loss plus the fused softmax+CE gradient w.r.t. logits: (probs - onehot)/n."""
    loss = cross_entropy(probs, labels)
    n = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(n), np.asarray(labels)] -= 1.0
    grad /= n
    return loss, grad


class AdamState:
    """First/second moment buffers mirroring a parameter dict, plus step count."""

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One in-place Adam update with bias correction. Aborts on non-finite grads."""
    for name in params:
        if not np.isfinite(grads[name]).all():
            raise FloatingPointError(f"non-finite gradient for {name}; aborting training")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


class PlateauScheduler:
    """Multiply lr by `LR_FACTOR` after `LR_PATIENCE` epochs without strict
    improvement of the monitored accuracy; clamp at `LR_MIN`."""

    def __init__(self, lr_init: float):
        self.current_lr = lr_init
        self.best_metric = -math.inf
        self.epochs_since_improvement = 0

    def update(self, val_oa: float) -> float:
        if val_oa > self.best_metric:
            self.best_metric = val_oa
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement >= LR_PATIENCE:
                self.current_lr = max(self.current_lr * LR_FACTOR, LR_MIN)
                self.epochs_since_improvement = 0
        return self.current_lr


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_oa: float
    val_loss: float
    val_oa: float
    lr: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 until the first epoch completes

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_oa,val_loss,val_oa,lr"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{float(r.train_loss)!r},{float(r.train_oa)!r},"
                f"{float(r.val_loss)!r},{float(r.val_oa)!r},{float(r.lr)!r}"
            )
        return "\n".join(lines) + "\n"

    def save_csv(self, path):
        write_atomic(path, [self.to_csv().encode("utf-8")])


def train_epoch(model, x: Tensor, y, adam_state: AdamState, lr: float, batch_size: int, shuffle_seed):
    """One pass over the data: deterministic shuffle, sequential minibatches
    (final partial batch included), train-mode forward/backward/Adam."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("train_epoch: empty dataset")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(shuffle_seed)))
    order = rng.permutation(n)
    total_loss = 0.0
    correct = 0
    for batch, start in enumerate(range(0, n, batch_size), 1):
        idx = order[start : start + batch_size]
        xb, yb = x[idx], y[idx]
        try:
            probs, caches = model_mod.forward(model, xb, "train")
            loss, dlogits = cross_entropy_with_logit_grad(probs, yb)
            grads, _ = model_mod.backward(model, caches, dlogits)
            adam_step(model.params, grads, adam_state, lr)
        except FloatingPointError as exc:
            raise FloatingPointError(f"batch {batch}: {exc}") from exc
        total_loss += loss * len(idx)
        correct += int(np.sum(np.argmax(probs, axis=1) == yb))
    return total_loss / n, correct / n


def evaluate(model, x: Tensor, y):
    """Infer-mode mean loss and overall accuracy."""
    probs, _ = model_mod.forward(model, x, "infer")
    return cross_entropy(probs, y), int(np.sum(np.argmax(probs, axis=1) == y)) / x.shape[0]


def fit(model, train_set, val_set, cfg: TrainConfig, log=None):
    """Train up to cfg.epochs epochs and restore the best-validation weights.

    train_set/val_set are (images, labels) pairs. Returns (model, history)
    with the model holding the snapshot of the highest validation OA
    (earliest epoch on ties).
    """
    cfg.validate()
    x_train, y_train = train_set
    x_val, y_val = val_set
    if len(x_train) == 0 or len(x_val) == 0:
        raise ValueError("fit: empty train or validation split")
    adam = AdamState(model.params)
    sched = PlateauScheduler(cfg.lr_init)
    history = TrainHistory()
    best_snapshot = None
    for epoch in range(1, cfg.epochs + 1):
        lr = sched.current_lr
        try:
            train_loss, train_oa = train_epoch(
                model, x_train, y_train, adam, lr, cfg.batch_size, shuffle_seed=(cfg.seed, epoch)
            )
        except FloatingPointError as exc:
            # chained to the original error, not to train_epoch's batch-level wrapper
            raise FloatingPointError(f"epoch {epoch}, {exc}") from exc.__cause__
        try:
            val_loss, val_oa = evaluate(model, x_val, y_val)
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}, validation: {exc}") from exc
        history.records.append(EpochRecord(epoch, train_loss, train_oa, val_loss, val_oa, lr))
        if val_oa > sched.best_metric:  # before update, which moves best_metric
            best_snapshot = model.snapshot()
            history.best_epoch = epoch
        sched.update(val_oa)
        if log is not None:
            log(f"epoch {epoch}/{cfg.epochs}: loss {train_loss:.4f} oa {train_oa:.4f} "
                f"| val loss {val_loss:.4f} oa {val_oa:.4f} | lr {lr:g}")
    model.restore(best_snapshot)
    return model, history
