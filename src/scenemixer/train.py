"""Training protocol: cross-entropy, Adam, plateau LR schedule, epoch loop.

`fit` trains for a fixed number of epochs, monitors validation overall
accuracy after each one, multiplies the learning rate by `LR_FACTOR` (0.5)
after `LR_PATIENCE` (10) epochs without strict improvement (never below
`LR_MIN`, 5e-5), and finally restores the weights of the best validation
epoch (earliest on ties). Both the rate and the best epoch are read from
the history's records (`plateau_lr`, `TrainHistory.best_epoch`). Adam's
constants are fixed too: `ADAM_BETA1` 0.9, `ADAM_BETA2` 0.999 and
`ADAM_EPS` 1e-7. Validation is one infer-mode `model.forward` over the
whole split, which bounds its own memory by running the network in chunks.
Train steps and validation run on as many threads as `model.use_threads`
allows. The protocol writes no files.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
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


def plateau_lr(val_oas, lr_init: float) -> float:
    """The learning rate after epochs with validation OAs val_oas: multiplied by
    `LR_FACTOR` after each `LR_PATIENCE` epochs without strict improvement of
    the best OA so far, and clamped at `LR_MIN`."""
    lr, best, stale = lr_init, -math.inf, 0
    for val_oa in val_oas:
        if val_oa > best:
            best, stale = val_oa, 0
        else:
            stale += 1
            if stale >= LR_PATIENCE:
                lr, stale = max(lr * LR_FACTOR, LR_MIN), 0
    return lr


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

    @property
    def best_epoch(self) -> int:
        """The epoch of the highest val_oa, the earliest on ties; 0 before the first record."""
        return max(self.records, key=lambda r: r.val_oa).epoch if self.records else 0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_oa,val_loss,val_oa,lr"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{float(r.train_loss)!r},{float(r.train_oa)!r},"
                f"{float(r.val_loss)!r},{float(r.val_oa)!r},{float(r.lr)!r}"
            )
        return "\n".join(lines) + "\n"


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
            grads = model_mod.backward(model, caches, dlogits)
            adam_step(model.params, grads, adam_state, lr)
            # free this step's caches (52 MiB at the bench config and batch 32) before
            # the next forward, so that the process holds one step's, not two
            del caches, grads
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
    n, tokens = len(x_train), model.config.tokens
    smallest = n % cfg.batch_size or cfg.batch_size  # the smallest batch `train_epoch` forms
    if tokens * smallest < 2:  # batch norm's train-mode variance needs two elements per channel
        raise ValueError(f"fit: batch size {cfg.batch_size} on a train split of {n} forms a batch of {smallest} "
                         f"image(s) x {tokens} token(s) per image, fewer than the 2 elements per channel "
                         "that batch norm needs")
    adam = AdamState(model.params)
    history = TrainHistory()
    best_snapshot = None
    for epoch in range(1, cfg.epochs + 1):
        lr = plateau_lr([r.val_oa for r in history.records], cfg.lr_init)
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
        if history.best_epoch == epoch:
            best_snapshot = model.snapshot()
        if log is not None:
            log(f"epoch {epoch}/{cfg.epochs}: loss {train_loss:.4f} oa {train_oa:.4f} "
                f"| val loss {val_loss:.4f} oa {val_oa:.4f} | lr {lr:g}")
    model.restore(best_snapshot)
    return model, history
