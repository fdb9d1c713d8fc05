import math

import numpy as np
import pytest

from scenemixer import model as sm
from scenemixer import train as tr
from scenemixer.numerics import finite_diff_grad

from conftest import max_rel_err

TINY = sm.ModelConfig(input_h=4, input_w=4, input_c=1, patch=2, embed_dim=2,
                      depth=1, kernels=(3, 5), num_classes=2)


# ---------------------------------------------------------------------------
# cross-entropy

def test_ce_uniform_is_log_c():
    probs = np.full((3, 10), 0.1)
    assert abs(tr.cross_entropy(probs, [0, 5, 9]) - math.log(10)) < 1e-12


def test_ce_perfect_prediction_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert tr.cross_entropy(probs, [0, 1]) == 0.0


def test_ce_clamps_zero_probability():
    probs = np.array([[0.0, 1.0]])
    assert abs(tr.cross_entropy(probs, [0]) - (-math.log(1e-12))) < 1e-9


def test_ce_rejects_bad_labels():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError):
        tr.cross_entropy(probs, [0, 3])
    with pytest.raises(ValueError):
        tr.cross_entropy(probs, [-1, 0])


def test_ce_logit_grad_matches_finite_differences(rng):
    from scenemixer import layers

    labels = np.array([2, 0, 1])
    logits = rng.standard_normal((3, 4))
    probs = layers.softmax_forward(logits)[0]
    _, grad = tr.cross_entropy_with_logit_grad(probs, labels)

    def loss_of_logits(z):
        return tr.cross_entropy(layers.softmax_forward(z)[0], labels)

    numeric = finite_diff_grad(loss_of_logits, logits, 1e-5)
    assert max_rel_err(grad, numeric) < 1e-5


# ---------------------------------------------------------------------------
# Adam

def _single_param(value):
    return {"w": np.array([value], dtype=np.float64)}


def test_adam_first_step_hand_value():
    params = _single_param(1.0)
    state = tr.AdamState(params)
    tr.adam_step(params, {"w": np.array([0.5])}, state, lr=1e-3)
    # bias-corrected m-hat=0.5, v-hat=0.25 -> update = lr*0.5/(0.5+eps)
    assert abs(params["w"][0] - 0.9990) < 1e-6
    assert state.t == 1


def test_adam_zero_grad_keeps_params():
    params = _single_param(2.5)
    state = tr.AdamState(params)
    tr.adam_step(params, {"w": np.zeros(1)}, state, lr=1e-3)
    assert params["w"][0] == 2.5
    assert state.t == 1


def test_adam_equal_grads_equal_updates(rng):
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    state = tr.AdamState(params)
    g = rng.standard_normal(1)
    for _ in range(5):
        tr.adam_step(params, {"a": g.copy(), "b": g.copy()}, state, lr=1e-2)
    assert params["a"][0] == params["b"][0]


def test_adam_lr_zero_is_identity(rng):
    params = {"w": rng.standard_normal(7)}
    before = params["w"].copy()
    state = tr.AdamState(params)
    tr.adam_step(params, {"w": rng.standard_normal(7)}, state, lr=0.0)
    assert np.array_equal(params["w"], before)
    assert state.t == 1


def test_adam_rejects_nonfinite_grad():
    params = _single_param(1.0)
    state = tr.AdamState(params)
    with pytest.raises(FloatingPointError):
        tr.adam_step(params, {"w": np.array([np.nan])}, state, lr=1e-3)


# ---------------------------------------------------------------------------
# plateau scheduler

def test_scheduler_halves_after_stagnation():
    sched = tr.PlateauScheduler(1e-3, 10)
    lrs = [sched.update(0.5) for _ in range(11)]
    assert lrs[:10] == [1e-3] * 10
    assert lrs[10] == 5e-4


def test_scheduler_never_cuts_while_improving():
    sched = tr.PlateauScheduler(1e-3, 10)
    for epoch in range(100):
        assert sched.update(epoch / 100.0) == 1e-3


def test_scheduler_clamps_at_floor():
    sched = tr.PlateauScheduler(1e-3, 10)
    seen = []
    sched.update(0.9)  # sets the best
    for _ in range(200):
        seen.append(sched.update(0.9))
    distinct = sorted(set(seen), reverse=True)
    assert distinct == [1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 5e-5]
    assert seen[-1] == 5e-5


def test_scheduler_lr_monotone_nonincreasing(rng):
    sched = tr.PlateauScheduler(1e-3, 3)
    prev = sched.current_lr
    for _ in range(60):
        lr = sched.update(float(rng.random()))
        assert lr <= prev
        assert 5e-5 <= lr <= 1e-3
        prev = lr


# ---------------------------------------------------------------------------
# epoch loop and fit

def _toy_dataset(rng, n_per_class, cfg=TINY):
    """Linearly separable: class 0 dark images, class 1 bright images."""
    xs, ys = [], []
    for cls, level in enumerate((0.2, 0.8)):
        base = rng.normal(level, 0.05, size=(n_per_class, cfg.input_h, cfg.input_w, cfg.input_c))
        xs.append(np.clip(base, 0, 1).astype(np.float32))
        ys.append(np.full(n_per_class, cls, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


def test_train_epoch_batch_count(rng):
    x, y = _toy_dataset(rng, 5)  # 10 samples
    net = sm.build(TINY, seed=0)
    state = tr.AdamState(net.params)
    tr.train_epoch(net, x, y, state, 1e-3, batch_size=32, shuffle_seed=(0, 1))
    assert state.t == 1  # one partial batch of 10

    x, y = _toy_dataset(rng, 32)  # 64 samples
    state = tr.AdamState(net.params)
    tr.train_epoch(net, x, y, state, 1e-3, batch_size=32, shuffle_seed=(0, 1))
    assert state.t == 2


def test_train_epoch_deterministic(rng):
    x, y = _toy_dataset(rng, 8)
    stats = []
    for _ in range(2):
        net = sm.build(TINY, seed=3)
        state = tr.AdamState(net.params)
        stats.append(tr.train_epoch(net, x, y, state, 1e-3, 4, shuffle_seed=(7, 1)))
    assert stats[0] == stats[1]


def test_fit_single_epoch_history(rng):
    x, y = _toy_dataset(rng, 6)
    net = sm.build(TINY, seed=0)
    _, history = tr.fit(net, (x, y), (x, y), tr.TrainConfig(epochs=1, batch_size=4, seed=0))
    assert len(history.records) == 1
    assert history.best_epoch == 1


def test_fit_returns_best_snapshot(rng):
    x, y = _toy_dataset(rng, 12)
    xv, yv = _toy_dataset(rng, 6)
    net = sm.build(TINY, seed=1)
    net, history = tr.fit(net, (x, y), (xv, yv), tr.TrainConfig(epochs=6, batch_size=4, seed=1))
    best = max(r.val_oa for r in history.records)
    assert history.records[history.best_epoch - 1].val_oa == best
    # earliest epoch on ties
    first_best = next(r.epoch for r in history.records if r.val_oa == best)
    assert history.best_epoch == first_best
    # the restored model reproduces the recorded best validation accuracy
    _, oa = tr.evaluate(net, xv, yv)
    assert oa == best


def test_fit_learns_separable_data(rng):
    x, y = _toy_dataset(rng, 16)
    xv, yv = _toy_dataset(rng, 8)
    net = sm.build(TINY, seed=2)
    net, history = tr.fit(net, (x, y), (xv, yv), tr.TrainConfig(epochs=12, batch_size=8, seed=2))
    assert max(r.val_oa for r in history.records) >= 0.9
    _, oa = tr.evaluate(net, xv, yv)
    assert oa >= 0.9  # restored best snapshot, not the last epoch


def test_fit_full_determinism(rng):
    x, y = _toy_dataset(rng, 10)
    xv, yv = _toy_dataset(rng, 5)
    csvs = []
    for _ in range(2):
        net = sm.build(TINY, seed=5)
        _, history = tr.fit(net, (x, y), (xv, yv), tr.TrainConfig(epochs=4, batch_size=8, seed=5))
        csvs.append(history.to_csv())
    assert csvs[0] == csvs[1]


def test_fit_lr_column_obeys_bounds(rng):
    x, y = _toy_dataset(rng, 6)
    net = sm.build(TINY, seed=0)
    cfg = tr.TrainConfig(epochs=10, batch_size=8, seed=0, lr_patience=2)
    _, history = tr.fit(net, (x, y), (x, y), cfg)
    lrs = [r.lr for r in history.records]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert all(tr.LR_MIN <= lr <= cfg.lr_init for lr in lrs)


def test_history_csv_format(rng):
    x, y = _toy_dataset(rng, 4)
    net = sm.build(TINY, seed=0)
    _, history = tr.fit(net, (x, y), (x, y), tr.TrainConfig(epochs=2, batch_size=4, seed=0))
    lines = history.to_csv().strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_oa,val_loss,val_oa,lr"
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    assert "," in lines[1] and ";" not in lines[1]


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(lr_init=tr.LR_MIN / 2).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(lr_patience=0).validate()
