import dataclasses

import numpy as np
import pytest

from fedcast.dataio import WindowedDataset
from fedcast.nn.models import ModelSpec, init_model, layout_for
from fedcast.nn.params import ParameterVector, zeros_like
from fedcast.nn.training import (
    AdamState,
    EarlyStopper,
    _epoch_rng,
    adam_step,
    evaluate,
    loss_and_grad,
    train_local,
    train_with_early_stopping,
)
from helpers import random_windows


SMALL = ModelSpec(architecture="mlp", hidden_sizes=(8,), batch_size=16)


# ------------------------------------------------------------------------ adam

def test_adam_zero_gradient_keeps_params():
    out, state = adam_step(AdamState.zeros(1), np.array([3.0]), np.zeros(1), 0.001)
    assert out[0] == 3.0
    assert state.step == 1


def test_adam_single_step_hand_oracle():
    # g=1, lr=0.001, fresh state: m_hat = v_hat = 1, so the update is
    # -0.001 / (1 + 1e-8)
    out, _ = adam_step(AdamState.zeros(1), np.zeros(1), np.ones(1), 0.001)
    assert out[0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-18)
    assert out[0] == pytest.approx(-0.001, abs=1e-8)


def test_adam_two_steps_match_scripted_recurrence():
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    g = np.array([0.3, -2.0, 0.0])
    state = AdamState.zeros(3)
    got = np.array([1.0, -1.0, 0.5])
    for _ in range(2):
        got, state = adam_step(state, got, g, lr)

    theta = np.array([1.0, -1.0, 0.5])
    m = np.zeros(3)
    v = np.zeros(3)
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.array_equal(got, theta)
    assert state.step == 2


def test_adam_step_rejects_layout_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState.zeros(1), np.zeros(1), np.zeros(2), 0.001)


# --------------------------------------------------------------- loss gradient

def test_zero_gradient_at_loss_minimum():
    spec = SMALL
    pv = zeros_like(layout_for(spec))
    x = np.random.Generator(np.random.PCG64(0)).uniform(0, 1, (4, 10, 11))
    loss, grad = loss_and_grad(spec, pv, x, np.zeros((4, 5)))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_evaluate_matches_direct_metrics():
    spec = SMALL
    pv = init_model(spec, 2)
    w = random_windows(30, seed=4)
    mse, mae = evaluate(spec, pv, w)
    from fedcast.nn.models import predict

    pred = predict(spec, pv, w.inputs)
    assert mse == pytest.approx(np.mean((pred - w.targets) ** 2), rel=1e-12)
    assert mae == pytest.approx(np.mean(np.abs(pred - w.targets)), rel=1e-12)
    with pytest.raises(ValueError):
        evaluate(spec, pv, random_windows(0))


# ----------------------------------------------------------------- train_local

def test_train_local_zero_epochs_is_identity():
    pv = init_model(SMALL, 1)
    report = train_local(SMALL, pv, random_windows(20, seed=1), epochs=0)
    assert np.array_equal(report.params.values, pv.values)
    assert report.steps == 0
    assert report.train_losses == ()


def test_train_local_step_count_formula():
    w = random_windows(300, seed=2)
    spec = dataclasses.replace(SMALL, batch_size=128)
    report = train_local(spec, init_model(spec, 0), w, epochs=3, seed=5)
    assert report.steps == 9  # 3 * ceil(300 / 128)


def test_train_local_deterministic():
    w = random_windows(50, seed=3)
    a = train_local(SMALL, init_model(SMALL, 0), w, epochs=2, seed=9)
    b = train_local(SMALL, init_model(SMALL, 0), w, epochs=2, seed=9)
    assert np.array_equal(a.params.values, b.params.values)
    assert a.train_losses == b.train_losses


def test_train_local_learns_learnable_instance():
    w = random_windows(200, seed=6)
    pv = init_model(SMALL, 4)
    report = train_local(SMALL, pv, w, epochs=50, seed=0)
    assert report.train_losses[-1] < report.train_losses[0]


def test_train_local_continuation_matches_uninterrupted_run():
    # 60 windows at batch 16: four steps per epoch, the last one short; the
    # state's step count alone tells the second call to resume at epoch 2
    w = random_windows(60, seed=7)
    pv = init_model(SMALL, 5)
    full = train_local(SMALL, pv, w, epochs=4, seed=11)
    first = train_local(SMALL, pv, w, epochs=2, seed=11)
    assert first.state.step == 8
    second = train_local(SMALL, first.params, w, epochs=2, seed=11,
                         state=first.state)
    assert np.array_equal(second.params.values, full.params.values)
    assert first.train_losses + second.train_losses == full.train_losses


def test_train_local_rejects_state_mid_epoch():
    w = random_windows(60, seed=7)
    pv = init_model(SMALL, 5)
    state = train_local(SMALL, pv, w, epochs=2, seed=11).state  # 8 steps
    with pytest.raises(ValueError, match="whole number"):
        # 45 windows take three steps per epoch, and 8 is not a multiple
        train_local(SMALL, pv, random_windows(45, seed=7), seed=11, state=state)
    with pytest.raises(ValueError, match="whole number"):
        train_local(SMALL, pv, w, seed=11,
                    state=dataclasses.replace(state, step=3))


def test_train_local_mu_zero_bitwise_identical_to_plain():
    w = random_windows(40, seed=8)
    pv = init_model(SMALL, 6)
    plain = train_local(SMALL, pv, w, epochs=3, seed=2)
    prox0 = train_local(SMALL, pv, w, epochs=3, seed=2, proximal_mu=0.0)
    assert np.array_equal(plain.params.values, prox0.params.values)


def test_train_local_proximal_term_composition():
    # one epoch, two batches, anchored to the start weights: the first step's
    # pull is zero and the second's is not. Each update must equal a manual
    # Adam step on mse-gradient + proximal gradient over the same batch.
    w = random_windows(12, seed=9)
    pv = init_model(SMALL, 7)
    spec = dataclasses.replace(SMALL, batch_size=6)
    mu = 0.5
    report = train_local(spec, pv, w, epochs=1, seed=13, proximal_mu=mu)

    idx = _epoch_rng(13, 0).permutation(w.count)
    values, state = pv.values, AdamState.zeros(pv.size)
    weighted_loss = 0.0
    pulls = []
    for batch in (idx[:6], idx[6:]):
        base_loss, grad = loss_and_grad(
            spec, ParameterVector(values, pv.layout), w.inputs[batch],
            w.targets[batch],
        )
        d = values - pv.values
        pulls.append(float(d @ d))
        prox_loss, prox_grad = 0.5 * mu * float(d @ d), mu * d
        values, state = adam_step(state, values, grad + prox_grad,
                                  spec.learning_rate)
        weighted_loss += (base_loss + prox_loss) * len(batch)
    assert pulls[0] == 0.0 and pulls[1] > 0.0
    assert np.array_equal(report.params.values, values)
    assert report.train_losses[0] == pytest.approx(weighted_loss / 12, rel=1e-12)


def test_train_local_validates_arguments():
    w = random_windows(10, seed=1)
    pv = init_model(SMALL, 0)
    with pytest.raises(ValueError):
        train_local(SMALL, pv, w, epochs=-1)
    with pytest.raises(ValueError):
        train_local(SMALL, pv, w, epochs=1, proximal_mu=-1.0)
    with pytest.raises(ValueError):
        train_local(SMALL, pv, random_windows(0), epochs=1)


# -------------------------------------------------------------- early stopping

def test_early_stopper_scripted_schedule():
    # improving through epoch 3, constant after; patience 5 stops at epoch 8
    stopper = EarlyStopper(5)
    schedule = [5.0, 4.0, 3.0, 2.0] + [2.0] * 10
    stopped_at = None
    for i, v in enumerate(schedule):
        if stopper.update(v):
            stopped_at = i
            break
    assert stopped_at == 8
    assert stopper.best_epoch == 3


def test_early_stopper_strictly_improving_never_stops():
    stopper = EarlyStopper(3)
    assert all(not stopper.update(v) for v in np.linspace(10, 1, 50))
    with pytest.raises(ValueError):
        EarlyStopper(0)


def test_early_stopping_returns_best_epoch_params():
    train = random_windows(80, seed=10)
    val = random_windows(30, seed=11)
    pv = init_model(SMALL, 9)
    report = train_with_early_stopping(SMALL, pv, train, val,
                                       max_epochs=12, patience=3, seed=4)
    assert report.best_epoch == int(np.argmin(report.val_losses))
    # replaying exactly best_epoch + 1 epochs lands on the stored weights
    replay = train_local(SMALL, pv, train, epochs=report.best_epoch + 1, seed=4)
    assert np.array_equal(report.params.values, replay.params.values)
    # and the run stopped once the streak hit patience (or used all epochs)
    ran = len(report.val_losses)
    assert ran == 12 or ran == report.best_epoch + 3 + 1


def test_early_stopping_stops_before_max_epochs():
    # training pulls every prediction toward +5 while validation wants -5,
    # so validation MSE rises after the first epoch: patience 2 stops the
    # run after its third of 20 epochs and keeps the first epoch's weights
    train = random_windows(40, seed=14)
    train = WindowedDataset(train.inputs, np.full_like(train.targets, 5.0))
    val = WindowedDataset(train.inputs[:10], np.full((10, 5), -5.0))
    pv = init_model(SMALL, 3)
    report = train_with_early_stopping(SMALL, pv, train, val, max_epochs=20,
                                       patience=2, seed=6)
    assert len(report.train_losses) == len(report.val_losses) == 3
    assert np.all(np.diff(report.val_losses) > 0)
    assert report.best_epoch == 0
    replay = train_local(SMALL, pv, train, epochs=1, seed=6)
    assert np.array_equal(report.params.values, replay.params.values)


def test_early_stopping_accepts_reference_budget():
    # 270 epochs / patience 50 is the reference configuration; a tiny run
    # exercises acceptance of those arguments without the full cost
    train = random_windows(16, seed=12)
    val = random_windows(8, seed=13)
    tiny = ModelSpec(architecture="mlp", hidden_sizes=(2,), batch_size=16)
    report = train_with_early_stopping(tiny, init_model(tiny, 0), train, val,
                                       max_epochs=270, patience=50, seed=1)
    assert len(report.train_losses) <= 270
    assert report.best_epoch is not None


def test_early_stopping_validates_arguments():
    train = random_windows(10, seed=1)
    pv = init_model(SMALL, 0)
    with pytest.raises(ValueError):
        train_with_early_stopping(SMALL, pv, train, random_windows(0),
                                  max_epochs=5, patience=2)
    with pytest.raises(ValueError):
        train_with_early_stopping(SMALL, pv, train, train, max_epochs=0,
                                  patience=2)
