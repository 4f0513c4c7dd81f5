"""Mini-batch Adam training with an optional FedProx proximal term.

train_local (fixed epochs) and train_with_early_stopping (validation scored
every epoch, patience rule, best-epoch weights) share one epoch loop. One
epoch = one seeded shuffle + sequential batches of spec.batch_size (the
last batch keeps the remainder). Local step counts follow
tau = epochs * ceil(n / batch_size), so an Adam state's step count fixes
the epoch a call resumes at. The shuffle stream for epoch e is derived from
SeedSequence([seed, e]), so epoch e of a long run and round e of a
one-epoch-per-round federated run draw identical permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fedcast.dataio import WindowedDataset
from fedcast.nn.models import (
    ModelSpec, check_layout, forward_graph, leaf_tensors, predict,
)
from fedcast.nn import engine as eg
from fedcast.nn.params import ParameterVector


# Adam's moment decays and denominator epsilon (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or validation score."""


@dataclass(frozen=True)
class AdamState:
    """First/second moments plus the bias-correction step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def zeros(size: int) -> "AdamState":
        return AdamState(np.zeros(size, dtype=np.float64),
                         np.zeros(size, dtype=np.float64))


def adam_step(
    state: AdamState, values: np.ndarray, grad: np.ndarray, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update: theta -= lr * m_hat / (sqrt(v_hat) + eps).

    state.m and state.v are updated in place and returned in the new state,
    so the state passed in is spent; values is not touched. Two temporaries
    run the textbook form's operations in its order, so the bits match it.
    """
    if grad.shape != values.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameters {values.shape}"
        )
    t = state.step + 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    step = np.multiply(grad, 1.0 - ADAM_BETA1)
    m += step
    np.multiply(grad, grad, out=step)
    step *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += step
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)  # m_hat
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= lr
    step /= denom
    return np.subtract(values, step, out=denom), AdamState(m, v, t)


def keep_best(best: tuple, candidate: tuple) -> tuple:
    """The better of the best (MSE, index, weights) so far and a later one.

    Epochs and rounds both pick their best by this rule: only a strictly
    lower validation MSE replaces the best, so a tie keeps the earliest.
    Neither loop writes weights after making them, so the weights are kept
    by reference.
    """
    return candidate if candidate[0] < best[0] else best


def loss_and_grad(
    spec: ModelSpec,
    params: ParameterVector,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """MSE loss and its flat gradient for one batch.

    Every weight feeds the prediction, so the flat gradient is the leaves'
    gradients joined in layout order.
    """
    check_layout(spec, params)
    leaves = leaf_tensors(params)
    loss = eg.mse(forward_graph(spec, leaves, inputs), targets)
    loss.backward()
    return float(loss.data), np.concatenate([t.grad for t in leaves], axis=None)


def evaluate(
    spec: ModelSpec,
    params: ParameterVector,
    windows: WindowedDataset,
) -> tuple[float, float]:
    """(MSE, MAE) over all target elements, in the windows' own units.

    Scores predict's output, which gathers the windows one training batch
    (spec.batch_size) at a time, so memory stays bounded by one batch.
    """
    if windows.count == 0:
        raise ValueError("cannot evaluate on zero windows")
    pred = predict(spec, params, windows)
    err = pred - windows.targets
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


@dataclass(frozen=True)
class TrainReport:
    """Everything one training call produced.

    params is the call's result (best-validation weights for early stopping,
    final weights otherwise); state lets a caller continue the same
    trajectory.
    """

    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    val_maes: tuple[float, ...]
    steps: int
    best_epoch: Optional[int]
    params: ParameterVector
    state: AdamState


def _train(
    spec: ModelSpec,
    params: ParameterVector,
    train: WindowedDataset,
    epochs: int,
    *,
    seed: int,
    proximal_mu: float = 0.0,
    state: Optional[AdamState] = None,
    validation: Optional[WindowedDataset] = None,
    patience: Optional[int] = None,
) -> TrainReport:
    """The one epoch loop behind train_local and train_with_early_stopping.

    The proximal term anchors to the weights the call starts from. With
    validation windows, every epoch is scored on them and the weights of the
    best epoch (the first to reach the lowest MSE) are kept; the loop ends
    once patience epochs have passed since it. An epoch whose training loss
    or validation MSE is not finite raises DivergenceError.
    """
    if epochs > 0 and train.count == 0:
        raise ValueError("cannot train on zero windows")
    layout = params.layout
    values = params.values.copy()
    best = (math.inf, None, values)
    state = state if state is not None else AdamState.zeros(layout.size)
    per_epoch = max(1, math.ceil(train.count / spec.batch_size))
    first_epoch, partial = divmod(state.step, per_epoch)
    if partial:
        raise ValueError(f"state.step {state.step} is not a whole number of "
                         f"{per_epoch}-step epochs")
    train_losses: list[float] = []
    val_losses: list[float] = []
    val_maes: list[float] = []
    total_steps = 0
    for e in range(epochs):
        perm = np.random.default_rng([seed, first_epoch + e]).permutation(train.count)
        epoch_loss = 0.0
        for lo in range(0, train.count, spec.batch_size):
            idx = perm[lo : lo + spec.batch_size]
            loss, grad = loss_and_grad(spec, ParameterVector(values, layout),
                                       *train.batch(idx))
            if proximal_mu > 0.0:
                # FedProx anchor: mu/2 * ||w - w_anchor||^2 added to every
                # batch objective. Skipped entirely at mu == 0 so FedProx(0)
                # stays bit-identical to plain training.
                diff = values - params.values
                loss += 0.5 * proximal_mu * float(diff @ diff)
                grad += proximal_mu * diff
            values, state = adam_step(state, values, grad, spec.learning_rate)
            epoch_loss += loss * len(idx)
            total_steps += 1
        epoch_loss /= train.count
        if not math.isfinite(epoch_loss):
            raise DivergenceError(
                f"epoch {first_epoch + e}: training loss is {epoch_loss}"
            )
        train_losses.append(epoch_loss)
        if validation is not None:
            mse, mae = evaluate(spec, ParameterVector(values, layout), validation)
            if not math.isfinite(mse):
                raise DivergenceError(
                    f"epoch {first_epoch + e}: validation MSE is {mse}"
                )
            val_losses.append(mse)
            val_maes.append(mae)
            best = keep_best(best, (mse, e, values))
            if e - best[1] >= patience:
                break
    return TrainReport(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        val_maes=tuple(val_maes),
        steps=total_steps,
        best_epoch=best[1],
        params=ParameterVector(best[2] if validation is not None else values,
                               layout),
        state=state,
    )


def train_local(
    spec: ModelSpec,
    params: ParameterVector,
    train: WindowedDataset,
    epochs: int = 1,
    *,
    seed: int = 0,
    proximal_mu: float = 0.0,
    state: Optional[AdamState] = None,
) -> TrainReport:
    """Run a fixed number of epochs; returns the final weights.

    epochs == 0 returns the input parameters untouched with zero steps.
    proximal_mu > 0 pulls every step toward params (FedProx). state
    continues an earlier run on the same windows at the epoch its step count
    reaches, as one uninterrupted run would.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if proximal_mu < 0:
        raise ValueError("proximal_mu must be >= 0")
    return _train(
        spec, params, train, epochs, seed=seed, proximal_mu=proximal_mu,
        state=state,
    )


def train_with_early_stopping(
    spec: ModelSpec,
    params: ParameterVector,
    train: WindowedDataset,
    validation: WindowedDataset,
    max_epochs: int,
    patience: int,
    *,
    seed: int = 0,
) -> TrainReport:
    """Train until validation MSE stops improving for `patience` epochs.

    Returns the best-validation-epoch weights in .params. Only a strictly
    lower MSE counts as an improvement: a constant tail after a best at epoch
    b stops at epoch b + patience. Strictly improving validation loss runs
    the full max_epochs.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if validation is None or validation.count == 0:
        raise ValueError("early stopping requires non-empty validation windows")
    return _train(
        spec, params, train, max_epochs, seed=seed, validation=validation,
        patience=patience,
    )
