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
from fedcast.nn.models import ModelSpec, forward_graph, leaf_tensors, predict
from fedcast.nn import engine as eg
from fedcast.nn.engine import Tensor
from fedcast.nn.params import Layout, ParameterVector


# Adam's moment decays and denominator epsilon (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """One bias-corrected Adam update: theta -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if grad.shape != values.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameters {values.shape}"
        )
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_values = values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_values, AdamState(m, v, t)


def loss_and_grad(
    spec: ModelSpec,
    params: ParameterVector,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """MSE loss and its flat gradient for one batch."""
    leaves = leaf_tensors(params)
    pred = forward_graph(spec, leaves, inputs)
    loss = eg.mean_all(eg.square(eg.sub(pred, Tensor(np.asarray(targets,
                                                                dtype=np.float64)))))
    loss.backward()
    layout = params.layout
    flat = np.zeros(layout.size, dtype=np.float64)
    for t in layout.tensors:
        g = leaves[t.name].grad
        if g is not None:
            lo, hi, _ = layout.offsets[t.name]
            flat[lo:hi] = g.ravel()
    return float(loss.data), flat


def evaluate(
    spec: ModelSpec,
    params: ParameterVector,
    windows: WindowedDataset,
) -> tuple[float, float]:
    """(MSE, MAE) over all target elements, in the windows' own units.

    Scores predict's output, so memory stays bounded by its chunk.
    """
    if windows.count == 0:
        raise ValueError("cannot evaluate on zero windows")
    pred = predict(spec, params, windows.inputs)
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


class EarlyStopper:
    """Strict-improvement patience rule.

    update(value) returns True once the streak of non-improving epochs
    reaches patience. A constant tail after a best at epoch index b stops
    at index b + patience (inclusive), and best_epoch stays b.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best = math.inf
        self.best_epoch: Optional[int] = None
        self.streak = 0
        self._count = 0

    def update(self, value: float) -> bool:
        if value < self.best:
            self.best = value
            self.best_epoch = self._count
            self.streak = 0
        else:
            self.streak += 1
        self._count += 1
        return self.streak >= self.patience


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))


def _run_epoch(
    spec: ModelSpec,
    layout: Layout,
    values: np.ndarray,
    state: AdamState,
    train: WindowedDataset,
    rng: np.random.Generator,
    proximal_mu: float,
    anchor: np.ndarray,
) -> tuple[np.ndarray, AdamState, float, int]:
    n = train.count
    perm = rng.permutation(n)
    weighted_loss = 0.0
    steps = 0
    for lo in range(0, n, spec.batch_size):
        idx = perm[lo : lo + spec.batch_size]
        pv = ParameterVector(values, layout)
        loss, grad = loss_and_grad(spec, pv, train.inputs[idx], train.targets[idx])
        if proximal_mu > 0.0:
            # FedProx anchor: mu/2 * ||w - w_anchor||^2 added to every batch
            # objective. Skipped entirely at mu == 0 so FedProx(0) stays
            # bit-identical to plain training.
            diff = values - anchor
            loss += 0.5 * proximal_mu * float(diff @ diff)
            grad += proximal_mu * diff
        values, state = adam_step(state, values, grad, spec.learning_rate)
        weighted_loss += loss * len(idx)
        steps += 1
    return values, state, weighted_loss / n, steps


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
    stopper: Optional[EarlyStopper] = None,
) -> TrainReport:
    """The one epoch loop behind train_local and train_with_early_stopping.

    The proximal term anchors to the weights the call starts from. With a
    stopper, every epoch is scored on validation, the best-epoch weights are
    kept, and the loop ends once the stopper says so.
    """
    if epochs > 0 and train.count == 0:
        raise ValueError("cannot train on zero windows")
    layout = params.layout
    values = params.values.copy()
    best_values = values
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
        rng = _epoch_rng(seed, first_epoch + e)
        values, state, epoch_loss, steps = _run_epoch(
            spec, layout, values, state, train, rng, proximal_mu, params.values
        )
        total_steps += steps
        train_losses.append(epoch_loss)
        if stopper is not None:
            mse, mae = evaluate(spec, ParameterVector(values, layout), validation)
            val_losses.append(mse)
            val_maes.append(mae)
            if stopper.best_epoch is None or mse < stopper.best:
                best_values = values.copy()
            if stopper.update(mse):
                break
    return TrainReport(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        val_maes=tuple(val_maes),
        steps=total_steps,
        best_epoch=stopper.best_epoch if stopper is not None else None,
        params=ParameterVector(best_values if stopper is not None else values,
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

    Returns the best-validation-epoch weights in .params. Strictly improving
    validation loss runs the full max_epochs.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if validation is None or validation.count == 0:
        raise ValueError("early stopping requires non-empty validation windows")
    return _train(
        spec, params, train, max_epochs, seed=seed, validation=validation,
        stopper=EarlyStopper(patience),
    )
