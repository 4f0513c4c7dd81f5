"""Mini-batch Adam training with optional proximal anchoring.

train_local (fixed epochs) and train_with_early_stopping (validation scored
every epoch, patience rule, best-epoch weights) share one epoch loop. One
epoch = one seeded shuffle + sequential batches of spec.batch_size (the
last batch keeps the remainder). The shuffle stream for epoch e is derived
from SeedSequence([seed, e]), so epoch e of a long run and round e of a
one-epoch-per-round federated run draw identical permutations. Local step
counts follow tau = epochs * ceil(n / batch_size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from fedcast.dataio import WindowedDataset
from fedcast.nn.models import ModelSpec, forward_graph, leaf_tensors, predict
from fedcast.nn import engine as eg
from fedcast.nn.engine import Tensor
from fedcast.nn.params import Layout, ParameterVector


@dataclass(frozen=True)
class AdamState:
    """First/second moments plus the bias-correction step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * (grad * grad)
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_values = values - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_values, AdamState(m, v, t, state.beta1, state.beta2, state.eps)


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
    chunk_size: int = 512,
) -> tuple[float, float]:
    """(MSE, MAE) over all target elements, in the windows' own units."""
    if windows.count == 0:
        raise ValueError("cannot evaluate on zero windows")
    pred = predict(spec, params, windows.inputs, chunk_size)
    err = pred - windows.targets
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


@dataclass(frozen=True)
class TrainReport:
    """Everything one training call produced.

    params is the call's result (best-validation weights for early stopping,
    final weights otherwise); final_params always holds the last-step
    weights. state/next_epoch let a caller continue the same trajectory.
    """

    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    val_maes: tuple[float, ...]
    steps: int
    best_epoch: Optional[int]
    params: ParameterVector
    final_params: ParameterVector
    state: AdamState
    next_epoch: int


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
    proximal_anchor: Optional[np.ndarray],
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
            diff = values - proximal_anchor
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
    anchor: Optional[np.ndarray] = None,
    state: Optional[AdamState] = None,
    epoch_offset: int = 0,
    validation: Optional[WindowedDataset] = None,
    stopper: Optional[EarlyStopper] = None,
) -> TrainReport:
    """The one epoch loop behind train_local and train_with_early_stopping.

    With a stopper, every epoch is scored on validation, the best-epoch
    weights are kept, and the loop ends once the stopper says so.
    """
    if epochs > 0 and train.count == 0:
        raise ValueError("cannot train on zero windows")
    layout = params.layout
    values = params.values.copy()
    best_values = values
    state = state if state is not None else AdamState.zeros(layout.size)
    train_losses: list[float] = []
    val_losses: list[float] = []
    val_maes: list[float] = []
    total_steps = 0
    for e in range(epochs):
        rng = _epoch_rng(seed, epoch_offset + e)
        values, state, epoch_loss, steps = _run_epoch(
            spec, layout, values, state, train, rng, proximal_mu, anchor
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
    final = ParameterVector(values, layout)
    return TrainReport(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        val_maes=tuple(val_maes),
        steps=total_steps,
        best_epoch=stopper.best_epoch if stopper is not None else None,
        params=ParameterVector(best_values, layout) if stopper is not None else final,
        final_params=final,
        state=state,
        next_epoch=epoch_offset + len(train_losses),
    )


def train_local(
    spec: ModelSpec,
    params: ParameterVector,
    train: WindowedDataset,
    epochs: int = 1,
    *,
    seed: int = 0,
    proximal_mu: float = 0.0,
    proximal_anchor: Optional[np.ndarray] = None,
    state: Optional[AdamState] = None,
    epoch_offset: int = 0,
) -> TrainReport:
    """Run a fixed number of epochs; returns the final weights.

    epochs == 0 returns the input parameters untouched with zero steps.
    state/epoch_offset continue an earlier trajectory (same shuffle streams
    and optimizer moments as one uninterrupted run).
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if proximal_mu < 0:
        raise ValueError("proximal_mu must be >= 0")
    anchor = None
    if proximal_mu > 0.0:
        if proximal_anchor is None:
            raise ValueError("proximal_mu > 0 requires an anchor")
        anchor = np.asarray(proximal_anchor, dtype=np.float64)
        if anchor.shape != params.values.shape:
            raise ValueError("anchor shape differs from parameter shape")
    return _train(
        spec, params, train, epochs, seed=seed, proximal_mu=proximal_mu,
        anchor=anchor, state=state, epoch_offset=epoch_offset,
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

    Returns the best-validation-epoch weights in .params (the last-epoch
    weights stay available in .final_params). Strictly improving validation
    loss runs the full max_epochs.
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if validation is None or validation.count == 0:
        raise ValueError("early stopping requires non-empty validation windows")
    return _train(
        spec, params, train, max_epochs, seed=seed, validation=validation,
        stopper=EarlyStopper(patience),
    )
