"""Server-side aggregation strategies.

Every client i reports its local weights w_i after training, its sample
count n_i and its local optimizer step count tau_i. The server derives
delta_i = w_i - w from the global weights w it broadcast that round.

A round takes three steps. The update set is checked once: it must be
non-empty, its client ids unique, each update's layout that of w and each
weight finite; an update that fails is rejected, never merged. It is put
in ascending client-id order, so aggregation is invariant to update
ordering, bit for bit. Then it is reduced once, to one of:

  simpleavg / medianavg   the coordinate-wise mean / median of the client
                          models, one block of columns stacked at a time,
                          so no second copy of every update is held
  fedavg / fedprox        at eta == 1, sum_i (n_i / n) w_i with n = sum_i n_i
  fednova                 (sum_i n_i tau_i / n) * sum_i (n_i / (n tau_i)) delta_i
  every other strategy    the weighted delta dW = sum_i (n_i / n) delta_i

The first two reductions are the new weights. A delta goes through one
server rule, which ADDS its step to the global weights:

  direct     fedavg / fedprox     w + eta * dW                    (eta != 1)
  momentum   fedavgm, fednova     m = decay * m + step; w + eta * m
             (decay is beta for fedavgm, whose eta stays 1, and rho for fednova)
  adaptive   fedadagrad           v = v + dW^2;                     step = dW
             fedyogi              m = b1 m + (1-b1) dW;
                                  v = v - (1-b2) dW^2 sign(v - dW^2); step = m
             fedadam              m = b1 m + (1-b1) dW;
                                  v = b2 v + (1-b2) dW^2;           step = m
             then                 w + eta * step / (sqrt(v) + lam)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fedcast.nn.params import ParameterVector
from fedcast.schema import (FRACTION, NON_NEGATIVE_FINITE, POSITIVE_FINITE, check, knob,
                            one_of, read_by)

# The AggregatorConfig fields each strategy reads; it ignores the rest.
# fedprox's mu is read by its clients, not by aggregate.
STRATEGY_FIELDS: dict[str, tuple[str, ...]] = {
    "fedavg": ("server_lr",),
    "fedprox": ("server_lr", "mu"),
    "fedavgm": ("beta",),
    "fednova": ("server_lr", "rho"),
    "fedadagrad": ("server_lr", "adaptivity"),
    "fedyogi": ("server_lr", "beta1", "beta2", "adaptivity"),
    "fedadam": ("server_lr", "beta1", "beta2", "adaptivity"),
    "simpleavg": (),
    "medianavg": (),
}
STRATEGIES: tuple[str, ...] = tuple(STRATEGY_FIELDS)
_BY_STRATEGY = read_by("strategy", STRATEGY_FIELDS)

# Hyper-parameter search grids from the reference evaluation.
TUNING_GRIDS: dict[str, dict[str, list[float]]] = {
    "fedavg": {},
    "simpleavg": {},
    "medianavg": {},
    "fedprox": {"mu": [1e-3, 1e-2, 1e-1, 1.0]},
    "fedavgm": {"beta": [0.0, 0.7, 0.9, 0.97, 0.99, 0.997]},
    "fednova": {"rho": [0.0, 1e-3, 1e-2, 1e-1, 0.99]},
    "fedadagrad": {"server_lr": [1e-2, 1e-1, 1.0],
                   "adaptivity": [1e-4, 1e-3, 1e-2, 1e-1]},
    "fedyogi": {"server_lr": [1e-2, 1e-1, 1.0],
                "adaptivity": [1e-4, 1e-3, 1e-2, 1e-1]},
    "fedadam": {"server_lr": [1e-2, 1e-1, 1.0],
                "adaptivity": [1e-4, 1e-3, 1e-2, 1e-1]},
}


# Bytes of one column block that simpleavg and medianavg stack at a time.
BLOCK_BYTES = 2**20


class AggregationError(ValueError):
    """Invalid aggregator configuration or update set."""


@dataclass(frozen=True)
class AggregatorConfig:
    """Strategy name plus its hyper-parameters.

    server_lr is eta; mu is the FedProx client proximal weight; beta the
    FedAvgM momentum; rho the FedNova momentum; beta1/beta2 the adaptive
    first/second-moment decays and adaptivity their lambda. Each strategy
    reads only its STRATEGY_FIELDS entry; any other field must keep its
    default, since a value there would change nothing.
    """

    strategy: str = knob(rule=one_of(STRATEGIES))
    server_lr: float = knob(1.0, POSITIVE_FINITE, _BY_STRATEGY)
    mu: float = knob(0.0, NON_NEGATIVE_FINITE, _BY_STRATEGY)
    beta: float = knob(0.0, FRACTION, _BY_STRATEGY)
    rho: float = knob(0.0, FRACTION, _BY_STRATEGY)
    beta1: float = knob(0.9, FRACTION, _BY_STRATEGY)
    beta2: float = knob(0.99, FRACTION, _BY_STRATEGY)
    adaptivity: float = knob(1e-3, POSITIVE_FINITE, _BY_STRATEGY)

    def __post_init__(self) -> None:
        check(self, AggregationError)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's round contribution: its post-training weights.

    The model-averaging strategies use local_params as they are, so a
    single-client round reproduces local training bit for bit.
    """

    client_id: str
    local_params: ParameterVector
    n_samples: int
    local_steps: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise AggregationError(
                f"{self.client_id}: n_samples must be >= 1, got {self.n_samples}"
            )
        if self.local_steps < 1:
            raise AggregationError(
                f"{self.client_id}: local_steps must be >= 1"
            )


@dataclass(frozen=True)
class ServerState:
    """Slow server-side accumulators threaded across rounds."""

    momentum: np.ndarray
    second_moment: np.ndarray

    @staticmethod
    def zeros(size: int) -> "ServerState":
        return ServerState(np.zeros(size, dtype=np.float64),
                           np.zeros(size, dtype=np.float64))


def _sorted_updates(
    updates: Sequence[ClientUpdate],
    global_params: ParameterVector,
    state: ServerState,
) -> list[ClientUpdate]:
    """The update set in ascending client-id order, after its one check.

    The check also covers the server state, whose accumulators must have
    one entry per global weight.
    """
    for name in ("momentum", "second_moment"):
        shape = getattr(state, name).shape
        if shape != global_params.values.shape:
            raise AggregationError(
                f"server state {name} has shape {shape}, expected "
                f"{global_params.values.shape} for the global weights"
            )
    if not updates:
        raise AggregationError("no client updates to aggregate")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise AggregationError(f"duplicate client ids in updates: {ids}")
    for u in updates:
        if u.local_params.layout != global_params.layout:
            raise AggregationError(
                f"{u.client_id}: update does not match the global layout"
            )
        if not np.isfinite(u.local_params.values).all():
            raise AggregationError(f"{u.client_id}: update has non-finite weights")
    return sorted(updates, key=lambda u: u.client_id)


def _reduce_blocks(reduce, local: Sequence[np.ndarray]) -> np.ndarray:
    """reduce(stack, axis=0) of the stacked vectors, one column block at a time.

    Each block stacks about BLOCK_BYTES, so the width comes from the number
    of vectors. A column's result depends only on that column, in the same
    order as in one full stack, so the bits are those of reducing the full
    stack. A last block of one column would be reduced in another order, so
    it joins the block before it.
    """
    size = local[0].size
    width = max(2, BLOCK_BYTES // (8 * len(local)))
    bounds = list(range(0, size, width)) + [size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty(size, dtype=np.float64)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = reduce(np.stack([w[lo:hi] for w in local]))
    return out


# The unweighted reductions of the client models, one column block at a time.
_UNWEIGHTED = {
    "simpleavg": lambda stack: stack.mean(axis=0),
    # each block's stack is this call's own, so median may partition it
    "medianavg": lambda stack: np.median(stack, axis=0, overwrite_input=True),
}


def aggregate(
    config: AggregatorConfig,
    state: ServerState,
    global_params: ParameterVector,
    updates: Sequence[ClientUpdate],
) -> tuple[ParameterVector, ServerState]:
    """One server round: returns (new global weights, new server state).

    Checks and orders the update set once, reduces it once, then applies
    the strategy's server rule to the reduction.
    """
    ordered = _sorted_updates(updates, global_params, state)
    strategy, eta = config.strategy, config.server_lr
    w, m, v = global_params.values, state.momentum, state.second_moment
    local = [u.local_params.values for u in ordered]
    if strategy in _UNWEIGHTED:
        return (ParameterVector(_reduce_blocks(_UNWEIGHTED[strategy], local),
                                global_params.layout), state)
    # eta == 1 averages client models directly: exact (not just close) for a
    # single client, and equal to w + dW up to float rounding.
    average = strategy in ("fedavg", "fedprox") and eta == 1.0
    n = sum(u.n_samples for u in ordered)
    step = np.zeros(w.size, dtype=np.float64)
    for u, w_i in zip(ordered, local):
        # FedNova also divides each client's weight by its step count
        tau = u.local_steps if strategy == "fednova" else 1
        step += (u.n_samples / (n * tau)) * (w_i if average else w_i - w)
    if average:
        return ParameterVector(step, global_params.layout), state
    if strategy == "fednova":
        step *= sum(u.n_samples * u.local_steps for u in ordered) / n
    if strategy in ("fedavgm", "fednova"):
        # fedavgm's server_lr stays 1: eta is absorbed into its momentum step
        m = (config.beta if strategy == "fedavgm" else config.rho) * m + step
        step = m
    elif strategy == "fedadagrad":
        v = v + step * step
    elif strategy in ("fedyogi", "fedadam"):
        m = config.beta1 * m + (1.0 - config.beta1) * step
        sq = step * step
        if strategy == "fedyogi":
            v = v - (1.0 - config.beta2) * sq * np.sign(v - sq)
        else:
            v = config.beta2 * v + (1.0 - config.beta2) * sq
        step = m
    if strategy in ("fedadagrad", "fedyogi", "fedadam"):
        new_w = w + eta * step / (np.sqrt(v) + config.adaptivity)
    else:
        new_w = w + eta * step
    return ParameterVector(new_w, global_params.layout), ServerState(m, v)
