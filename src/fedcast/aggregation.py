"""Server-side aggregation strategies.

Every client i reports its local weights w_i after training, its sample
count n_i and its local optimizer step count tau_i. The server derives
delta_i = w_i - w from the global weights w it broadcast that round. The
weighted round update is dW = sum_i (n_i / n) delta_i with n = sum_i n_i,
and every strategy ADDS its update to the global weights:

  fedavg / fedprox   w + eta * dW            (eta == 1 averages client models)
  fedavgm            u = beta * u + dW;                    w + u
  fednova            u = rho * u + (sum_i n_i tau_i / n)
                         * sum_i (n_i / (n tau_i)) delta_i; w + eta * u
  fedadagrad         u = u + dW^2;                w + eta * dW / (sqrt(u) + lam)
  fedyogi            m = b1 m + (1-b1) dW;
                     u = u - (1-b2) dW^2 sign(u - dW^2);
                                                  w + eta * m / (sqrt(u) + lam)
  fedadam            m = b1 m + (1-b1) dW;  u = b2 u + (1-b2) dW^2;
                                                  w + eta * m / (sqrt(u) + lam)
  simpleavg          unweighted mean of client models
  medianavg          coordinate-wise median of client models

Updates are merged in ascending client-id order regardless of arrival
order, so aggregation is invariant to update ordering, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from fedcast.nn.params import ParameterVector

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

    strategy: str
    server_lr: float = 1.0
    mu: float = 0.0
    beta: float = 0.0
    rho: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.99
    adaptivity: float = 1e-3

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise AggregationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if self.server_lr <= 0:
            raise AggregationError("server_lr must be positive")
        if self.mu < 0:
            raise AggregationError("mu must be >= 0")
        for name in ("beta", "rho", "beta1", "beta2"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise AggregationError(f"{name} must be in [0, 1), got {v}")
        if self.adaptivity <= 0:
            raise AggregationError("adaptivity must be positive")
        reads = STRATEGY_FIELDS[self.strategy]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("strategy", *reads) and value != f.default:
                raise AggregationError(
                    f"{f.name} {value!r} is not read by strategy {self.strategy!r}, "
                    f"which reads {list(reads)}"
                )


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
    updates: Sequence[ClientUpdate], global_params: ParameterVector
) -> list[ClientUpdate]:
    if not updates:
        raise AggregationError("no client updates to aggregate")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise AggregationError(f"duplicate client ids in updates: {ids}")
    for u in updates:
        if u.local_params.size != global_params.size:
            raise AggregationError(
                f"{u.client_id}: update does not match the global layout"
            )
    return sorted(updates, key=lambda u: u.client_id)


def weighted_delta(
    updates: Sequence[ClientUpdate], global_params: ParameterVector
) -> np.ndarray:
    """dW = sum_i (n_i / n) (w_i - w) in ascending client-id order."""
    ordered = _sorted_updates(updates, global_params)
    n = sum(u.n_samples for u in ordered)
    total = np.zeros(global_params.size, dtype=np.float64)
    for u in ordered:
        total += (u.n_samples / n) * (u.local_params.values - global_params.values)
    return total


def aggregate(
    config: AggregatorConfig,
    state: ServerState,
    global_params: ParameterVector,
    updates: Sequence[ClientUpdate],
) -> tuple[ParameterVector, ServerState]:
    """One server round: returns (new global weights, new server state)."""
    ordered = _sorted_updates(updates, global_params)
    w = global_params.values
    local = [u.local_params.values for u in ordered]
    eta = config.server_lr
    strategy = config.strategy
    new_momentum = state.momentum
    new_second = state.second_moment

    if strategy == "simpleavg":
        new_w = np.stack(local).mean(axis=0)
    elif strategy == "medianavg":
        new_w = np.median(np.stack(local), axis=0)
    elif strategy in ("fedavg", "fedprox"):
        # eta == 1 averages client models directly: exact (not just close)
        # for a single client, and equal to w + dW up to float rounding.
        if eta == 1.0:
            n = sum(u.n_samples for u in ordered)
            new_w = np.zeros(global_params.size, dtype=np.float64)
            for u, w_i in zip(ordered, local):
                new_w += (u.n_samples / n) * w_i
        else:
            new_w = w + eta * weighted_delta(ordered, global_params)
    elif strategy == "fedavgm":
        # eta is absorbed into the momentum step for this strategy.
        new_momentum = config.beta * state.momentum + weighted_delta(
            ordered, global_params
        )
        new_w = w + new_momentum
    elif strategy == "fednova":
        n = sum(u.n_samples for u in ordered)
        normalized = np.zeros(global_params.size, dtype=np.float64)
        for u, w_i in zip(ordered, local):
            normalized += (u.n_samples / (n * u.local_steps)) * (w_i - w)
        coeff = sum(u.n_samples * u.local_steps for u in ordered) / n
        new_momentum = config.rho * state.momentum + coeff * normalized
        new_w = w + eta * new_momentum
    elif strategy == "fedadagrad":
        dw = weighted_delta(ordered, global_params)
        new_second = state.second_moment + dw * dw
        new_w = w + eta * dw / (np.sqrt(new_second) + config.adaptivity)
    elif strategy == "fedyogi":
        dw = weighted_delta(ordered, global_params)
        new_momentum = config.beta1 * state.momentum + (1.0 - config.beta1) * dw
        sq = dw * dw
        new_second = state.second_moment - (1.0 - config.beta2) * sq * np.sign(
            state.second_moment - sq
        )
        new_w = w + eta * new_momentum / (np.sqrt(new_second) + config.adaptivity)
    else:  # fedadam; AggregatorConfig admits no other strategy
        dw = weighted_delta(ordered, global_params)
        new_momentum = config.beta1 * state.momentum + (1.0 - config.beta1) * dw
        new_second = config.beta2 * state.second_moment + (1.0 - config.beta2) * (
            dw * dw
        )
        new_w = w + eta * new_momentum / (np.sqrt(new_second) + config.adaptivity)

    return (ParameterVector(new_w, global_params.layout),
            ServerState(new_momentum, new_second))
