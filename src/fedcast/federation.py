"""Federated orchestration: sampling, rounds, settings, and byte accounting.

One round: sample clients, broadcast the global weights, run E local epochs
per sampled client (each client keeps its own Adam state across rounds,
whose step count fixes the epoch the client resumes at, so a
one-epoch-per-round run retraces a plain local run step for step),
aggregate the clients' local weights (the server derives each client's
delta from the weights it broadcast), then evaluate the new global weights
on every client's validation windows. Sampling does not depend on training,
so the session draws its schedule before round 0, and a client holds Adam
moments from its first sampled round through its last: after its last
round's training they are dropped. A round keeps only each trained client's
update, last train loss and step count, so it holds no optimizer state
once a client's update is made. The centralized setting trains on
pooled windows through the same epoch loop, with early stopping; the
individual setting is a centralized run per single client. Weights that are
not finite raise DivergenceError where they first appear: after a client's
local training, after aggregation, after a centralized run and after
fine-tuning.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fedcast.aggregation import (
    AggregatorConfig,
    ClientUpdate,
    ServerState,
    aggregate,
)
from fedcast.dataio import ClientWindows, concat_windows
from fedcast.nn.models import ModelSpec, init_model
from fedcast.nn.params import ParameterVector, payload_nbytes
from fedcast.nn.training import (
    AdamState,
    DivergenceError,
    TrainReport,
    evaluate,
    train_local,
    train_with_early_stopping,
)
from fedcast.schema import Rule, at_least, check, knob


class FederationError(ValueError):
    """Invalid federation configuration or client cohort."""


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = knob(rule=at_least(0))
    local_epochs: int = knob(rule=at_least(0))
    sampling_fraction: float = knob(1.0, Rule("in (0, 1]", lambda v: 0.0 < v <= 1.0))

    def __post_init__(self) -> None:
        check(self, FederationError)
        if self.rounds > 0 and self.local_epochs < 1:
            # A round needs at least one optimizer step per sampled client.
            raise FederationError("local_epochs must be >= 1 when rounds > 0")


@dataclass(frozen=True)
class ClientRoundStats:
    """Per-client bookkeeping for one round.

    Unsampled clients carry train_loss None and zero steps; their val
    scores are still measured against the post-aggregation global.
    """

    train_loss: Optional[float]
    val_mse: Optional[float]
    val_mae: Optional[float]
    local_steps: int
    n_samples: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    sampled: tuple[str, ...]
    client_stats: dict[str, ClientRoundStats]
    agg_val_mse: float
    agg_val_mae: float


@dataclass(frozen=True)
class FederationHistory:
    rounds: tuple[RoundRecord, ...]
    best_round: Optional[int]
    best_global: ParameterVector
    final_global: ParameterVector
    payload_bytes: int
    client_ids: tuple[str, ...]


def client_stream_seed(seed: int, client_id: str) -> int:
    """Stable per-client shuffle seed: SeedSequence([seed, crc32(id)])."""
    crc = zlib.crc32(client_id.encode("utf-8"))
    seq = np.random.SeedSequence([seed, crc])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def clients_per_round(n_clients: int, fraction: float) -> int:
    """max(1, floor(f * N)): how many clients one round samples."""
    return max(1, int(np.floor(fraction * n_clients)))


def sample_clients(
    client_ids: Sequence[str], fraction: float, round_index: int, seed: int
) -> list[str]:
    """Uniform sample without replacement of max(1, floor(f * N)) clients.

    Deterministic in (seed, round_index); the result preserves client-list
    order. fraction == 1 returns every client.
    """
    if not client_ids:
        raise FederationError("no clients to sample from")
    if not (0.0 < fraction <= 1.0):
        raise FederationError("fraction must be in (0, 1]")
    return [client_ids[i] for i in _sample_indices(len(client_ids), fraction,
                                                   round_index, seed)]


def _sample_indices(n: int, fraction: float, round_index: int, seed: int) -> list[int]:
    """Ascending indices of the clients sample_clients draws from n."""
    count = clients_per_round(n, fraction)
    if count >= n:
        return list(range(n))
    rng = np.random.default_rng([seed, round_index, 1])
    return sorted(rng.choice(n, size=count, replace=False).tolist())


def _check_finite(params: ParameterVector, what: str) -> None:
    """Raise DivergenceError unless every weight is finite.

    A NaN weight can hide behind a ReLU, which maps NaN to +0.0, so the
    losses and validation scores of such weights can still be finite.
    """
    if not np.isfinite(params.values).all():
        raise DivergenceError(f"{what} are not finite")


def _check_cohort(clients: Sequence[ClientWindows]) -> None:
    if not clients:
        raise FederationError("cohort is empty")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise FederationError(f"duplicate client ids: {ids}")


def run_federated(
    spec: ModelSpec,
    clients: Sequence[ClientWindows],
    federation: FederationConfig,
    aggregator: AggregatorConfig,
    seed: int = 0,
) -> FederationHistory:
    """Run the full federated session and return its history.

    seed fixes the initial weights, each client's shuffle stream and the
    client sampling. The best round is the one whose post-aggregation global
    scores the lowest validation MSE (sample-weighted over all clients); ties
    keep the earliest round. A round whose local training, local weights,
    aggregated weights or aggregated validation MSE is not finite raises
    DivergenceError naming the round (and the client).
    """
    _check_cohort(clients)
    by_id = {c.client_id: c for c in clients}
    ids = tuple(c.client_id for c in clients)
    if federation.rounds > 0:
        for c in clients:
            if c.train.count == 0:
                raise FederationError(f"{c.client_id}: no training windows")
        if all(c.validation.count == 0 for c in clients):
            raise FederationError("no client has validation windows")

    global_pv = init_model(spec, seed)
    server_state = ServerState.zeros(global_pv.size)
    stream_seeds = {cid: client_stream_seed(seed, cid) for cid in ids}
    # The last round that samples each client (a later round overwrites an
    # earlier one). A client's Adam state is kept from its first training
    # until then; train_local starts from zeros for a client not in the dict.
    last_round = {ids[i]: r for r in range(federation.rounds)
                  for i in _sample_indices(len(ids), federation.sampling_fraction,
                                           r, seed)}
    trainers: dict[str, AdamState] = {}

    records: list[RoundRecord] = []
    best_round: Optional[int] = None
    best_mse = np.inf
    best_global = global_pv.copy()

    for r in range(federation.rounds):
        sampled = sample_clients(ids, federation.sampling_fraction, r, seed)
        updates: dict[str, ClientUpdate] = {}
        train_losses: dict[str, float] = {}
        for cid in sampled:
            try:
                report = train_local(
                    spec,
                    global_pv,
                    by_id[cid].train,
                    epochs=federation.local_epochs,
                    seed=stream_seeds[cid],
                    proximal_mu=aggregator.mu,
                    state=trainers.pop(cid, None),
                )
            except DivergenceError as exc:
                raise DivergenceError(f"round {r}, client {cid}, {exc}") from exc
            _check_finite(report.params, f"round {r}, client {cid}: local weights")
            if last_round[cid] > r:
                trainers[cid] = report.state
            updates[cid] = ClientUpdate(cid, report.params, by_id[cid].train.count,
                                        report.steps)
            train_losses[cid] = report.train_losses[-1]
            # the report holds the Adam state, which only trainers may keep
            del report

        global_pv, server_state = aggregate(aggregator, server_state, global_pv,
                                            list(updates.values()))
        _check_finite(global_pv, f"round {r}: aggregated weights")

        stats: dict[str, ClientRoundStats] = {}
        weighted_mse = 0.0
        weighted_mae = 0.0
        val_total = 0
        for cid in ids:
            cw = by_id[cid]
            if cw.validation.count > 0:
                v_mse, v_mae = evaluate(spec, global_pv, cw.validation)
                weighted_mse += v_mse * cw.validation.count
                weighted_mae += v_mae * cw.validation.count
                val_total += cw.validation.count
            else:
                v_mse, v_mae = None, None
            stats[cid] = ClientRoundStats(
                train_loss=train_losses.get(cid),
                val_mse=v_mse,
                val_mae=v_mae,
                local_steps=updates[cid].local_steps if cid in updates else 0,
                n_samples=cw.train.count,
            )
        agg_mse = weighted_mse / val_total
        agg_mae = weighted_mae / val_total
        if not np.isfinite(agg_mse):
            raise DivergenceError(f"round {r}: aggregated validation MSE is {agg_mse}")
        records.append(
            RoundRecord(
                round=r,
                sampled=tuple(sampled),
                client_stats=stats,
                agg_val_mse=agg_mse,
                agg_val_mae=agg_mae,
            )
        )
        if agg_mse < best_mse:
            best_mse = agg_mse
            best_round = r
            best_global = global_pv.copy()

    return FederationHistory(
        rounds=tuple(records),
        best_round=best_round,
        best_global=best_global,
        final_global=global_pv,
        payload_bytes=payload_nbytes(global_pv.layout),
        client_ids=ids,
    )


def run_centralized(
    spec: ModelSpec,
    clients: Sequence[ClientWindows],
    max_epochs: int,
    patience: int,
    seed: int = 0,
) -> TrainReport:
    """Pool every client's train/validation windows and train one model.

    The shuffle stream is derived from the sorted client ids, so pooling a
    single client trains on that client's own windows and stream: the
    individual setting is one such run per client. The pooled sets keep
    each client's scaled series once (see concat_windows). Weights that are
    not finite raise DivergenceError naming the clients.
    """
    _check_cohort(clients)
    cohort_id = "+".join(sorted(c.client_id for c in clients))
    report = train_with_early_stopping(
        spec,
        init_model(spec, seed),
        concat_windows([c.train for c in clients]),
        concat_windows([c.validation for c in clients]),
        max_epochs,
        patience,
        seed=client_stream_seed(seed, cohort_id),
    )
    _check_finite(report.params, f"clients {cohort_id}: trained weights")
    return report


def fine_tune(
    spec: ModelSpec,
    global_params: ParameterVector,
    client: ClientWindows,
    epochs: int,
    seed: int = 0,
) -> ParameterVector:
    """Continue from the global weights on one client's train windows.

    Starts a FRESH Adam state (the server never ships optimizer moments);
    epochs == 0 returns the global weights unchanged. Weights that are not
    finite raise DivergenceError naming the client.
    """
    params = train_local(
        spec,
        global_params,
        client.train,
        epochs=epochs,
        seed=client_stream_seed(seed, client.client_id),
    ).params
    _check_finite(params, f"client {client.client_id}: fine-tuned weights")
    return params


@dataclass(frozen=True)
class CommunicationLedger:
    """Byte totals for the first rounds_counted rounds of a session.

    Every sampled client uploads exactly one payload and downloads exactly
    one payload per round, so per-client uplink == downlink and the server
    one-directional total is payload * sum_t |S_t|.
    """

    payload_bytes: int
    rounds_counted: int
    per_client_uplink_bytes: dict[str, int]
    per_client_downlink_bytes: dict[str, int]
    server_rx_bytes: int
    server_tx_bytes: int

    @property
    def server_total_bytes(self) -> int:
        return self.server_rx_bytes + self.server_tx_bytes


def megabytes(n_bytes: int) -> float:
    """Decimal megabytes (1 MB = 1e6 bytes)."""
    return n_bytes / 1e6


def account_communication(
    history: FederationHistory,
    payload_bytes: Optional[int] = None,
    upto_round: Optional[int] = None,
) -> CommunicationLedger:
    """Tally transferred bytes over the first upto_round rounds.

    payload_bytes overrides the session's own payload (for what-if sizing);
    upto_round counts rounds (1-indexed count), default all.
    """
    payload = history.payload_bytes if payload_bytes is None else payload_bytes
    if payload < 0:
        raise FederationError("payload_bytes must be >= 0")
    n_rounds = len(history.rounds)
    upto = n_rounds if upto_round is None else upto_round
    if not (0 <= upto <= n_rounds):
        raise FederationError(
            f"upto_round must be in [0, {n_rounds}], got {upto}"
        )
    uplink = {cid: 0 for cid in history.client_ids}
    total_participants = 0
    for record in history.rounds[:upto]:
        for cid in record.sampled:
            uplink[cid] += payload
        total_participants += len(record.sampled)
    server_one_way = payload * total_participants
    return CommunicationLedger(
        payload_bytes=payload,
        rounds_counted=upto,
        per_client_uplink_bytes=uplink,
        per_client_downlink_bytes=dict(uplink),
        server_rx_bytes=server_one_way,
        server_tx_bytes=server_one_way,
    )


def estimate_total_transfer_bytes(
    payload_bytes: int, n_clients: int, fraction: float, rounds: int
) -> int:
    """Closed-form both-directions total: 2 * payload * per_round * rounds."""
    if n_clients < 1:
        raise FederationError("n_clients must be >= 1")
    if rounds < 0:
        raise FederationError("rounds must be >= 0")
    if not (0.0 < fraction <= 1.0):
        raise FederationError("fraction must be in (0, 1]")
    return 2 * payload_bytes * clients_per_round(n_clients, fraction) * rounds
