"""aggregate against the one-branch-per-strategy server it must match.

`oracle_aggregate` is aggregate as it was when each of the nine strategies
was its own branch: every delta-based rule but FedNova called
`oracle_weighted_delta`, which sorted and checked the update set a second
time, and FedAvg at server_lr 1, FedNova and the weighted delta each had
their own accumulation loop. aggregate now checks the set once, reduces it
once and applies one server rule; over several rounds, with the server
state threaded through, both must give bit-equal weights, momentum and
second moment.
"""

from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.aggregation import (
    BLOCK_BYTES,
    STRATEGIES,
    STRATEGY_FIELDS,
    AggregationError,
    AggregatorConfig,
    ClientUpdate,
    ServerState,
    aggregate,
)
from fedcast.nn.params import Layout, ParameterVector, TensorSpec


def oracle_sorted_updates(
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
        if not np.isfinite(u.local_params.values).all():
            raise AggregationError(f"{u.client_id}: update has non-finite weights")
    return sorted(updates, key=lambda u: u.client_id)


def oracle_reduce_blocks(reduce, local: Sequence[np.ndarray]) -> np.ndarray:
    size = local[0].size
    width = max(2, BLOCK_BYTES // (8 * len(local)))
    bounds = list(range(0, size, width)) + [size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty(size, dtype=np.float64)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = reduce(np.stack([w[lo:hi] for w in local]))
    return out


def oracle_weighted_delta(
    updates: Sequence[ClientUpdate], global_params: ParameterVector
) -> np.ndarray:
    ordered = oracle_sorted_updates(updates, global_params)
    n = sum(u.n_samples for u in ordered)
    total = np.zeros(global_params.size, dtype=np.float64)
    for u in ordered:
        total += (u.n_samples / n) * (u.local_params.values - global_params.values)
    return total


def oracle_aggregate(
    config: AggregatorConfig,
    state: ServerState,
    global_params: ParameterVector,
    updates: Sequence[ClientUpdate],
) -> tuple[ParameterVector, ServerState]:
    ordered = oracle_sorted_updates(updates, global_params)
    w = global_params.values
    local = [u.local_params.values for u in ordered]
    eta = config.server_lr
    strategy = config.strategy
    new_momentum = state.momentum
    new_second = state.second_moment

    if strategy == "simpleavg":
        new_w = oracle_reduce_blocks(lambda stack: stack.mean(axis=0), local)
    elif strategy == "medianavg":
        new_w = oracle_reduce_blocks(
            lambda stack: np.median(stack, axis=0, overwrite_input=True), local
        )
    elif strategy in ("fedavg", "fedprox"):
        if eta == 1.0:
            n = sum(u.n_samples for u in ordered)
            new_w = np.zeros(global_params.size, dtype=np.float64)
            for u, w_i in zip(ordered, local):
                new_w += (u.n_samples / n) * w_i
        else:
            new_w = w + eta * oracle_weighted_delta(ordered, global_params)
    elif strategy == "fedavgm":
        new_momentum = config.beta * state.momentum + oracle_weighted_delta(
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
        dw = oracle_weighted_delta(ordered, global_params)
        new_second = state.second_moment + dw * dw
        new_w = w + eta * dw / (np.sqrt(new_second) + config.adaptivity)
    elif strategy == "fedyogi":
        dw = oracle_weighted_delta(ordered, global_params)
        new_momentum = config.beta1 * state.momentum + (1.0 - config.beta1) * dw
        sq = dw * dw
        new_second = state.second_moment - (1.0 - config.beta2) * sq * np.sign(
            state.second_moment - sq
        )
        new_w = w + eta * new_momentum / (np.sqrt(new_second) + config.adaptivity)
    else:
        dw = oracle_weighted_delta(ordered, global_params)
        new_momentum = config.beta1 * state.momentum + (1.0 - config.beta1) * dw
        new_second = config.beta2 * state.second_moment + (1.0 - config.beta2) * (
            dw * dw
        )
        new_w = w + eta * new_momentum / (np.sqrt(new_second) + config.adaptivity)

    return (ParameterVector(new_w, global_params.layout),
            ServerState(new_momentum, new_second))


# --------------------------------------------------------------- generators

decay = st.floats(0.0, 0.999)
FIELD_VALUES = {
    # exactly 1.0 takes fedavg's and fedprox's model average; any other
    # value takes their delta rule
    "server_lr": st.one_of(st.just(1.0), st.floats(1e-3, 3.0)),
    "mu": st.floats(0.0, 1.0),
    "beta": decay,
    "rho": decay,
    "beta1": decay,
    "beta2": decay,
    "adaptivity": st.floats(1e-6, 1.0),
}


@st.composite
def sizes(draw, n_updates):
    """A vector size: small, or on or near a boundary of several column blocks."""
    width = max(2, BLOCK_BYTES // (8 * n_updates))
    small = st.integers(1, 40)
    blocks = st.builds(lambda k, off: k * width + off,
                       st.integers(1, 3), st.sampled_from([-1, 0, 1, 7]))
    return draw(st.one_of(small, blocks))


def vector(rng, size):
    """Wide magnitudes with exact and signed zeros mixed in."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-4, 4, size)
    v[rng.random(size) < 0.05] = 0.0
    v[rng.random(size) < 0.05] = -0.0
    return v


@st.composite
def sessions(draw):
    """A config, a starting state and 1-3 rounds of 1-8 updates each."""
    strategy = draw(st.sampled_from(STRATEGIES))
    config = AggregatorConfig(strategy, **{
        name: draw(FIELD_VALUES[name]) for name in STRATEGY_FIELDS[strategy]
    })
    n_updates = draw(st.integers(1, 8))
    size = draw(sizes(n_updates))
    seed = draw(st.integers(0, 2**32 - 1))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, n_updates))
        ids = draw(st.lists(st.sampled_from([f"bs{i:03d}" for i in range(12)]),
                            min_size=k, max_size=k, unique=True))
        counts = draw(st.lists(st.tuples(st.integers(1, 10_000), st.integers(1, 50)),
                               min_size=k, max_size=k))
        same = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        rounds.append(list(zip(ids, counts, same)))
    zero_state = draw(st.booleans())
    return config, size, seed, zero_state, rounds


def bits(a):
    return a.view(np.int64)


@settings(deadline=None, max_examples=300)
@given(sessions())
def test_aggregate_matches_one_branch_per_strategy(session):
    config, size, seed, zero_state, rounds = session
    rng = np.random.Generator(np.random.PCG64(seed))
    layout = Layout((TensorSpec("w", (size,)),), tag="toy")
    g = ParameterVector(vector(rng, size), layout)
    state = (ServerState.zeros(size) if zero_state
             else ServerState(vector(rng, size), np.abs(vector(rng, size))))
    for r, clients in enumerate(rounds):
        updates = [
            # an update equal to the global weights gives a zero delta
            ClientUpdate(cid, ParameterVector(
                g.values.copy() if same else g.values + vector(rng, size), layout
            ), n, steps)
            for cid, (n, steps), same in clients
        ]
        want_w, want_s = oracle_aggregate(config, state, g, updates)
        got_w, got_s = aggregate(config, state, g, updates)
        assert np.array_equal(bits(got_w.values), bits(want_w.values)), r
        assert np.array_equal(bits(got_s.momentum), bits(want_s.momentum)), r
        assert np.array_equal(bits(got_s.second_moment),
                              bits(want_s.second_moment)), r
        assert got_w.layout == layout
        g, state = got_w, got_s
