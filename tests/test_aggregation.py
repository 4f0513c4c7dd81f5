import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast import aggregation
from fedcast.aggregation import (
    STRATEGIES,
    STRATEGY_FIELDS,
    TUNING_GRIDS,
    AggregationError,
    AggregatorConfig,
    ClientUpdate,
    ServerState,
    aggregate,
)
from fedcast.nn.params import Layout, ParameterVector, TensorSpec


def layout(size=4):
    return Layout((TensorSpec("w", (size,)),), tag="toy")


def pv(values):
    values = np.asarray(values, dtype=np.float64)
    return ParameterVector(values, layout(len(values)))


def update(cid, local, n=1, steps=1):
    return ClientUpdate(
        client_id=cid, local_params=pv(local), n_samples=n, local_steps=steps,
    )


def run(strategy, updates, global_values=(0.0, 0.0, 0.0, 0.0), state=None, **kw):
    config = AggregatorConfig(strategy, **kw)
    g = pv(global_values)
    state = state if state is not None else ServerState.zeros(g.size)
    return aggregate(config, state, g, updates)


# ----------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(AggregationError):
        AggregatorConfig(strategy="fedsgd")
    with pytest.raises(AggregationError):
        AggregatorConfig(strategy="fedavg", server_lr=0.0)
    with pytest.raises(AggregationError):
        AggregatorConfig(strategy="fedprox", mu=-0.1)
    with pytest.raises(AggregationError):
        AggregatorConfig(strategy="fedavgm", beta=1.0)
    with pytest.raises(AggregationError):
        AggregatorConfig(strategy="fedadam", adaptivity=0.0)


def test_tuning_grids_cover_reference_table():
    assert TUNING_GRIDS["fedprox"]["mu"] == [1e-3, 1e-2, 1e-1, 1.0]
    assert TUNING_GRIDS["fedavgm"]["beta"] == [0.0, 0.7, 0.9, 0.97, 0.99, 0.997]
    assert TUNING_GRIDS["fednova"]["rho"] == [0.0, 1e-3, 1e-2, 1e-1, 0.99]
    for name in ("fedadagrad", "fedyogi", "fedadam"):
        assert TUNING_GRIDS[name]["server_lr"] == [1e-2, 1e-1, 1.0]
        assert TUNING_GRIDS[name]["adaptivity"] == [1e-4, 1e-3, 1e-2, 1e-1]
    assert set(TUNING_GRIDS) == set(STRATEGIES)


def test_tuning_grids_tune_only_fields_their_strategy_reads():
    for strategy, grid in TUNING_GRIDS.items():
        assert set(grid) <= set(STRATEGY_FIELDS[strategy]), strategy


# A valid non-default value for every AggregatorConfig field but strategy.
OTHER_VALUES = {"server_lr": 0.3, "mu": 0.7, "beta": 0.5, "rho": 0.4,
                "beta1": 0.6, "beta2": 0.8, "adaptivity": 0.05}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_fields_are_exactly_what_aggregate_reads(strategy):
    # every field inside the strategy's entry moves the weights or server
    # state, except fedprox's mu, which its clients read; a field outside it
    # would change nothing, so any value but its default raises, naming it
    fields = dataclasses.fields(AggregatorConfig)
    assert set(OTHER_VALUES) == {f.name for f in fields} - {"strategy"}
    for f in fields:
        if f.name in OTHER_VALUES and f.name not in STRATEGY_FIELDS[strategy]:
            AggregatorConfig(strategy, **{f.name: f.default})
            with pytest.raises(AggregationError, match=f"^{f.name} "):
                AggregatorConfig(strategy, **{f.name: OTHER_VALUES[f.name]})
    for trial in range(3):
        rng = np.random.Generator(np.random.PCG64(trial))
        g = rng.standard_normal(4)
        ups = [update(cid, g + rng.standard_normal(4), n=n, steps=steps)
               for cid, n, steps in zip("abc", (2, 7, 1), (3, 1, 2))]
        state = ServerState(rng.standard_normal(4), np.abs(rng.standard_normal(4)))
        base_w, base_s = aggregate(AggregatorConfig(strategy), state, pv(g), ups)
        for field in STRATEGY_FIELDS[strategy]:
            config = AggregatorConfig(strategy, **{field: OTHER_VALUES[field]})
            w, s = aggregate(config, state, pv(g), ups)
            same = (np.array_equal(w.values, base_w.values)
                    and np.array_equal(s.momentum, base_s.momentum)
                    and np.array_equal(s.second_moment, base_s.second_moment))
            assert same == (field == "mu"), (field, trial)


def test_client_update_validation():
    with pytest.raises(AggregationError):
        update("a", [1, 0, 0, 0], n=0)
    with pytest.raises(AggregationError):
        update("a", [1, 0, 0, 0], steps=0)


# -------------------------------------------------------------- weighted delta

def test_weighted_delta_arithmetic():
    # the server derives delta_i = w_i - w: deltas 1 and 4 from w = 1
    ups = [update("a", [2, 2, 2, 2], n=1), update("b", [5, 5, 5, 5], n=3)]
    # dW = (1/4)*1 + (3/4)*4 = 3.25, and fedavg moves w by eta * dW
    new, _ = run("fedavg", ups, global_values=[1.0, 1, 1, 1], server_lr=0.5)
    assert np.allclose(new.values, 1.0 + 0.5 * 3.25)


def test_update_set_validation():
    with pytest.raises(AggregationError, match="^no client updates"):
        run("fedavg", [])
    with pytest.raises(AggregationError, match="^duplicate client ids"):
        run("fedavg", [update("a", [1, 0, 0, 0]), update("a", [2, 0, 0, 0])])
    with pytest.raises(AggregationError):
        aggregate(
            AggregatorConfig(strategy="fedavg"),
            ServerState.zeros(2),
            pv([0.0, 0.0]),
            [update("a", [1, 0, 0, 0])],
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("tensors, tag", [
    ((TensorSpec("w", (3, 2)),), "cnn"),  # same size, other shape and tag
    ((TensorSpec("w", (2, 3)),), "cnn"),  # other tag only
    ((TensorSpec("v", (2, 3)),), "mlp"),  # other tensor name only
    ((TensorSpec("w", (2, 3), fan_in=2),), "mlp"),  # other fan-in only
])
def test_update_with_another_layout_is_rejected(strategy, tensors, tag):
    global_layout = Layout((TensorSpec("w", (2, 3)),), tag="mlp")
    g = ParameterVector(np.zeros(6), global_layout)
    ok = ClientUpdate("a", ParameterVector(np.ones(6), global_layout), 1, 1)
    other = ClientUpdate("b", ParameterVector(np.ones(6), Layout(tensors, tag)), 1, 1)
    config = AggregatorConfig(strategy)
    aggregate(config, ServerState.zeros(6), g, [ok])
    with pytest.raises(AggregationError,
                       match="^b: update does not match the global layout"):
        aggregate(config, ServerState.zeros(6), g, [ok, other])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("momentum, second", [(1, 4), (4, 1), (3, 3), (1, 1)])
def test_server_state_of_another_size_is_rejected(strategy, momentum, second):
    # a size-1 accumulator would broadcast against the 4 global weights
    kw = {"server_lr": 0.1} if "server_lr" in STRATEGY_FIELDS[strategy] else {}
    state = ServerState(np.zeros(momentum), np.zeros(second))
    with pytest.raises(AggregationError, match="^server state "):
        run(strategy, [update("a", [1, 2, 3, 4])], state=state, **kw)


# ------------------------------------------------------------ model averaging

def test_fedavg_eta_one_is_weighted_model_average():
    g = [1.0, 2.0, 3.0, 4.0]
    ups = [
        update("a", [2, 2, 3, 4], n=3),
        update("b", [1, 3, 3, 4], n=1),
    ]
    new, _ = run("fedavg", ups, global_values=g)
    want = 0.75 * np.array([2.0, 2, 3, 4]) + 0.25 * np.array([1.0, 3, 3, 4])
    assert np.allclose(new.values, want, atol=1e-15)


def test_fedavg_single_client_bitwise():
    local = np.array([0.1, -0.7, 3.3, 1e-9])
    ups = [update("a", local, n=5)]
    new, _ = run("fedavg", ups, global_values=[1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(new.values, local)


def test_fedavg_eta_scales_delta():
    ups = [update("a", [2.0, 2.0, 2.0, 2.0], n=1)]
    new, _ = run("fedavg", ups, server_lr=0.5)
    assert np.allclose(new.values, 1.0)


def test_simpleavg_unweighted_mean():
    ups = [
        update("a", [1, 1, 1, 1], n=100),
        update("b", [3, 3, 3, 3], n=1),
    ]
    new, _ = run("simpleavg", ups)
    assert np.allclose(new.values, 2.0)  # sample counts ignored


def test_simpleavg_equals_fedavg_for_equal_counts():
    rng = np.random.Generator(np.random.PCG64(0))
    g = rng.standard_normal(4)
    ups = [update(cid, g + rng.standard_normal(4), n=7) for cid in "abc"]
    a, _ = run("simpleavg", ups, global_values=g)
    b, _ = run("fedavg", ups, global_values=g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_medianavg_odd_and_even():
    mk = lambda cid, v: update(cid, [v] * 4)
    odd, _ = run("medianavg", [mk("a", 1.0), mk("b", 5.0), mk("c", 2.0)])
    assert np.all(odd.values == 2.0)
    even, _ = run("medianavg", [mk("a", 1.0), mk("b", 5.0), mk("c", 2.0), mk("d", 4.0)])
    assert np.all(even.values == 3.0)  # mean of the two central values


def test_medianavg_coordinatewise():
    ups = [
        update("a", [1.0, 9.0, 0.0, 2.0]),
        update("b", [2.0, 8.0, 5.0, 2.0]),
        update("c", [3.0, 7.0, 1.0, 2.0]),
    ]
    new, _ = run("medianavg", ups)
    assert np.array_equal(new.values, [2.0, 8.0, 1.0, 2.0])


@pytest.mark.parametrize("n_clients", [3, 4])
def test_medianavg_leaves_client_weights_unchanged(n_clients):
    # the median partitions its own stack in place, never a client's weights
    rng = np.random.Generator(np.random.PCG64(8))
    ups = [update(cid, rng.standard_normal(4)) for cid in "abcd"[:n_clients]]
    before = [u.local_params.values.copy() for u in ups]
    new, _ = run("medianavg", ups)
    for u, values in zip(ups, before):
        assert u.local_params.values.tobytes() == values.tobytes()
    again, _ = run("medianavg", list(reversed(ups)))
    assert again.values.tobytes() == new.values.tobytes()
    assert np.array_equal(new.values, np.median(before, axis=0))


# ------------------------------------------------------------------- momentum

def test_fedavgm_beta_zero_matches_fedavg():
    rng = np.random.Generator(np.random.PCG64(1))
    g = rng.standard_normal(4)
    ups = [update(cid, g + rng.standard_normal(4), n=int(n))
           for cid, n in zip("abc", (3, 5, 2))]
    a, _ = run("fedavgm", ups, global_values=g, beta=0.0)
    b, _ = run("fedavg", ups, global_values=g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_fedavgm_momentum_recurrence_and_absorbed_eta():
    beta = 0.9
    rng = np.random.Generator(np.random.PCG64(2))
    g = np.zeros(4)
    state = ServerState.zeros(4)
    momentum = np.zeros(4)
    w = np.zeros(4)
    for r in range(3):
        d_a, d_b = rng.standard_normal(4), rng.standard_normal(4)
        ups = [update("a", g + d_a, n=2), update("b", g + d_b, n=3)]
        got, state = run("fedavgm", ups, global_values=g, state=state, beta=beta)
        dw = (2 / 5) * d_a + (3 / 5) * d_b
        momentum = beta * momentum + dw
        w = w + momentum
        assert np.max(np.abs(got.values - w)) < 1e-14
        g = got.values
    # eta is absorbed into the momentum step, so a server_lr would change
    # nothing: its default is accepted and any other value raises
    ups = [update("a", [1.0, 1, 1, 1], n=1)]
    x, _ = run("fedavgm", ups, server_lr=1.0, beta=0.5)
    assert np.array_equal(x.values, np.ones(4))
    with pytest.raises(AggregationError, match="^server_lr 0.01 is not read by "
                                               "strategy 'fedavgm'"):
        AggregatorConfig("fedavgm", server_lr=0.01, beta=0.5)


def test_fednova_uniform_steps_matches_fedavg():
    rng = np.random.Generator(np.random.PCG64(3))
    g = rng.standard_normal(4)
    ups = [update(cid, g + rng.standard_normal(4), n=int(n), steps=4)
           for cid, n in zip("abc", (2, 9, 4))]
    a, _ = run("fednova", ups, global_values=g, rho=0.0)
    b, _ = run("fedavg", ups, global_values=g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_fednova_normalization_oracle():
    # two clients with different step counts, rho = 0
    d1, d2 = np.full(4, 4.0), np.full(4, 9.0)
    ups = [update("a", d1, n=2, steps=4), update("b", d2, n=3, steps=9)]
    new, _ = run("fednova", ups)
    n = 5
    normalized = (2 / (n * 4)) * d1 + (3 / (n * 9)) * d2
    coeff = (2 * 4 + 3 * 9) / n
    assert np.allclose(new.values, coeff * normalized, atol=1e-15)


def test_fednova_rho_momentum_recurrence():
    rho = 0.5
    state = ServerState.zeros(4)
    w = np.zeros(4)
    momentum = np.zeros(4)
    rng = np.random.Generator(np.random.PCG64(4))
    g = np.zeros(4)
    for r in range(3):
        delta = rng.standard_normal(4)
        ups = [update("a", g + delta, n=3, steps=2)]
        got, state = run("fednova", ups, global_values=g, state=state, rho=rho)
        normalized = (3 / (3 * 2)) * delta
        momentum = rho * momentum + 2.0 * normalized  # coeff = (3*2)/3 = 2
        w = w + momentum
        assert np.max(np.abs(got.values - w)) < 1e-14
        g = got.values


# ------------------------------------------------------------------- adaptive

def scripted_adaptive(strategy, deltas_per_round, eta, lam, b1, b2):
    """Independent evaluation of the adaptive server recurrences."""
    w = np.zeros_like(deltas_per_round[0])
    m = np.zeros_like(w)
    u = np.zeros_like(w)
    for dw in deltas_per_round:
        m = b1 * m + (1 - b1) * dw
        if strategy == "fedadagrad":
            u = u + dw * dw
        elif strategy == "fedyogi":
            u = u - (1 - b2) * dw * dw * np.sign(u - dw * dw)
        else:
            u = b2 * u + (1 - b2) * dw * dw
        w = w + eta * m / (np.sqrt(u) + lam)
    return w


@pytest.mark.parametrize("strategy", ["fedadagrad", "fedyogi", "fedadam"])
def test_adaptive_five_round_scripted_oracle(strategy):
    rng = np.random.Generator(np.random.PCG64(5))
    eta, lam = 0.1, 1e-3
    # fedadagrad has no first moment (b1 = 0); its b2 is never read
    b1, b2 = {"fedadagrad": (0.0, 0.99), "fedyogi": (0.9, 0.99),
              "fedadam": (0.9, 0.99)}[strategy]
    deltas = [rng.standard_normal(4) for _ in range(5)]
    state = ServerState.zeros(4)
    g = np.zeros(4)
    for dw in deltas:
        got, state = run(strategy, [update("a", g + dw, n=1)], global_values=g,
                         state=state, server_lr=eta, adaptivity=lam)
        g = got.values
    want = scripted_adaptive(strategy, deltas, eta, lam, b1, b2)
    assert np.max(np.abs(g - want)) < 1e-12


def test_fedadagrad_single_step_value():
    # dW = 1: u = 1, update = eta / (1 + lam)
    got, _ = run("fedadagrad", [update("a", [1.0, 1, 1, 1], n=1)],
                 server_lr=0.1, adaptivity=1e-3)
    assert np.allclose(got.values, 0.1 / (1.0 + 1e-3))


# ------------------------------------------------------ ordering and plumbing

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_aggregate_is_update_order_invariant(strategy):
    rng = np.random.Generator(np.random.PCG64(6))
    g = rng.standard_normal(4)
    ups = [
        update(cid, g + rng.standard_normal(4), n=int(n), steps=int(s))
        for cid, n, s in zip("abcd", (2, 7, 1, 4), (3, 1, 2, 5))
    ]
    state = ServerState(rng.standard_normal(4), np.abs(rng.standard_normal(4)))
    a, sa = aggregate(AggregatorConfig(strategy), state, pv(g), ups)
    b, sb = aggregate(AggregatorConfig(strategy), state, pv(g), list(reversed(ups)))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(sa.momentum, sb.momentum)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def update_sets(draw):
    """Global weights, server state and 1-5 client updates of one size."""
    size = draw(st.integers(1, 9))
    vector = st.lists(finite, min_size=size, max_size=size)
    cids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5,
                         unique=True))
    ups = [
        update(cid, draw(vector), n=draw(st.integers(1, 50)),
               steps=draw(st.integers(1, 9)))
        for cid in cids
    ]
    momentum = np.array(draw(vector))
    second = np.abs(np.array(draw(vector)))
    return draw(vector), ServerState(momentum, second), ups


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(deadline=None, max_examples=60)
@given(case=update_sets(), data=st.data())
def test_any_update_order_gives_the_same_bytes(strategy, case, data):
    g, state, ups = case
    order = data.draw(st.permutations(ups))
    config = AggregatorConfig(strategy)
    a, sa = aggregate(config, state, pv(g), ups)
    b, sb = aggregate(config, state, pv(g), order)
    assert a.values.tobytes() == b.values.tobytes()
    assert sa.momentum.tobytes() == sb.momentum.tobytes()
    assert sa.second_moment.tobytes() == sb.second_moment.tobytes()


@pytest.mark.parametrize("strategy", ["simpleavg", "medianavg"])
@pytest.mark.parametrize("n_clients", [1, 2, 5, 8, 9, 16])
@pytest.mark.parametrize("width", [2, 3, 7])
def test_column_blocks_give_the_bits_of_one_full_stack(strategy, n_clients, width):
    # sizes on, just past and just short of block boundaries, including a
    # last block of one column; signed zeros and wide magnitudes included
    rng = np.random.Generator(np.random.PCG64(n_clients * 10 + width))
    full = {
        "simpleavg": lambda stack: np.mean(stack, axis=0),
        "medianavg": lambda stack: np.median(stack, axis=0),
    }[strategy]
    for size in (1, 2, width - 1, width, width + 1, 2 * width, 2 * width + 1, 50):
        if size < 1:
            continue
        local = rng.standard_normal((n_clients, size)) * 10.0 ** rng.integers(
            -6, 6, (n_clients, size))
        local[rng.random(local.shape) < 0.1] = -0.0
        local[rng.random(local.shape) < 0.1] = 0.0
        ups = [update(f"c{i:02d}", row) for i, row in enumerate(local)]
        with mock.patch.object(aggregation, "BLOCK_BYTES", 8 * n_clients * width):
            got, _ = run(strategy, ups, global_values=np.zeros(size))
        assert got.values.tobytes() == full(local.copy()).tobytes(), size


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_update_is_rejected_naming_the_client(strategy, bad):
    ups = [update("a", [1.0, 2.0, 3.0, 4.0]), update("b", [1.0, bad, 3.0, 4.0])]
    with pytest.raises(AggregationError, match="b: update has non-finite"):
        run(strategy, ups)
