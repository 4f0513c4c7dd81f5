import csv
import dataclasses
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from fedcast import federation
from fedcast.aggregation import AggregatorConfig
from fedcast.dataio import (
    FEATURES,
    ClientWindows,
    PreprocessConfig,
    ScalerParams,
    preprocess_clients,
)
from fedcast.experiment import _write_rounds_csv
from fedcast.federation import (
    FederationConfig,
    FederationError,
    account_communication,
    client_stream_seed,
    estimate_total_transfer_bytes,
    fine_tune,
    megabytes,
    run_centralized,
    run_federated,
    sample_clients,
)
from fedcast.nn.models import ModelSpec, init_model
from fedcast.nn.training import (
    DivergenceError,
    evaluate,
    train_local,
    train_with_early_stopping,
)

from helpers import nan_in_hidden_unit, random_dataset, windows_of

SPEC = ModelSpec(
    architecture="mlp", window_size=4, n_features=3, n_targets=2,
    hidden_sizes=(8,), batch_size=8,
)


def windows(m, seed, spec=SPEC):
    rng = np.random.Generator(np.random.PCG64(seed))
    inputs = rng.uniform(0.0, 1.0, size=(m, spec.window_size, spec.n_features))
    targets = inputs[:, -1, : spec.n_targets] + 0.01 * rng.standard_normal(
        (m, spec.n_targets)
    )
    return windows_of(inputs, targets)


def client(cid, n_train=24, n_val=8, n_test=8, seed=0):
    base = 1000 * seed + zlib.crc32(cid.encode()) % 997
    return ClientWindows(
        client_id=cid,
        train=windows(n_train, base),
        validation=windows(n_val, base + 1),
        test=windows(n_test, base + 2),
        scaler=ScalerParams(np.zeros(3), np.ones(3)),
    )


def fed(rounds=3, epochs=1, fraction=1.0):
    return FederationConfig(rounds=rounds, local_epochs=epochs,
                            sampling_fraction=fraction)


FEDAVG = AggregatorConfig("fedavg")


# --------------------------------------------------------------- seed streams

def test_client_stream_seed_matches_crc_recipe():
    seq = np.random.SeedSequence([42, zlib.crc32(b"bs007")])
    want = int(seq.generate_state(1, dtype=np.uint64)[0])
    assert client_stream_seed(42, "bs007") == want
    assert client_stream_seed(42, "bs007") == want  # stable


def test_client_stream_seeds_distinct_per_client():
    seeds = {client_stream_seed(0, f"bs{i:03d}") for i in range(50)}
    assert len(seeds) == 50


# ------------------------------------------------------------------- sampling

def test_sample_all_preserves_order():
    ids = ["c", "a", "b"]
    assert sample_clients(ids, 1.0, 0, 0) == ids


def test_sample_count_is_floor_of_fraction():
    ids = [f"c{i}" for i in range(264)]
    assert len(sample_clients(ids, 0.25, 0, 0)) == 66
    assert len(sample_clients(ids, 0.1, 3, 9)) == 26


def test_sample_keeps_at_least_one():
    assert len(sample_clients(["a", "b", "c"], 0.1, 0, 0)) == 1


def test_sample_deterministic_and_unique():
    ids = [f"c{i}" for i in range(20)]
    a = sample_clients(ids, 0.4, 5, 123)
    b = sample_clients(ids, 0.4, 5, 123)
    assert a == b
    assert len(set(a)) == len(a) == 8
    assert all(c in ids for c in a)
    # result follows client-list order
    assert a == [c for c in ids if c in set(a)]


def test_sample_varies_with_round():
    ids = [f"c{i}" for i in range(30)]
    draws = {tuple(sample_clients(ids, 0.2, r, 7)) for r in range(10)}
    assert len(draws) > 1


def test_sample_validation():
    with pytest.raises(FederationError):
        sample_clients([], 0.5, 0, 0)
    with pytest.raises(FederationError):
        sample_clients(["a"], 0.0, 0, 0)
    with pytest.raises(FederationError):
        sample_clients(["a"], 1.5, 0, 0)


# -------------------------------------------------------------- config guards

def test_federation_config_validation():
    with pytest.raises(FederationError):
        FederationConfig(rounds=-1, local_epochs=1)
    with pytest.raises(FederationError):
        FederationConfig(rounds=1, local_epochs=-1)
    with pytest.raises(FederationError):
        FederationConfig(rounds=1, local_epochs=1, sampling_fraction=0.0)
    with pytest.raises(FederationError, match="when rounds > 0"):
        FederationConfig(rounds=1, local_epochs=0)
    FederationConfig(rounds=0, local_epochs=0)  # an empty session is fine


def test_run_federated_rejects_bad_cohorts():
    c0 = client("a")
    with pytest.raises(FederationError):
        run_federated(SPEC, [], fed(), FEDAVG)
    with pytest.raises(FederationError):
        run_federated(SPEC, [c0, client("a", seed=1)], fed(), FEDAVG)
    with pytest.raises(FederationError):
        run_federated(SPEC, [c0], fed(epochs=0), FEDAVG)
    empty_train = ClientWindows(
        client_id="b", train=windows(0, 1), validation=windows(4, 2),
        test=windows(2, 3), scaler=c0.scaler,
    )
    with pytest.raises(FederationError):
        run_federated(SPEC, [c0, empty_train], fed(), FEDAVG)
    no_val = ClientWindows(
        client_id="b", train=windows(8, 1), validation=windows(0, 2),
        test=windows(2, 3), scaler=c0.scaler,
    )
    with pytest.raises(FederationError):
        run_federated(SPEC, [no_val], fed(), FEDAVG)


# ------------------------------------------------------------------- sessions

def test_zero_round_session_returns_initial():
    initial = init_model(SPEC, 5)
    hist = run_federated(SPEC, [client("a")], fed(rounds=0), FEDAVG, seed=5)
    assert hist.rounds == ()
    assert hist.best_round is None
    assert np.array_equal(hist.best_global.values, initial.values)
    assert np.array_equal(hist.final_global.values, initial.values)


def test_single_client_session_is_plain_local_training():
    # one client, full participation, eta == 1: R rounds of E epochs must
    # reproduce an uninterrupted R*E epoch local run bit for bit
    cw = client("solo")
    # run_federated starts from init_model(spec, seed)
    initial = init_model(SPEC, 11)
    hist = run_federated(SPEC, [cw], fed(rounds=3, epochs=2), FEDAVG, seed=11)
    straight = train_local(
        SPEC, initial, cw.train, epochs=6, seed=client_stream_seed(11, "solo")
    )
    assert np.array_equal(hist.final_global.values, straight.params.values)


def test_session_that_diverges_names_the_round():
    # Adam at lr 1e300: with three batches an epoch, the local training loss
    # is already non-finite; with one, only the aggregated validation MSE is
    spec = dataclasses.replace(SPEC, learning_rate=1e300)
    cohort = [client("a"), client("b")]
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError,
                           match="round 0, client a, epoch 0: training loss"):
            run_federated(spec, cohort, fed(rounds=2), FEDAVG)
        with pytest.raises(DivergenceError,
                           match="round 0: aggregated validation MSE"):
            run_federated(dataclasses.replace(spec, batch_size=24), cohort,
                          fed(rounds=2), FEDAVG)


def test_nan_weights_behind_a_relu_are_caught_after_local_training(monkeypatch):
    nan_in_hidden_unit(monkeypatch, "b", seed=5)
    cohort = [client("a"), client("b"), client("c")]
    with pytest.raises(DivergenceError,
                       match="round 0, client b: local weights are not finite"):
        run_federated(SPEC, cohort, fed(rounds=2), FEDAVG, seed=5)


def test_aggregated_weights_that_overflow_are_caught(monkeypatch):
    # finite local weights whose plain sum overflows to inf
    real = federation.train_local

    def huge(*args, **kwargs):
        report = real(*args, **kwargs)
        report.params.values[:] = 1.5e308
        return report

    monkeypatch.setattr(federation, "train_local", huge)
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match="round 0: aggregated weights are not finite"
    ):
        run_federated(SPEC, [client("a"), client("b")], fed(rounds=1),
                      AggregatorConfig("simpleavg"))


def test_centralized_weights_that_are_not_finite_raise(monkeypatch):
    real = federation.train_with_early_stopping

    def poisoned(*args, **kwargs):
        report = real(*args, **kwargs)
        report.params.view("fc0.w")[:, 0] = np.nan
        return report

    monkeypatch.setattr(federation, "train_with_early_stopping", poisoned)
    with pytest.raises(DivergenceError,
                       match=r"clients a\+b: trained weights are not finite"):
        run_centralized(SPEC, [client("b"), client("a")], 2, 2)


def test_pooled_sets_keep_each_scaled_series_once(monkeypatch):
    # the pooled train and validation sets keep the clients' scaled series
    # end to end plus one start row per window; copying each window would
    # keep window_size times the series
    n = 5000
    data = [random_dataset(n, seed=i, client_id=f"c{i}") for i in range(2)]
    clients = preprocess_clients(data, PreprocessConfig(window_size=10))
    spec = ModelSpec(architecture="mlp", hidden_sizes=(4,))
    traced = []

    def measure(spec, params, train, validation, *args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return train_local(spec, params, train, epochs=0)

    monkeypatch.setattr(federation, "train_with_early_stopping", measure)
    run_centralized(spec, clients[:1], 1, 1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_centralized(spec, clients, 1, 1)
    finally:
        tracemalloc.stop()
    # 60 % train and 20 % validation rows of each client, scaled
    series_bytes = len(data) * int(0.8 * n) * len(FEATURES) * 8
    assert traced[-1] - before <= 2 * series_bytes


def test_round_records_account_participation():
    clients = [client("a", n_train=24), client("b", n_train=16),
               client("c", n_train=8)]
    hist = run_federated(SPEC, clients, fed(rounds=4, fraction=0.5), FEDAVG,
                         seed=2)
    payload = hist.payload_bytes
    assert payload == 8 * init_model(SPEC, 0).size
    for record in hist.rounds:
        assert len(record.sampled) == 1  # floor(0.5 * 3)
        for cid in hist.client_ids:
            s = record.client_stats[cid]
            if cid in record.sampled:
                assert s.train_loss is not None
                assert s.local_steps == -(-s.n_samples // 8)  # ceil, E=1
            else:
                assert s.train_loss is None
                assert s.local_steps == 0
    assert len(hist.rounds) == 4


def test_client_resumes_at_its_step_count_after_skipping_rounds(monkeypatch):
    # seed 4 samples {a, b}, {b, c}, {a, d}: a skips round 1 and resumes in
    # round 2 at the step count its round-0 training left, so it draws its
    # second epoch's shuffle stream; c and d start from zeros
    ids = ["a", "b", "c", "d"]
    assert [sample_clients(ids, 0.5, r, 4) for r in range(3)] == [
        ["a", "b"], ["b", "c"], ["a", "d"]]
    cid_of = {client_stream_seed(4, cid): cid for cid in ids}
    entered, left, draws = [], [], []
    real_train, real_rng = federation.train_local, np.random.default_rng

    def train_local(*args, state=None, **kwargs):
        cid = cid_of[kwargs["seed"]]
        entered.append((cid, None if state is None
                        else (state.step, state.m.copy(), state.v.copy())))
        report = real_train(*args, state=state, **kwargs)
        left.append((cid, (report.state.step, report.state.m.copy(),
                           report.state.v.copy())))
        return report

    def default_rng(seed=None):
        if isinstance(seed, list) and len(seed) == 2 and seed[0] in cid_of:
            draws.append((cid_of[seed[0]], seed[1]))
        return real_rng(seed)

    monkeypatch.setattr(federation, "train_local", train_local)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    run_federated(SPEC, [client(cid) for cid in ids], fed(rounds=3, fraction=0.5),
                  FEDAVG, seed=4)
    assert [cid for cid, _ in entered] == ["a", "b", "b", "c", "a", "d"]
    assert [state is None for cid, state in entered] == [
        True, True, False, True, False, True]
    # three 8-window batches an epoch
    step, m, v = entered[4][1]
    assert left[0][0] == "a" and step == left[0][1][0] == 3
    assert np.array_equal(m, left[0][1][1]) and np.array_equal(v, left[0][1][2])
    assert draws == [("a", 0), ("b", 0), ("b", 1), ("c", 0), ("a", 1), ("d", 0)]


def test_adam_state_lives_from_first_training_to_last_sampled_round(monkeypatch):
    # at every local training, the Adam states still alive are those of the
    # clients that trained before and that a round from this one on samples
    # again; none outlives the session
    ids = list("abcdef")
    schedule = [sample_clients(ids, 0.5, r, 1) for r in range(5)]
    # d leaves after round 1, f after round 2 and b after round 3
    assert [s for s in schedule if "d" in s][-1] is schedule[1]
    cid_of = {client_stream_seed(1, cid): cid for cid in ids}
    rounds, last_trained, m_refs = [], {}, {}
    real_sample, real_train = federation.sample_clients, federation.train_local

    def sample_clients_(client_ids, fraction, round_index, seed):
        rounds.append(round_index)
        return real_sample(client_ids, fraction, round_index, seed)

    def train_local(*args, **kwargs):
        cid = cid_of[kwargs["seed"]]
        alive = {c for c, ref in m_refs.items() if ref() is not None}
        again = {c for c, t in last_trained.items()
                 if any(c in s for s in schedule[t + 1:])}
        assert alive == again, (rounds[-1], cid)
        report = real_train(*args, **kwargs)
        m_refs[cid] = weakref.ref(report.state.m)
        last_trained[cid] = rounds[-1]
        return report

    monkeypatch.setattr(federation, "sample_clients", sample_clients_)
    monkeypatch.setattr(federation, "train_local", train_local)
    run_federated(SPEC, [client(cid) for cid in ids], fed(rounds=5, fraction=0.5),
                  FEDAVG, seed=1)
    assert rounds == list(range(5))
    assert sorted(last_trained) == ids
    assert [c for c, ref in m_refs.items() if ref() is not None] == []


def test_aggregate_validation_is_count_weighted():
    counts = {"a": 12, "b": 4}
    clients = [client(cid, n_val=n) for cid, n in counts.items()]
    hist = run_federated(SPEC, clients, fed(rounds=2), FEDAVG)
    for record in hist.rounds:
        num = sum(
            record.client_stats[cid].val_mse * n for cid, n in counts.items()
        )
        assert record.agg_val_mse == pytest.approx(num / 16, rel=1e-15)
        mae_num = sum(
            record.client_stats[cid].val_mae * n for cid, n in counts.items()
        )
        assert record.agg_val_mae == pytest.approx(mae_num / 16, rel=1e-15)


def test_client_without_validation_windows_is_left_out_of_the_score(tmp_path):
    clients = [client("a"), client("b", n_val=0)]
    hist = run_federated(SPEC, clients, fed(rounds=2), FEDAVG, seed=3)
    for record in hist.rounds:
        a, b = record.client_stats["a"], record.client_stats["b"]
        assert b.val_mse is None and b.val_mae is None
        assert b.train_loss is not None and b.local_steps == 3
        # the round score weighs a's 8 validation windows only
        assert (record.agg_val_mse, record.agg_val_mae) == (a.val_mse, a.val_mae)
    _write_rounds_csv(tmp_path / "rounds.csv", hist)
    with open(tmp_path / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        empty = row["client"] == "b"
        assert (row["val_mse"] == "", row["val_mae"] == "") == (empty, empty)
        assert row["train_loss"] != ""


def test_best_round_is_validation_argmin():
    clients = [client("a"), client("b", seed=4)]
    hist = run_federated(SPEC, clients, fed(rounds=5), FEDAVG, seed=9)
    mses = [r.agg_val_mse for r in hist.rounds]
    assert hist.best_round == int(np.argmin(mses))
    # stored best weights reproduce the recorded best validation score
    total = sum(c.validation.count for c in clients)
    re_mse = sum(
        evaluate(SPEC, hist.best_global, c.validation)[0] * c.validation.count
        for c in clients
    ) / total
    assert re_mse == pytest.approx(min(mses), rel=1e-15)


def test_run_federated_deterministic():
    clients = [client("a"), client("b", seed=4)]
    h1 = run_federated(SPEC, clients, fed(rounds=3), FEDAVG, seed=1)
    h2 = run_federated(SPEC, clients, fed(rounds=3), FEDAVG, seed=1)
    assert np.array_equal(h1.final_global.values, h2.final_global.values)
    assert [r.sampled for r in h1.rounds] == [r.sampled for r in h2.rounds]
    assert [r.agg_val_mse for r in h1.rounds] == [r.agg_val_mse for r in h2.rounds]


def test_fedprox_mu_zero_matches_fedavg_bitwise():
    clients = [client("a"), client("b", seed=4)]
    base = run_federated(SPEC, clients, fed(rounds=3), FEDAVG)
    prox0 = run_federated(SPEC, clients, fed(rounds=3),
                          AggregatorConfig("fedprox", mu=0.0))
    proxp = run_federated(SPEC, clients, fed(rounds=3),
                          AggregatorConfig("fedprox", mu=0.5))
    assert np.array_equal(base.final_global.values, prox0.final_global.values)
    assert not np.array_equal(base.final_global.values, proxp.final_global.values)


# -------------------------------------------------------- baselines and tuning

def test_centralized_single_client_equals_individual():
    # the individual setting: early stopping on one client's own windows,
    # shuffled by that client's own stream
    cw = client("only")
    cent = run_centralized(SPEC, [cw], max_epochs=6, patience=3, seed=7)
    indiv = train_with_early_stopping(
        SPEC, init_model(SPEC, 7), cw.train, cw.validation, 6, 3,
        seed=client_stream_seed(7, "only"),
    )
    assert np.array_equal(cent.params.values, indiv.params.values)
    assert cent.val_losses == indiv.val_losses


def test_centralized_pools_all_clients():
    clients = [client("a", n_train=24), client("b", n_train=16, seed=4)]
    report = run_centralized(SPEC, clients, max_epochs=1, patience=1)
    # one epoch over 40 pooled windows at batch 8
    assert report.steps == 5


def test_single_client_run_learns_and_is_deterministic():
    cw = client("learner", n_train=48, n_val=16)
    initial = init_model(SPEC, 0)
    base_mse, _ = evaluate(SPEC, initial, cw.validation)
    r1 = run_centralized(SPEC, [cw], max_epochs=12, patience=12, seed=0)
    r2 = run_centralized(SPEC, [cw], max_epochs=12, patience=12, seed=0)
    assert np.array_equal(r1.params.values, r2.params.values)
    assert min(r1.val_losses) < base_mse


def test_fine_tune_zero_epochs_is_identity():
    cw = client("ft")
    start = init_model(SPEC, 2)
    same = fine_tune(SPEC, start, cw, epochs=0)
    assert np.array_equal(same.values, start.values)
    moved = fine_tune(SPEC, start, cw, epochs=2)
    again = fine_tune(SPEC, start, cw, epochs=2)
    assert not np.array_equal(moved.values, start.values)
    assert np.array_equal(moved.values, again.values)


def test_fine_tuned_weights_that_are_not_finite_raise(monkeypatch):
    nan_in_hidden_unit(monkeypatch, "ft", seed=2)
    with pytest.raises(DivergenceError,
                       match="client ft: fine-tuned weights are not finite"):
        fine_tune(SPEC, init_model(SPEC, 2), client("ft"), epochs=1, seed=2)


# -------------------------------------------------------------- communication

def test_megabytes_is_decimal():
    assert megabytes(2_347_200) == 2.3472
    assert megabytes(0) == 0.0


def test_ledger_reference_session_sizes():
    # 3 clients, full participation, LSTM-sized payload override: after 4
    # rounds each client has moved 2.3472 MB each way and the server 7.0416
    clients = [client("a"), client("b", seed=4), client("c", seed=5)]
    hist = run_federated(SPEC, clients, fed(rounds=5), FEDAVG)
    ledger = account_communication(hist, payload_bytes=586_800, upto_round=4)
    assert ledger.rounds_counted == 4
    for cid in ("a", "b", "c"):
        assert megabytes(ledger.per_client_uplink_bytes[cid]) == 2.3472
        assert megabytes(ledger.per_client_downlink_bytes[cid]) == 2.3472
    assert megabytes(ledger.server_rx_bytes) == 7.0416
    assert megabytes(ledger.server_tx_bytes) == 7.0416
    assert ledger.server_total_bytes == 2 * 7_041_600


def test_ledger_matches_round_records():
    clients = [client("a"), client("b", seed=4), client("c", seed=5)]
    hist = run_federated(SPEC, clients, fed(rounds=6, fraction=0.5), FEDAVG,
                         seed=3)
    ledger = account_communication(hist)
    assert ledger.payload_bytes == hist.payload_bytes
    participants = sum(len(r.sampled) for r in hist.rounds)
    assert ledger.server_rx_bytes == hist.payload_bytes * participants
    assert ledger.server_tx_bytes == hist.payload_bytes * participants
    assert sum(ledger.per_client_uplink_bytes.values()) == ledger.server_rx_bytes
    for cid in hist.client_ids:
        want = sum(
            hist.payload_bytes for r in hist.rounds if cid in r.sampled
        )
        assert ledger.per_client_uplink_bytes[cid] == want


def test_ledger_zero_rounds():
    hist = run_federated(SPEC, [client("a")], fed(rounds=0), FEDAVG)
    ledger = account_communication(hist)
    assert ledger.rounds_counted == 0
    assert ledger.server_total_bytes == 0
    assert ledger.per_client_uplink_bytes == {"a": 0}
    assert ledger.per_client_downlink_bytes == {"a": 0}


def test_ledger_validation():
    hist = run_federated(SPEC, [client("a")], fed(rounds=2), FEDAVG)
    with pytest.raises(FederationError):
        account_communication(hist, upto_round=3)
    with pytest.raises(FederationError):
        account_communication(hist, upto_round=-1)
    with pytest.raises(FederationError):
        account_communication(hist, payload_bytes=-5)


def test_transfer_estimate_closed_form():
    assert estimate_total_transfer_bytes(100_000, 5, 1.0, 2) == 2_000_000
    assert estimate_total_transfer_bytes(100, 10, 0.25, 3) == 2 * 100 * 2 * 3
    assert estimate_total_transfer_bytes(100, 3, 0.1, 4) == 2 * 100 * 1 * 4
    assert estimate_total_transfer_bytes(100, 3, 1.0, 0) == 0
    with pytest.raises(FederationError):
        estimate_total_transfer_bytes(100, 0, 1.0, 1)
    with pytest.raises(FederationError):
        estimate_total_transfer_bytes(100, 3, 0.0, 1)
    with pytest.raises(FederationError):
        estimate_total_transfer_bytes(100, 3, 1.0, -1)
