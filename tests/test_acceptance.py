"""Acceptance gate: one test per release criterion.

Each test is an end-to-end check at its stated tolerance; `pytest -v` gives
the per-criterion pass/fail lines. The slow criteria (07, 08, 09, 11) run
real federated sessions on synthetic cohorts and together take a few
minutes; they carry the `slow` marker, so `pytest -m "not slow"` skips them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fedcast.aggregation import (
    AggregatorConfig,
    ClientUpdate,
    ServerState,
    aggregate,
)
from fedcast.dataio import PreprocessConfig, TimeSeriesDataset, preprocess_clients
from fedcast.experiment import (
    DataConfig,
    ExperimentConfig,
    config_from_dict,
    load_config,
    run_experiment,
)
from fedcast.federation import (
    FederationConfig,
    account_communication,
    client_stream_seed,
    estimate_total_transfer_bytes,
    megabytes,
    run_centralized,
    run_federated,
    sample_clients,
)
from fedcast.metrics import evaluate_forecasts, ks_statistic, mae, nrmse, rmse
from fedcast.nn.models import ModelSpec, init_model, predict
from fedcast.nn.params import Layout, ParameterVector, TensorSpec
from fedcast.nn.training import loss_and_grad, train_local
from fedcast.synthetic import SyntheticClientSpec, SyntheticSpec, generate_synthetic

LSTM = ModelSpec(architecture="lstm")
MLP = ModelSpec(architecture="mlp")
FEDAVG = AggregatorConfig("fedavg")


def three_station_cohort(seed, spike_probability=0.01):
    """Three near-homogeneous stations with staggered daily phases."""
    levels = (1.0, 1.1, 0.9)
    phases = (0.0, 2.1, 4.2)
    # a magnitude without spikes has no effect, and the spec rejects it
    spikes = (dict(spike_probability=spike_probability, spike_magnitude=20.0)
              if spike_probability else {})
    clients = tuple(
        SyntheticClientSpec(
            client_id=f"bs{i}", days=2, base_level=levels[i],
            daily_amplitude=0.4, weekly_amplitude=0.1, noise_scale=0.05,
            phase=phases[i], **spikes,
        )
        for i in range(3)
    )
    return SyntheticSpec(clients=clients, seed=seed)


def weighted_test_nrmse(spec, clients, params):
    """Test-window-weighted mean NRMSE (original units) over a cohort."""
    num, den = 0.0, 0
    for cw in clients:
        preds = predict(spec, params, cw.test.inputs)
        report = evaluate_forecasts(preds, cw.test.targets, cw.scaler)
        num += report.avg_nrmse * cw.test.count
        den += cw.test.count
    return num / den


def federate(spec, clients, rounds, epochs, seed, aggregator=FEDAVG):
    return run_federated(
        spec,
        clients,
        FederationConfig(rounds=rounds, local_epochs=epochs),
        aggregator,
        seed,
    )


def test_criterion_01_communication_accounting_reference_session():
    # 586.8 KB payload, 3 clients, full participation, 4 rounds: each client
    # moves 2.3472 MB one way and the server 7.0416 MB, exact arithmetic
    spec = ModelSpec(architecture="mlp", window_size=4, n_features=3,
                     n_targets=3, hidden_sizes=(4,), batch_size=8)
    rng = np.random.Generator(np.random.PCG64(0))
    clients = preprocess_clients(
        [
            TimeSeriesDataset(
                client_id=f"bs{i}",
                timestamps=np.datetime64("2018-01-01T00:00:00", "s")
                + np.arange(40) * np.timedelta64(120, "s"),
                values=rng.uniform(1.0, 2.0, size=(40, 3)),
                features=("f0", "f1", "f2"),
            )
            for i in range(3)
        ],
        PreprocessConfig(window_size=4, use_flood_cap=False),
    )
    history = federate(spec, clients, rounds=4, epochs=1, seed=0)
    ledger = account_communication(history, payload_bytes=586_800)
    assert ledger.rounds_counted == 4
    for cid in ("bs0", "bs1", "bs2"):
        assert megabytes(ledger.per_client_uplink_bytes[cid]) == 2.3472
        assert megabytes(ledger.per_client_downlink_bytes[cid]) == 2.3472
    assert megabytes(ledger.server_rx_bytes) == 7.0416
    assert megabytes(ledger.server_tx_bytes) == 7.0416


def test_criterion_02_transfer_scaling_estimate():
    # 264 clients at fraction 0.1 sample 26 per round; 50 rounds of 586.8 KB
    # payloads move about 1.526 GB in total, within 10% of the 1.6 GB figure
    ids = [f"c{i}" for i in range(264)]
    assert len(sample_clients(ids, 0.1, 0, 0)) == 26
    total = estimate_total_transfer_bytes(586_800, 264, 0.1, 50)
    assert total == 2 * 586_800 * 26 * 50 == 1_525_680_000
    assert abs(total - 1.6e9) / 1.6e9 < 0.10


def test_criterion_03_aggregator_reductions_over_ten_rounds():
    # with mu=0 / beta=0 / uniform steps + rho=0, FedProx, FedAvgM and
    # FedNova all collapse to FedAvg over a full 10-round session
    data = generate_synthetic(three_station_cohort(0))
    clients = preprocess_clients(data, PreprocessConfig())
    assert len({c.train.count for c in clients}) == 1  # uniform local steps
    base = federate(MLP, clients, 10, 1, 0).final_global.values
    reductions = {
        "fedprox": AggregatorConfig("fedprox", mu=0.0),
        "fedavgm": AggregatorConfig("fedavgm", beta=0.0),
        "fednova": AggregatorConfig("fednova", rho=0.0),
    }
    for name, aggregator in reductions.items():
        final = federate(MLP, clients, 10, 1, 0, aggregator).final_global.values
        assert np.max(np.abs(final - base)) < 1e-12, name


def test_criterion_04_adaptive_aggregator_oracles():
    # single aggregate steps from fresh state vs an independently scripted
    # evaluation of the adaptive recurrences, 100 random 10-element trials
    layout = Layout((TensorSpec("w", (10,)),), tag="toy")
    # (b1, b2) of each recurrence; fedadagrad has no first moment (b1 = 0)
    # and sums squares without decay, so its b2 never enters the oracle
    betas = {"fedadagrad": (0.0, 0.99), "fedyogi": (0.9, 0.99),
             "fedadam": (0.9, 0.99)}
    strategies = tuple(betas)
    rng = np.random.Generator(np.random.PCG64(2024))
    for trial in range(100):
        strategy = strategies[trial % 3]
        b1, b2 = betas[strategy]
        eta = float(rng.uniform(0.01, 1.0))
        lam = float(rng.uniform(1e-4, 1e-1))
        w = rng.standard_normal(10)
        dw = rng.standard_normal(10)
        # the client reports w + dw; the server derives dw back from w
        update = ClientUpdate(
            client_id="a",
            local_params=ParameterVector(w + dw, layout),
            n_samples=int(rng.integers(1, 50)),
            local_steps=int(rng.integers(1, 20)),
        )
        got, _ = aggregate(
            AggregatorConfig(strategy, server_lr=eta, adaptivity=lam),
            ServerState.zeros(10),
            ParameterVector(w.copy(), layout),
            [update],
        )
        m = (1.0 - b1) * dw
        sq = dw * dw
        if strategy == "fedadagrad":
            u = sq
        elif strategy == "fedyogi":
            u = -(1.0 - b2) * sq * np.sign(-sq)
        else:
            u = (1.0 - b2) * sq
        want = w + eta * m / (np.sqrt(u) + lam)
        assert np.max(np.abs(got.values - want)) < 1e-12, (trial, strategy)


def test_criterion_05_gradient_checks_all_architectures():
    # central finite differences on the full-size models, batch of 4,
    # sampled coordinates from every tensor. The deep relu stacks put many
    # pre-activations within 1e-5 of zero, and a secant across a relu kink
    # does not estimate the derivative; a two-step-size consistency check
    # rejects those coordinates and the gradient is verified at smooth
    # points only.
    rng = np.random.Generator(np.random.PCG64(7))
    inputs = rng.uniform(0.0, 1.0, size=(4, 10, 11))
    targets = rng.uniform(0.0, 1.0, size=(4, 5))
    h = 1e-6

    def central(spec, params, k, step):
        bumped = params.values.copy()
        bumped[k] += step
        up, _ = loss_and_grad(spec, ParameterVector(bumped, params.layout),
                              inputs, targets)
        bumped[k] -= 2 * step
        down, _ = loss_and_grad(spec, ParameterVector(bumped, params.layout),
                                inputs, targets)
        return (up - down) / (2 * step)

    for arch in ("mlp", "rnn", "lstm", "gru", "cnn"):
        spec = ModelSpec(architecture=arch)
        params = init_model(spec, seed=1)
        _, grad = loss_and_grad(spec, params, inputs, targets)
        coord_rng = np.random.Generator(np.random.PCG64(11))
        worst = 0.0
        for tensor in params.layout.tensors:
            start, end, _ = params.layout.offsets[tensor.name]
            candidates = coord_rng.choice(
                end - start, size=min(12, end - start), replace=False
            )
            verified = 0
            for k in (start + candidates):
                if verified == 3:
                    break
                full = central(spec, params, k, h)
                half = central(spec, params, k, h / 2)
                if abs(full - half) > 1e-5 * max(abs(full), abs(half), 1e-6):
                    continue  # kink inside the secant window
                verified += 1
                rel = abs(half - grad[k]) / max(abs(half), abs(grad[k]), 1e-6)
                worst = max(worst, rel)
            assert verified >= 1, (arch, tensor.name)
        assert worst < 1e-4, (arch, worst)


def test_criterion_06_single_client_federation_bridge():
    # f=1, E=1, FedAvg eta=1: 20 rounds over one client must equal 20
    # uninterrupted local epochs bit for bit
    data = generate_synthetic(three_station_cohort(3))
    client = preprocess_clients(data[:1], PreprocessConfig())[0]
    # run_federated starts from init_model(spec, seed)
    initial = init_model(MLP, seed=5)
    history = run_federated(
        MLP, [client],
        FederationConfig(rounds=20, local_epochs=1),
        FEDAVG,
        seed=5,
    )
    straight = train_local(
        MLP, initial, client.train, epochs=20,
        seed=client_stream_seed(5, client.client_id),
    )
    assert np.array_equal(
        history.final_global.values, straight.params.values
    )


def inject_train_spikes(ds, seed, prob=0.05, magnitude=12.0):
    # spikes only in the first 60% of rows (the chronological train split),
    # so capping cleans the training signal while the test stays untouched
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 99])))
    values = ds.values.copy()
    n_train = int(np.floor(0.6 * len(values)))
    hit = rng.random(n_train) < prob
    boost = 1.0 + magnitude * rng.random(n_train)
    values[:n_train] *= np.where(hit, boost, 1.0)[:, None]
    return TimeSeriesDataset(
        client_id=ds.client_id, timestamps=ds.timestamps, values=values,
        features=ds.features,
    )


@pytest.mark.slow
def test_criterion_07_flood_cap_beats_no_preprocessing_on_spiky_traces():
    # paired 5-seed comparison: (10, 90) flooring/capping vs raw windows
    with_cap, without_cap = [], []
    for seed in range(5):
        base = generate_synthetic(three_station_cohort(seed, spike_probability=0.0))
        data = [
            inject_train_spikes(ds, seed + 7 * i) for i, ds in enumerate(base)
        ]
        capped = preprocess_clients(data, PreprocessConfig(use_flood_cap=True))
        raw = preprocess_clients(data, PreprocessConfig(use_flood_cap=False))
        h_cap = federate(LSTM, capped, 4, 1, seed)
        h_raw = federate(LSTM, raw, 4, 1, seed)
        with_cap.append(weighted_test_nrmse(LSTM, capped, h_cap.best_global))
        without_cap.append(weighted_test_nrmse(LSTM, raw, h_raw.best_global))
    assert float(np.mean(with_cap)) < float(np.mean(without_cap)), (
        with_cap, without_cap
    )


def drifting_cohort(seed):
    # bs0 rises into its test period (weekly term monotone up across the
    # 2-day span); bs1/bs2 are stationary and cover bs0's risen range
    clients = (
        SyntheticClientSpec(client_id="bs0", days=2, base_level=1.0,
                            daily_amplitude=0.35, weekly_amplitude=0.5,
                            noise_scale=0.04, phase=-np.pi),
        SyntheticClientSpec(client_id="bs1", days=2, base_level=1.5,
                            daily_amplitude=0.5, weekly_amplitude=0.0,
                            noise_scale=0.04, phase=1.0),
        SyntheticClientSpec(client_id="bs2", days=2, base_level=1.0,
                            daily_amplitude=0.45, weekly_amplitude=0.0,
                            noise_scale=0.04, phase=2.2),
    )
    return SyntheticSpec(clients=clients, seed=seed)


@pytest.mark.slow
def test_criterion_08_global_scaling_at_least_as_good_as_local():
    # when one client drifts beyond its own training range, globally shared
    # min-max bounds transfer knowledge from the stationary clients
    global_scores, local_scores = [], []
    for seed in range(5):
        data = generate_synthetic(drifting_cohort(seed))
        global_clients = preprocess_clients(
            data, PreprocessConfig(scaling_scope="global")
        )
        local_clients = preprocess_clients(
            data, PreprocessConfig(scaling_scope="local")
        )
        h_global = federate(LSTM, global_clients, 4, 1, seed)
        h_local = federate(LSTM, local_clients, 4, 1, seed)
        global_scores.append(
            weighted_test_nrmse(LSTM, global_clients, h_global.best_global)
        )
        local_scores.append(
            weighted_test_nrmse(LSTM, local_clients, h_local.best_global)
        )
    assert float(np.mean(global_scores)) <= float(np.mean(local_scores)), (
        global_scores, local_scores
    )


@pytest.mark.slow
def test_criterion_09_federated_close_to_centralized():
    # R=30, E=3 federated LSTM vs 270-epoch early-stopped centralized
    # training on the pooled windows: within 15% on validation MAE
    seed = 0
    data = generate_synthetic(three_station_cohort(seed))
    clients = preprocess_clients(data, PreprocessConfig())
    history = federate(LSTM, clients, rounds=30, epochs=3, seed=seed)
    fed_mae = history.rounds[history.best_round].agg_val_mae
    report = run_centralized(LSTM, clients, max_epochs=270, patience=50,
                             seed=seed)
    cent_mae = report.val_maes[report.best_epoch]
    assert fed_mae <= 1.15 * cent_mae, (fed_mae, cent_mae)


def test_criterion_10_metric_oracles():
    # hand fixtures
    pred = np.array([2.0, 4.0])
    truth = np.array([1.0, 1.0])
    assert mae(pred, truth) == 2.0
    assert rmse(pred, truth) == np.sqrt(5.0)
    assert nrmse(pred, truth) == np.sqrt(5.0)
    y = np.array([3.0, 7.0])
    assert mae(y, y) == rmse(y, y) == nrmse(y, y) == 0.0
    assert mae(y + 2.0, y) == rmse(y + 2.0, y) == 2.0

    # mae <= rmse over 1,000 random instances
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        p = rng.normal(0, 10, size=n)
        t = rng.normal(0, 10, size=n)
        assert mae(p, t) <= rmse(p, t) + 1e-12

    # KS vs brute-force ECDF sup over 200 random small-sample pairs
    for _ in range(200):
        a = rng.normal(0, 1, size=int(rng.integers(1, 12)))
        b = rng.normal(rng.uniform(-1, 1), 1, size=int(rng.integers(1, 12)))
        best = 0.0
        for x in np.concatenate([a, b]):
            fa = np.sum(a <= x) / len(a)
            fb = np.sum(b <= x) / len(b)
            best = max(best, abs(fa - fb))
        assert abs(ks_statistic(a, b) - best) < 1e-12


@pytest.mark.slow
def test_criterion_11_manifest_rerun_byte_identical(tmp_path):
    # the full federated experiment, run twice from the same manifest,
    # writes byte-identical round CSVs and checkpoints
    config = ExperimentConfig(
        name="determinism-gate",
        setting="federated",
        output_dir=str(tmp_path / "first"),
        seeds=(0, 1),
        data=DataConfig(synthetic=three_station_cohort(0)),
        preprocessing=PreprocessConfig(),
        model=LSTM,
        federation=FederationConfig(rounds=10, local_epochs=1),
        aggregator=FEDAVG,
    )
    run_experiment(config)
    first = Path(config.output_dir)
    replay_config = load_config(first / "manifest.json")
    assert config_from_dict(json.loads((first / "manifest.json").read_text())) \
        == config
    run_experiment(replay_config, output_dir=str(tmp_path / "second"))
    second = tmp_path / "second"
    for seed in (0, 1):
        for name in ("rounds.csv", "checkpoint.bin", "metrics.json"):
            rel = Path("base") / f"seed-{seed}" / name
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    assert (first / "summary.json").read_bytes() == (
        second / "summary.json"
    ).read_bytes()
