import json

import pytest
import yaml

from fedcast import experiment
from fedcast.cli import main
from fedcast.dataio import FEATURES, load_csv, save_csv
from helpers import nan_in_hidden_unit


def write_config(tmp_path, setting="federated", **overrides):
    raw = {
        "name": "cli-check",
        "setting": setting,
        "output_dir": str(tmp_path / "out"),
        "seeds": [0],
        "data": {
            "synthetic": {
                "seed": 0,
                "clients": [
                    {"client_id": "bs000", "days": 1, "noise_scale": 0.04},
                    {"client_id": "bs001", "days": 1, "base_level": 1.4,
                     "phase": 1.2, "noise_scale": 0.04},
                ],
            }
        },
        "preprocessing": {"window_size": 6},
        "model": {"architecture": "mlp", "window_size": 6, "hidden_sizes": [16]},
    }
    if setting == "federated":
        raw["federation"] = {"rounds": 2, "local_epochs": 1}
        raw["aggregator"] = {"strategy": "fedavg"}
    else:
        raw["training"] = {"max_epochs": 2, "patience": 2}
    raw.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_generate_writes_loadable_traces(tmp_path, capsys):
    config = write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out-dir", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "bs000.csv" in out and "bs001.csv" in out
    ds = load_csv(data_dir / "bs000.csv")
    assert ds.client_id == "bs000"
    assert len(ds.values) == 720


def test_generate_requires_synthetic_data(tmp_path, capsys):
    config = write_config(
        tmp_path, setting="centralized",
        data={"paths": [str(tmp_path / "missing.csv")]},
    )
    assert main(["generate", "--config", str(config), "--out-dir",
                 str(tmp_path / "d")]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_out_dir_that_is_a_file(tmp_path, capsys):
    config = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["generate", "--config", str(config), "--out-dir", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err


def test_run_executes_experiment(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "'cli-check' (federated): 1 runs" in out
    assert "avg_nrmse=" in out
    out_dir = tmp_path / "out"
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "base" / "seed-0" / "rounds.csv").exists()


def test_run_overrides_output_dir_and_seeds(tmp_path):
    config = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["run", "--config", str(config), "--output-dir", str(other),
                 "--seeds", "3,4"]) == 0
    assert (other / "base" / "seed-3" / "metrics.json").exists()
    assert (other / "base" / "seed-4" / "metrics.json").exists()
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_seed_override(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--seeds", "a,b"]) == 2
    assert main(["run", "--config", str(config), "--seeds", ","]) == 2
    assert main(["run", "--config", str(config), "--seeds=-1"]) == 2
    assert main(["run", "--config", str(config), "--seeds", "0,0"]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"name": "x", "setting": "bogus"}))
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    out_dir = tmp_path / "never"

    def client(**fields):
        return {"data": {"synthetic": {"clients": [{"client_id": "bs000", **fields}]}}}

    for field, override in [
        # sections that are not mappings name their field instead of a traceback
        ("config.data.synthetic", {"data": {"synthetic": "abc"}}),
        ("config.data.synthetic", {"data": {"synthetic": [1, 2]}}),
        ("config.aggregator", {"aggregator": [1]}),
        # values of the wrong type or out of range fail before any run starts
        ("config.seeds[0]", {"seeds": [True]}),
        ("config.seeds", {"seeds": [-1]}),
        ("config.seeds", {"seeds": [0, 0]}),
        ("config.federation.rounds", {
            "federation": {"rounds": 1.5, "local_epochs": 1}
        }),
        ("config.federation.local_epochs", {
            "federation": {"rounds": 2, "local_epochs": 0}
        }),
        ("config.fine_tune", {"fine_tune": "false"}),
        ("config.grid.mu[0]", {"grid": {"mu": ["x"]}}),
        ("config.data.synthetic.clients[0].days", client(days=1.5)),
        ("config.data.synthetic.clients[0].client_id", client(client_id=7)),
        ("config.model.hidden_sizes[0]", {
            "model": {"architecture": "mlp", "hidden_sizes": [1.5]}
        }),
        ("config.output_dir", {"output_dir": 5}),
        # a model shape the data cannot feed, grid cells that would share a
        # directory, and a percentile override for a client not in the cohort
        ("config.model", {"preprocessing": {"window_size": 5}}),
        ("config.model", {"model": {"architecture": "mlp", "window_size": 6,
                                    "n_targets": 3}}),
        ("config.grid", {"grid": {"mu": [0.1, 0.1000001]},
                         "aggregator": {"strategy": "fedprox"}}),
        ("per_client_percentiles names clients not in the cohort: ['bs999']", {
            "preprocessing": {"window_size": 6,
                              "per_client_percentiles": {"bs999": [5.0, 95.0]}}
        }),
        # the run seed is the only seed; a federation seed would be ignored
        ("config.federation: unknown keys ['seed']", {
            "federation": {"rounds": 2, "local_epochs": 1, "seed": 7}
        }),
        # knobs that would change nothing: a grid key the strategy never
        # reads, percentile overrides with flooring and capping off (a
        # trailing newline pins the end of a message)
        ("config.grid: grid key 'mu' is not read by strategy 'fedavg', which "
         "reads ['server_lr']\n", {"grid": {"mu": [0.1, 1.0]}}),
        ("config.preprocessing.per_client_percentiles", {
            "preprocessing": {"window_size": 6, "use_flood_cap": False,
                              "per_client_percentiles": {"bs000": [40.0, 60.0]}}
        }),
        ("config.aggregator.mu: mu 0.5 is not read by strategy 'fedavg'", {
            "aggregator": {"strategy": "fedavg", "mu": 0.5}
        }),
        # a grid value out of its field's range fails with its cell, before
        # the first cell trains
        ("config.grid: grid cell mu=-1: mu must be >= 0", {
            "grid": {"mu": [0.1, -1.0]}, "aggregator": {"strategy": "fedprox"}
        }),
        ("config.grid: grid cell server_lr=0: server_lr must be positive", {
            "grid": {"server_lr": [0.0]}
        }),
        # a section or value that the setting never reads
        ("config.federation: federation FederationConfig(rounds=2, local_epochs=1, "
         "sampling_fraction=1.0) has no effect with setting 'centralized'\n", {
            "setting": "centralized", "federation": {"rounds": 2, "local_epochs": 1}
        }),
        ("config.aggregator: aggregator AggregatorConfig(strategy='fedavg', "
         "server_lr=1.0, mu=0.0, beta=0.0, rho=0.0, beta1=0.9, beta2=0.99, "
         "adaptivity=0.001) has no effect with setting 'individual'\n", {
            "setting": "individual", "aggregator": {"strategy": "fedavg"}
        }),
        ("config.training: training TrainingConfig(max_epochs=5, patience=50) has "
         "no effect with setting 'federated'\n", {
            "training": {"max_epochs": 5}
        }),
        ("config.fine_tune_epochs: fine_tune_epochs 7 has no effect", {
            "fine_tune_epochs": 7
        }),
        ("config.fine_tune_epochs: fine_tune_epochs must be >= 1", {
            "fine_tune": True, "fine_tune_epochs": 0
        }),
        ("config.data.synthetic.clients[0].spike_magnitude: spike_magnitude 3.0 "
         "has no effect with spike_probability 0", client(spike_magnitude=3.0)),
        ("config.data.synthetic.clients[0].spike_magnitude: spike_magnitude must "
         "be >= 1", client(spike_probability=0.1, spike_magnitude=-5.0)),
        ("config.preprocessing.lower_percentile: lower_percentile 5.0 has no "
         "effect with use_flood_cap false", {
             "preprocessing": {"window_size": 6, "use_flood_cap": False,
                               "lower_percentile": 5.0}
         }),
        ("config.preprocessing.upper_percentile: upper_percentile 95.0 has no "
         "effect with use_flood_cap false", {
             "preprocessing": {"window_size": 6, "use_flood_cap": False,
                               "upper_percentile": 95.0}
         }),
        # a start numpy cannot read, and client ids that are no file name stem
        ("config.data.synthetic.clients[0].start: start must be",
         client(start="garbage")),
        ("config.data.synthetic.clients[0].start: start must be",
         client(start="2018-13-45")),
        ("config.data.synthetic.clients[0].client_id: client_id must be",
         client(client_id="../escaped")),
        ("config.data.synthetic.clients[0].client_id: client_id must be",
         client(client_id="")),
    ] + [
        # one synthetic day splits 432/144/144 rows, so window 150 leaves no
        # test (or validation) windows in any setting
        ("bs000, bs001: no test windows", {
            "setting": setting, "preprocessing": {"window_size": 150},
            "model": {"architecture": "mlp", "window_size": 150,
                      "hidden_sizes": [4]},
        })
        for setting in ("individual", "centralized", "federated")
    ]:
        bad = write_config(tmp_path, **override)
        assert main(["run", "--config", str(bad), "--output-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out_dir.exists()
    # generate writes each trace as <client_id>.csv inside --out-dir and
    # nowhere else, so a client id that is no file name stem writes nothing
    for client_id in ("../escaped", "", ".hidden", "a/b"):
        bad = write_config(tmp_path, **client(client_id=client_id))
        before = sorted(tmp_path.rglob("*"))
        assert main(["generate", "--config", str(bad),
                     "--out-dir", str(out_dir / "traces")]) == 2
        err = capsys.readouterr().err
        assert "config.data.synthetic.clients[0].client_id" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
    # a file that is not YAML, or not a file, is named in the error
    broken = tmp_path / "broken.yaml"
    broken.write_text("name: [\n")
    for source in (broken, tmp_path):
        assert main(["run", "--config", str(source), "--output-dir", str(out_dir)]) == 2
        assert str(source) in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "kind", ["directory", "missing", "not-utf8", "over-limit-field"]
)
def test_run_rejects_unreadable_data_path(tmp_path, capsys, kind):
    path = tmp_path / "bs000.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"time,\xff\xfe\n")
    elif kind == "over-limit-field":  # longer than csv.field_size_limit()
        cells = ["1" * 140_000] + ["1"] * (len(FEATURES) - 1)
        path.write_text(",".join(("time",) + FEATURES) + "\n2018-01-01T00:00:00,"
                        + ",".join(cells) + "\n")
    config = write_config(tmp_path, setting="centralized", data={"paths": [str(path)]})
    out_dir = tmp_path / "never"
    assert main(["run", "--config", str(config), "--output-dir", str(out_dir)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_rejects_a_trace_too_short_to_split(tmp_path, capsys):
    path = tmp_path / "bs000.csv"
    rows = [f"2018-01-01T00:0{i}:00," + ",".join(["1.0"] * len(FEATURES))
            for i in range(4)]
    path.write_text("\n".join([",".join(("time",) + FEATURES)] + rows) + "\n")
    config = write_config(tmp_path, setting="centralized", data={"paths": [str(path)]})
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bs000: need at least 5 rows to split, have 4\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["DownLink", "UpLink"])
def test_run_rejects_a_zero_mean_traffic_target(tmp_path, capsys, target):
    # the headline NRMSE divides by each traffic target's test mean, so an
    # all-zero column fails before training, not in scoring after it
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(data_dir)]) == 0
    trace = load_csv(data_dir / "bs001.csv")
    trace.values[:, FEATURES.index(target)] = 0.0
    save_csv(trace, data_dir / "bs001.csv")
    paths = [str(data_dir / "bs000.csv"), str(data_dir / "bs001.csv")]
    config = write_config(tmp_path, setting="centralized", data={"paths": paths})
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: bs001: {target} has zero mean over the test windows, so its "
        "NRMSE is undefined\n"
    )
    assert not (tmp_path / "out").exists()


def strict_json(path):
    """path's JSON, refusing the NaN and Infinity tokens that JSON lacks."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_undefined_nrmse_of_a_secondary_target_is_written_as_null(tmp_path):
    # an all-zero RNTI Count has zero mean, so its NRMSE is undefined; the
    # run still scores the traffic targets and writes strict JSON
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(data_dir)]) == 0
    paths = []
    for cid in ("bs000", "bs001"):
        trace = load_csv(data_dir / f"{cid}.csv")
        trace.values[:, FEATURES.index("RNTI Count")] = 0.0
        paths.append(data_dir / f"{cid}.csv")
        save_csv(trace, paths[-1])
    config = write_config(tmp_path, setting="centralized",
                          data={"paths": [str(p) for p in paths]})
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    metrics = strict_json(out / "base" / "seed-0" / "metrics.json")
    summary = strict_json(out / "summary.json")
    for report in metrics["per_client"].values():
        nrmse = report["per_target_nrmse"]
        assert nrmse[2] is None
        assert all(isinstance(v, float) for i, v in enumerate(nrmse) if i != 2)
    assert summary["cells"][0]["runs"][0]["per_client"] == metrics["per_client"]


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["federated", "centralized"])
def test_run_that_diverges_exits_2_with_one_line(tmp_path, capsys, setting):
    # Adam at lr 1e300 makes the weights non-finite within the first epoch
    config = write_config(tmp_path, setting=setting, model={
        "architecture": "mlp", "window_size": 6, "hidden_sizes": [16],
        "learning_rate": 1.0e300,
    })
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "epoch 0" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list((tmp_path / "out").rglob("metrics.json"))


def test_nan_weights_behind_a_relu_exit_2_with_one_line(tmp_path, capsys,
                                                        monkeypatch):
    # the MLP still predicts finite values with NaN in one hidden unit, so
    # only the check of the weights themselves can refuse them
    nan_in_hidden_unit(monkeypatch, "bs001", seed=0)
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 0, client bs001: local weights are not finite\n"
    assert not list((tmp_path / "out").rglob("checkpoint*.bin"))


def test_nan_fine_tuned_weights_exit_2_with_one_line(tmp_path, capsys,
                                                    monkeypatch):
    # centralized training never calls train_local, so only fine-tuning
    # returns the NaN unit, which the MLP's ReLU hides from its scores
    nan_in_hidden_unit(monkeypatch, "bs001", seed=0)
    config = write_config(tmp_path, setting="centralized", fine_tune=True)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: client bs001: fine-tuned weights are not finite\n"
    assert not list((tmp_path / "out").rglob("metrics.json"))


@pytest.mark.parametrize("factor, what", [(1e160, "scores"),
                                          (float("inf"), "predictions")])
def test_test_scores_that_overflow_exit_2_with_one_line(tmp_path, capsys,
                                                       monkeypatch, factor, what):
    # finite weights whose test predictions overflow, or whose finite
    # predictions overflow when squared (an infinite RMSE): the run is refused
    # before its directory is made
    real = experiment.predict
    monkeypatch.setattr(experiment, "predict",
                        lambda *args: real(*args) * factor)
    config = write_config(tmp_path, setting="centralized")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: client bs000: test {what} are not finite\n"
    assert not (tmp_path / "out" / "base").exists()


@pytest.mark.parametrize("setting", ["federated", "centralized"])
def test_run_that_diverges_leaves_no_empty_directory(tmp_path, setting):
    # a run's directory is made with its first artifact, once training is done
    config = write_config(tmp_path, setting=setting, model={
        "architecture": "mlp", "window_size": 6, "hidden_sizes": [16],
        "learning_rate": 1.0e300,
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(config)]) == 2
    dirs = [p for p in [out, *out.rglob("*")] if p.is_dir()]
    assert [p for p in dirs if not any(p.iterdir())] == []


def test_full_chain_generate_run_report(tmp_path, capsys):
    # generate traces, rerun the same experiment from CSV paths, report
    gen_config = write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(gen_config),
                 "--out-dir", str(data_dir)]) == 0

    raw = yaml.safe_load(gen_config.read_text())
    raw["data"] = {"paths": [str(data_dir / "bs000.csv"),
                             str(data_dir / "bs001.csv")]}
    raw["output_dir"] = str(tmp_path / "from-csv")
    csv_config = tmp_path / "from-csv.yaml"
    csv_config.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(csv_config)]) == 0

    plot = tmp_path / "plot.csv"
    assert main(["report", "--runs", str(tmp_path / "from-csv"),
                 "--out", str(plot)]) == 0
    assert "rows)" in capsys.readouterr().out
    header = plot.read_text().split("\n", 1)[0]
    assert header == "experiment,cell,seed,round,metric,value"

    # the CSV round trip preserves the synthetic traces exactly, so both
    # paths must produce identical metrics
    direct = json.loads(
        (tmp_path / "from-csv" / "base" / "seed-0" / "metrics.json").read_text()
    )
    assert main(["run", "--config", str(gen_config)]) == 0
    synthetic = json.loads(
        (tmp_path / "out" / "base" / "seed-0" / "metrics.json").read_text()
    )
    assert direct["avg_nrmse"] == synthetic["avg_nrmse"]


def test_report_labels_individual_curves_by_client(tmp_path, capsys):
    config = write_config(tmp_path, setting="individual")
    assert main(["run", "--config", str(config)]) == 0
    plot = tmp_path / "plot.csv"
    assert main(["report", "--runs", str(tmp_path / "out"), "--out", str(plot)]) == 0
    labels = {line.split(",")[4] for line in plot.read_text().split("\n")[1:-1]}
    assert labels == {"avg_nrmse", "avg_mae", "avg_rmse", "val_mse[bs000]",
                      "val_mae[bs000]", "val_mse[bs001]", "val_mae[bs001]"}


def test_report_rejects_unfinished_dir(tmp_path, capsys):
    plot = tmp_path / "p.csv"
    assert main(["report", "--runs", str(tmp_path), "--out", str(plot)]) == 2
    assert "summary.json" in capsys.readouterr().err
    # a summary that is not JSON, lacks name or cells, has a cell without
    # runs or a run without a seed, is named too
    summary = tmp_path / "summary.json"
    no_seed = {"avg_nrmse": 0.5, "avg_mae": 0.1, "avg_rmse": 0.2}
    for text in (
        "{not json",
        json.dumps({"cells": []}),
        json.dumps({"name": "x"}),
        json.dumps({"name": "x", "cells": [{"cell": "base"}]}),
        json.dumps({"name": "x", "cells": [{"cell": "base", "runs": [no_seed]}]}),
    ):
        summary.write_text(text)
        assert main(["report", "--runs", str(tmp_path), "--out", str(plot)]) == 2
        assert str(summary) in capsys.readouterr().err
    # so is a curve CSV whose round column is not an integer
    summary.write_text(json.dumps({"name": "x", "cells": [{"cell": "base", "runs": [
        {"seed": 0, **no_seed}]}]}))
    rounds = tmp_path / "base" / "seed-0" / "rounds.csv"
    rounds.parent.mkdir(parents=True)
    rounds.write_text("round,client,agg_val_mse\nx,bs000,1.0\n")
    assert main(["report", "--runs", str(tmp_path), "--out", str(plot)]) == 2
    assert str(rounds) in capsys.readouterr().err
    assert not plot.exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
