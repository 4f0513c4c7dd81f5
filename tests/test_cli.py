import json

import pytest
import yaml

from fedcast.cli import main
from fedcast.dataio import load_csv


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
        # reads, percentile overrides with flooring and capping off
        ("config.grid: grid key 'mu' is not a tunable parameter of strategy "
         "'fedavg'", {"grid": {"mu": [0.1, 1.0]}}),
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
        ("config.federation: federation applies to the federated setting only", {
            "setting": "centralized", "federation": {"rounds": 2, "local_epochs": 1}
        }),
        ("config.aggregator: aggregator applies to the federated setting only", {
            "setting": "individual", "aggregator": {"strategy": "fedavg"}
        }),
        ("config.training: training budget applies to the individual", {
            "training": {"max_epochs": 5}
        }),
        ("config.fine_tune_epochs: fine_tune_epochs 7 has no effect", {
            "fine_tune_epochs": 7
        }),
        ("config.data.synthetic.clients[0].spike_magnitude: spike_magnitude 3.0 "
         "has no effect with spike_probability 0", client(spike_magnitude=3.0)),
        ("config.data.synthetic.clients[0].spike_magnitude: spike_magnitude must "
         "be >= 1", client(spike_probability=0.1, spike_magnitude=-5.0)),
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
    # a file that is not YAML, or not a file, is named in the error
    broken = tmp_path / "broken.yaml"
    broken.write_text("name: [\n")
    for source in (broken, tmp_path):
        assert main(["run", "--config", str(source), "--output-dir", str(out_dir)]) == 2
        assert str(source) in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["directory", "missing", "not-utf8"])
def test_run_rejects_unreadable_data_path(tmp_path, capsys, kind):
    path = tmp_path / "bs000.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"time,\xff\xfe\n")
    config = write_config(tmp_path, setting="centralized", data={"paths": [str(path)]})
    out_dir = tmp_path / "never"
    assert main(["run", "--config", str(config), "--output-dir", str(out_dir)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


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
