import csv
import dataclasses
import gc
import json
import re
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast import experiment
from fedcast.aggregation import AggregatorConfig
from fedcast.dataio import DataError, PreprocessConfig, save_csv
from fedcast.experiment import (
    ConfigError,
    DataConfig,
    ExperimentConfig,
    TrainingConfig,
    config_from_dict,
    config_to_dict,
    emit_plot_data,
    load_config,
    materialize_data,
    run_experiment,
)
from fedcast.federation import FederationConfig
from fedcast.nn.models import ARCHITECTURE_FIELDS, ModelSpec, layout_for
from fedcast.nn.params import deserialize_params
from fedcast.synthetic import SyntheticClientSpec, SyntheticSpec
from helpers import random_dataset


def tiny_cohort(n=2, days=1):
    clients = tuple(
        SyntheticClientSpec(
            client_id=f"bs{i:03d}", days=days, base_level=1.0 + 0.3 * i,
            phase=1.1 * i, noise_scale=0.04,
        )
        for i in range(n)
    )
    return SyntheticSpec(clients=clients, seed=0)


def tiny_config(tmp_path, setting="federated", **kw):
    base = dict(
        name="tiny",
        setting=setting,
        output_dir=str(tmp_path / "out"),
        seeds=(0,),
        data=DataConfig(synthetic=tiny_cohort()),
        preprocessing=PreprocessConfig(window_size=6),
        model=ModelSpec(architecture="mlp", window_size=6, hidden_sizes=(16,)),
    )
    if setting == "federated":
        base["federation"] = FederationConfig(rounds=2, local_epochs=1)
        base["aggregator"] = AggregatorConfig("fedavg")
    else:
        base["training"] = TrainingConfig(max_epochs=2, patience=2)
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- configuration

def test_config_dict_round_trip(tmp_path):
    config = tiny_config(
        tmp_path,
        grid={"server_lr": (0.5, 1.0)},
        fine_tune=True,
        fine_tune_epochs=2,
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_config_yaml_round_trip(tmp_path):
    config = tiny_config(tmp_path)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(config)))
    assert load_config(path) == config


def test_manifest_wrapper_is_accepted(tmp_path):
    config = tiny_config(tmp_path)
    wrapped = {"format": 1, "package_version": "0", "config": config_to_dict(config)}
    assert config_from_dict(wrapped) == config


def test_csv_paths_config_round_trip(tmp_path):
    config = tiny_config(
        tmp_path, data=DataConfig(paths=("a.csv", "b.csv")), setting="centralized"
    )
    again = config_from_dict(config_to_dict(config))
    assert again.data.paths == ("a.csv", "b.csv")


def test_unknown_keys_name_the_field_path(tmp_path):
    raw = config_to_dict(tiny_config(tmp_path))
    raw["bogus"] = 1
    with pytest.raises(ConfigError, match=r"config: unknown keys \['bogus'\]"):
        config_from_dict(raw)
    raw.pop("bogus")
    raw["model"]["bogus"] = 1
    with pytest.raises(ConfigError, match="config.model"):
        config_from_dict(raw)


def test_missing_required_key(tmp_path):
    raw = config_to_dict(tiny_config(tmp_path))
    raw.pop("setting")
    with pytest.raises(ConfigError, match="config.setting: required"):
        config_from_dict(raw)


def test_config_validation_rules(tmp_path):
    with pytest.raises(ValueError, match="setting"):
        tiny_config(tmp_path, setting="cluster")
    with pytest.raises(ValueError, match="seeds"):
        tiny_config(tmp_path, seeds=())
    with pytest.raises(ValueError, match="federation"):
        tiny_config(tmp_path, federation=None)
    with pytest.raises(ValueError, match="grid"):
        tiny_config(tmp_path, setting="centralized", grid={"mu": (0.1,)})
    with pytest.raises(ValueError, match=r"^grid key 'strategy' is not read by "
                                         r"strategy 'fedavg', which reads "
                                         r"\['server_lr'\]$"):
        tiny_config(tmp_path, grid={"strategy": ("fedavg",)})
    # a key the strategy never reads would train one model under many labels
    with pytest.raises(ValueError, match=r"^grid key 'mu' is not read by strategy "
                                         r"'fedavg', which reads \['server_lr'\]$"):
        tiny_config(tmp_path, grid={"mu": (0.1, 1.0)})
    with pytest.raises(ValueError, match=r"^per_client_percentiles \{'bs000': "
                                         r"\(40\.0, 60\.0\)\} has no effect with "
                                         r"use_flood_cap false$"):
        PreprocessConfig(use_flood_cap=False,
                         per_client_percentiles={"bs000": (40.0, 60.0)})
    with pytest.raises(ValueError, match="fine_tune"):
        tiny_config(tmp_path, setting="individual", fine_tune=True)
    with pytest.raises(ValueError, match="model .* does not match"):
        tiny_config(tmp_path, preprocessing=PreprocessConfig(window_size=5))
    with pytest.raises(ValueError, match="share a cell label"):
        tiny_config(tmp_path, aggregator=AggregatorConfig("fedprox"),
                    grid={"mu": (0.1, 0.1)})
    with pytest.raises(ValueError):
        DataConfig(paths=("a.csv",), synthetic=tiny_cohort())
    with pytest.raises(ValueError):
        DataConfig()


def test_config_from_dict_input_errors(tmp_path):
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2])
    raw = config_to_dict(tiny_config(tmp_path))
    raw["seeds"] = ["zero"]
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict(raw)
    raw = config_to_dict(tiny_config(tmp_path))
    raw["data"] = {}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(raw)
    raw = config_to_dict(tiny_config(tmp_path))
    raw["aggregator"].pop("strategy")
    with pytest.raises(ConfigError, match="strategy"):
        config_from_dict(raw)


def test_unread_knobs_are_accepted_at_their_defaults(tmp_path):
    # config_to_dict writes every default into a manifest, so a default
    # counts as unset even where the setting never reads it
    raw = config_to_dict(tiny_config(tmp_path))
    assert raw["training"] == {"max_epochs": 270, "patience": 50}
    assert raw["fine_tune"] is False and raw["fine_tune_epochs"] == 3
    raw["data"]["synthetic"]["clients"][0].update(
        spike_probability=0.0, spike_magnitude=10.0
    )
    assert config_to_dict(config_from_dict(raw)) == raw
    raw["data"]["synthetic"]["clients"][0]["spike_magnitude"] = 1.0
    with pytest.raises(ConfigError, match=r"clients\[0\]\.spike_magnitude"):
        config_from_dict(raw)
    central = config_to_dict(tiny_config(tmp_path, setting="centralized"))
    assert "federation" not in central and "aggregator" not in central
    for section, value in (("federation", {"rounds": 0, "local_epochs": 0}),
                           ("aggregator", {"strategy": "fedavg"})):
        with pytest.raises(ConfigError, match=f"^config.{section}: "):
            config_from_dict({**central, section: value})


def test_config_without_preprocessing_uses_defaults(tmp_path):
    raw = config_to_dict(tiny_config(tmp_path))
    del raw["preprocessing"]
    del raw["model"]["window_size"]  # both sections fall back to window 10
    assert config_from_dict(raw).preprocessing == PreprocessConfig()


NAN, INF = float("nan"), float("inf")


def _config_sections(cls=ExperimentConfig, prefix=""):
    """(config dataclass, path prefix of its fields) of cls and every section
    below it; a tuple of sections is reached through its first item."""
    yield cls, prefix
    for f in dataclasses.fields(cls):
        hint = typing.get_type_hints(cls)[f.name]
        inner = next((a for a in typing.get_args(hint) if dataclasses.is_dataclass(a)),
                     hint)
        if dataclasses.is_dataclass(inner):
            index = "[0]" if typing.get_origin(hint) is tuple else ""
            yield from _config_sections(inner, f"{prefix}{f.name}{index}.")


CONFIG_SECTIONS = list(_config_sections())
# (class, field name, config path) of every float field
FLOAT_FIELDS = [
    (cls, f.name, prefix + f.name)
    for cls, prefix in CONFIG_SECTIONS
    for f in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[f.name] is float
]


# Every value rule whose message starts with its field name, so a reworded
# message that no longer resolves to the field's path fails here. Every field
# with a declared rule has a case (test_every_ruled_field_has_a_rejected_case)
# and every float field rejects NaN and both infinities.
FIELD_CASES = [
    ("seeds", [-1]),
    ("fine_tune_epochs", -1),
    ("federation.rounds", -1),
    ("federation.local_epochs", -1),
    ("federation.sampling_fraction", 0.0),
    ("preprocessing.window_size", 0),
    ("training.max_epochs", 0),
    ("training.patience", 0),
    ("data.synthetic.clients", []),
    ("data.synthetic.seed", -1),
    ("model.window_size", 0),
    ("model.batch_size", 0),
    ("model.hidden_sizes", [0]),
    ("model.conv_filters", [0]),
    ("model.learning_rate", 0.0),
    ("aggregator.server_lr", 0.0),
    ("aggregator.mu", -1.0),
    ("aggregator.beta", 1.0),
    ("aggregator.adaptivity", 0.0),
    ("fine_tune_epochs", 7),
    ("setting", "cluster"),
    ("grid", {}),
    ("grid", {"server_lr": []}),
    ("data.paths", []),
    ("preprocessing.scaling_scope", "other"),
    ("model.architecture", "transformer"),
    ("model.n_features", 0),
    ("model.n_targets", 0),
    ("model.recurrent_units", 0),
    ("model.dense_units", 0),
    ("model.kernel_size", 0),
    ("aggregator.strategy", "fedsgd"),
    ("data.synthetic.clients[0].client_id", ""),
    ("data.synthetic.clients[0].client_id", "../escaped"),
    ("data.synthetic.clients[0].client_id", "a\\b"),
    ("data.synthetic.clients[0].client_id", ".hidden"),
    ("data.synthetic.clients[0].days", 0),
    ("data.synthetic.clients[0].start", "garbage"),
    ("data.synthetic.clients[0].start", "2018-13-45"),
    ("data.synthetic.clients[0].start", "NaT"),
] + [(path, value) for _, _, path in FLOAT_FIELDS for value in (NAN, INF, -INF)]


@pytest.mark.parametrize("path, value", FIELD_CASES)
def test_value_rule_reported_at_field_path(tmp_path, path, value):
    raw = config_to_dict(tiny_config(tmp_path))
    *sections, field = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
    node = raw
    for key in sections:
        node = node[key]
    node[field] = value
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"config.{path}: {field} ")


def test_every_ruled_field_has_a_rejected_case():
    assert {cls for cls, _ in CONFIG_SECTIONS} == {
        ExperimentConfig, TrainingConfig, DataConfig, PreprocessConfig, ModelSpec,
        AggregatorConfig, FederationConfig, SyntheticSpec, SyntheticClientSpec,
    }
    ruled = {
        prefix + f.name
        for cls, prefix in CONFIG_SECTIONS
        for f in dataclasses.fields(cls)
        if f.metadata.get("rule") is not None
    }
    assert ruled - {path for path, _ in FIELD_CASES} == set()


@pytest.mark.parametrize("preprocessing, field", [
    ({"lower_percentile": 95.0}, "lower_percentile"),
    ({"lower_percentile": 0.0}, "lower_percentile"),
    ({"upper_percentile": 100.0}, "upper_percentile"),
    ({"upper_percentile": -5.0}, "upper_percentile"),
    ({"per_client_percentiles": {"bs000": [95.0, 90.0]}}, "per_client_percentiles"),
    ({"per_client_percentiles": {"bs001": [10.0, 100.0]}}, "per_client_percentiles"),
])
def test_percentile_error_reported_at_its_field(tmp_path, preprocessing, field):
    raw = config_to_dict(tiny_config(tmp_path))
    raw["preprocessing"].update(preprocessing)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"config.preprocessing.{field}: {field} ")
    for cid in preprocessing.get("per_client_percentiles", ()):
        assert repr(cid) in str(exc.value)


# a value other than the default for each shape field of ModelSpec
SHAPE_VALUES = {"hidden_sizes": [7], "recurrent_units": 7, "dense_units": 7,
                "conv_filters": [3], "kernel_size": 5}


@pytest.mark.parametrize("architecture, field", [
    (arch, field)
    for arch, reads in ARCHITECTURE_FIELDS.items()
    for field in SHAPE_VALUES
    if field not in reads
])
def test_model_field_the_architecture_does_not_read_is_rejected(
    tmp_path, architecture, field
):
    raw = config_to_dict(tiny_config(tmp_path))
    raw["model"] = {"architecture": architecture, "window_size": 6,
                    field: SHAPE_VALUES[field]}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"config.model.{field}: {field} "), exc.value


@pytest.mark.parametrize("architecture, field", [
    (arch, field) for arch, reads in ARCHITECTURE_FIELDS.items() for field in reads
])
def test_model_field_the_architecture_reads_changes_its_layout(
    tmp_path, architecture, field
):
    raw = config_to_dict(tiny_config(tmp_path))
    raw["model"] = {"architecture": architecture, "window_size": 6,
                    field: SHAPE_VALUES[field]}
    spec = config_from_dict(raw).model
    assert layout_for(spec) != layout_for(ModelSpec(architecture, window_size=6))



# The fields a config class needs before any other can be set.
REQUIRED = {AggregatorConfig: {"strategy": "fedavg"}, ModelSpec: {"architecture": "mlp"},
            FederationConfig: {"rounds": 1, "local_epochs": 1}, PreprocessConfig: {},
            SyntheticClientSpec: {"client_id": "bs000"}}
NON_FINITE_CASES = [
    (AggregatorConfig, {"strategy": "fedadam"}, "server_lr", NAN),
    (AggregatorConfig, {"strategy": "fedadam"}, "server_lr", INF),
    (AggregatorConfig, {"strategy": "fedprox"}, "mu", NAN),
    (AggregatorConfig, {"strategy": "fedprox"}, "mu", INF),
    (AggregatorConfig, {"strategy": "fedadam"}, "adaptivity", NAN),
    (AggregatorConfig, {"strategy": "fedadam"}, "adaptivity", INF),
    (AggregatorConfig, {"strategy": "fedavgm"}, "beta", NAN),
    (AggregatorConfig, {"strategy": "fednova"}, "rho", INF),
    (AggregatorConfig, {"strategy": "fedyogi"}, "beta1", NAN),
    (AggregatorConfig, {"strategy": "fedadam"}, "beta2", NAN),
    (ModelSpec, {"architecture": "mlp"}, "learning_rate", NAN),
    (ModelSpec, {"architecture": "mlp"}, "learning_rate", INF),
    (SyntheticClientSpec, {"client_id": "bs000"}, "base_level", NAN),
    (SyntheticClientSpec, {"client_id": "bs000"}, "base_level", INF),
    (SyntheticClientSpec, {"client_id": "bs000"}, "noise_scale", NAN),
    (SyntheticClientSpec, {"client_id": "bs000"}, "noise_scale", INF),
    (SyntheticClientSpec, {"client_id": "bs000"}, "daily_amplitude", NAN),
    (SyntheticClientSpec, {"client_id": "bs000"}, "weekly_amplitude", -INF),
    (SyntheticClientSpec, {"client_id": "bs000"}, "phase", INF),
    (SyntheticClientSpec, {"client_id": "bs000"}, "spike_probability", NAN),
    (SyntheticClientSpec, {"client_id": "bs000", "spike_probability": 0.1},
     "spike_magnitude", INF),
]
# every other (float field, non-finite value) pair
NON_FINITE_CASES += [
    (cls, REQUIRED[cls], name, value)
    for cls, name, _ in FLOAT_FIELDS
    for value in (NAN, INF, -INF)
    if (cls, name, repr(value)) not in {(c, f, repr(v)) for c, _, f, v in NON_FINITE_CASES}
]


@pytest.mark.parametrize("cls, kwargs, field, value", NON_FINITE_CASES)
def test_non_finite_value_fails_naming_its_field(cls, kwargs, field, value):
    # a non-finite float, whether from the Python API or from a config, is
    # rejected by the field's own rule, with a message that starts with the
    # field name, which is how a config error finds the field's path
    cls(**kwargs)
    with pytest.raises(ValueError) as exc:
        cls(**kwargs, **{field: value})
    assert str(exc.value).startswith(f"{field} must be "), str(exc.value)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(tree, path=()):
    """Key paths of every section and leaf below tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_config_parses_or_raises_config_error(data):
    out = Path("unused")
    federated = tiny_config(
        out,
        preprocessing=PreprocessConfig(
            window_size=6, per_client_percentiles={"bs000": (5.0, 95.0)}
        ),
        aggregator=AggregatorConfig("fedadam"),
        grid={"server_lr": (0.1, 1.0)},
        fine_tune=True,
    )
    csv_paths = tiny_config(
        out, setting="centralized", data=DataConfig(paths=("a.csv", "b.csv"))
    )
    raw = config_to_dict(data.draw(st.sampled_from([federated, csv_paths])))
    # replace one leaf or section, or add or drop one key
    *parents, key = data.draw(st.sampled_from(list(_node_paths(raw))))
    node = raw
    for k in parents:
        node = node[k]
    action = data.draw(st.sampled_from(["replace", "add", "drop"]))
    if action == "replace":
        node[key] = data.draw(JSON_VALUES)
    elif action == "drop":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
    else:
        node.append(data.draw(JSON_VALUES))
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(config)) == config
    # the manifest stores it as JSON
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_readme_quick_start_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```yaml\n(# experiment\.yaml\n.*?)```", readme, re.S)
    path = tmp_path / "experiment.yaml"
    path.write_text(block.group(1))
    config = load_config(path)
    assert (config.name, config.setting, config.seeds) == ("demo", "federated", (0, 1))
    assert len(config.data.synthetic.clients) == 3


def test_readme_quick_start_api_imports():
    # a public name the README's API example imports must not disappear
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start \(API\)\n\n```python\n(.*?)```", readme, re.S)
    imports = [line for line in block.group(1).splitlines() if line.startswith("from ")]
    assert len(imports) == 6
    exec("\n".join(imports), {})


def test_load_config_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_grid_cells_product_and_labels(tmp_path):
    config = tiny_config(
        tmp_path, aggregator=AggregatorConfig("fedadam"),
        grid={"server_lr": (0.1, 1.0), "adaptivity": (1e-3,)},
    )
    cells = config.cells
    assert [label for label, _ in cells] == [
        "adaptivity=0.001_server_lr=0.1",
        "adaptivity=0.001_server_lr=1",
    ]
    assert cells[0][1] == AggregatorConfig("fedadam", server_lr=0.1, adaptivity=1e-3)
    base = tiny_config(tmp_path)
    assert base.cells == (("base", base.aggregator),)
    assert tiny_config(tmp_path, setting="centralized").cells == (("base", None),)


def test_materialize_synthetic(tmp_path):
    datasets = materialize_data(tiny_config(tmp_path))
    assert [d.client_id for d in datasets] == ["bs000", "bs001"]
    assert all(len(d.values) == 720 for d in datasets)


# ----------------------------------------------------------------- execution

def test_federated_experiment_artifacts(tmp_path):
    config = tiny_config(tmp_path, seeds=(0, 1))
    summary = run_experiment(config)
    out = Path(config.output_dir)
    assert summary.cells == ("base",)
    assert len(summary.runs) == 2

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == config_to_dict(config)
    assert config_from_dict(manifest) == config

    for seed in (0, 1):
        run_dir = out / "base" / f"seed-{seed}"
        rows = (run_dir / "rounds.csv").read_text().strip().split("\n")
        assert rows[0].startswith("round,client,sampled,train_loss")
        assert len(rows) == 1 + 2 * 2  # header + rounds x clients
        rounds_seen = {int(r.split(",")[0]) for r in rows[1:]}
        assert rounds_seen == {0, 1}

        blob = (run_dir / "checkpoint.bin").read_bytes()
        params = deserialize_params(blob, layout_for(config.model))
        assert params.size == layout_for(config.model).size

        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["seed"] == seed
        assert 0.0 < metrics["avg_nrmse"] < 10.0
        assert set(metrics["per_client"]) == {"bs000", "bs001"}
        report = summary.runs[seed].per_client["bs000"]
        assert metrics["per_client"]["bs000"] == {
            "per_target_mae": list(report.per_target_mae),
            "per_target_rmse": list(report.per_target_rmse),
            "per_target_nrmse": list(report.per_target_nrmse),
            "avg_mae": report.avg_mae,
            "avg_rmse": report.avg_rmse,
            "avg_nrmse": report.avg_nrmse,
            "n_points": report.n_points,
        }
        # full participation: both directions, all clients, every round
        payload = params.size * 8
        assert metrics["server_total_mb"] == 2 * payload * 2 * 2 / 1e6


def test_rounds_csv_bytes_follow_sampling(tmp_path):
    # one of two clients per round: a sampled row moved one payload each
    # way, an unsampled row nothing, and the columns add up to the ledger
    config = tiny_config(
        tmp_path, federation=FederationConfig(rounds=3, local_epochs=1,
                                              sampling_fraction=0.5),
    )
    run_experiment(config)
    run_dir = Path(config.output_dir) / "base" / "seed-0"
    payload = 8 * layout_for(config.model).size
    with open(run_dir / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2
    assert sum(int(r["sampled"]) for r in rows) == 3
    for r in rows:
        want = payload if r["sampled"] == "1" else 0
        assert int(r["uplink_bytes"]) == int(r["downlink_bytes"]) == want
    total = sum(int(r["uplink_bytes"]) + int(r["downlink_bytes"]) for r in rows)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["server_total_mb"] == total / 1e6


def test_summary_aggregates_across_seeds(tmp_path):
    config = tiny_config(tmp_path, seeds=(0, 1))
    summary = run_experiment(config)
    payload = json.loads(
        (Path(config.output_dir) / "summary.json").read_text()
    )
    cell = payload["cells"][0]
    nrmses = [r.avg_nrmse for r in summary.runs]
    assert cell["mean_avg_nrmse"] == pytest.approx(np.mean(nrmses))
    assert cell["std_avg_nrmse"] == pytest.approx(np.std(nrmses))
    assert payload["n_runs"] == 2


def test_grid_search_runs_every_cell(tmp_path):
    config = tiny_config(tmp_path, grid={"server_lr": (0.5, 1.0)})
    summary = run_experiment(config)
    assert summary.cells == ("server_lr=0.5", "server_lr=1")
    assert {r.cell for r in summary.runs} == set(summary.cells)
    out = Path(config.output_dir)
    assert (out / "server_lr=0.5" / "seed-0" / "rounds.csv").exists()
    # different cell hyper-parameters produce different models
    a = (out / "server_lr=0.5" / "seed-0" / "checkpoint.bin").read_bytes()
    b = (out / "server_lr=1" / "seed-0" / "checkpoint.bin").read_bytes()
    assert a != b


def test_fine_tune_reports_adapted_scores(tmp_path):
    config = tiny_config(tmp_path, fine_tune=True, fine_tune_epochs=1)
    summary = run_experiment(config)
    run = summary.runs[0]
    assert set(run.fine_tuned) == {"bs000", "bs001"}
    metrics = json.loads(
        (Path(config.output_dir) / "base" / "seed-0" / "metrics.json").read_text()
    )
    assert set(metrics["fine_tuned"]) == {"bs000", "bs001"}


def test_centralized_experiment_artifacts(tmp_path):
    config = tiny_config(tmp_path, setting="centralized", federation=None,
                         aggregator=None)
    summary = run_experiment(config)
    run_dir = Path(config.output_dir) / "base" / "seed-0"
    rows = (run_dir / "epochs.csv").read_text().strip().split("\n")
    assert rows[0] == "client,epoch,train_loss,val_mse,val_mae"
    assert all(r.startswith("pooled,") for r in rows[1:])
    assert summary.runs[0].server_total_mb is None
    assert summary.runs[0].best_index is not None
    assert (run_dir / "checkpoint.bin").exists()


def test_individual_experiment_artifacts(tmp_path):
    config = tiny_config(tmp_path, setting="individual", federation=None,
                         aggregator=None)
    summary = run_experiment(config)
    run_dir = Path(config.output_dir) / "base" / "seed-0"
    assert (run_dir / "checkpoint-bs000.bin").exists()
    assert (run_dir / "checkpoint-bs001.bin").exists()
    clients_in_csv = {
        line.split(",")[0]
        for line in (run_dir / "epochs.csv").read_text().strip().split("\n")[1:]
    }
    assert clients_in_csv == {"bs000", "bs001"}
    assert summary.runs[0].best_index is None


@pytest.mark.parametrize("setting", ["individual", "centralized", "federated"])
def test_run_rejects_cohort_without_validation_windows(tmp_path, setting):
    # 721 rows split 432/144/145: at window 144 each client keeps one test
    # window and no validation window, so no setting can train
    paths = []
    for i in range(2):
        path = tmp_path / f"bs00{i}.csv"
        save_csv(random_dataset(721, seed=i, client_id=f"bs00{i}"), path)
        paths.append(str(path))
    config = tiny_config(
        tmp_path, setting=setting, data=DataConfig(paths=tuple(paths)),
        preprocessing=PreprocessConfig(window_size=144),
        model=ModelSpec(architecture="mlp", window_size=144, hidden_sizes=(4,)),
    )
    with pytest.raises(DataError, match="bs000, bs001: no validation windows"):
        run_experiment(config)
    assert not Path(config.output_dir).exists()


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment(config)
    out1 = Path(config.output_dir)
    manifest = out1 / "manifest.json"
    config2 = load_config(manifest)
    run_experiment(config2, output_dir=str(tmp_path / "replay"))
    out2 = tmp_path / "replay"
    for rel in ("base/seed-0/rounds.csv", "base/seed-0/checkpoint.bin",
                "base/seed-0/metrics.json", "summary.json"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_run_keeps_no_raw_trace_after_preprocessing(tmp_path, monkeypatch):
    # once preprocess_clients returns, a run holds each client's scaled
    # series only, not the trace it was made from
    traces = []
    alive = []
    real_materialize, real_run_once = experiment.materialize_data, experiment._run_once

    def materialize(config):
        datasets = real_materialize(config)
        traces.extend(weakref.ref(obj) for ds in datasets for obj in (ds, ds.values))
        return datasets

    def run_once(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in traces))
        return real_run_once(*args, **kwargs)

    monkeypatch.setattr(experiment, "materialize_data", materialize)
    monkeypatch.setattr(experiment, "_run_once", run_once)
    run_experiment(tiny_config(tmp_path))
    assert len(traces) == 4
    assert alive == [0]


def test_environment_record_is_outside_the_manifest_and_the_report(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment(config)
    out = Path(config.output_dir)
    env = json.loads((out / "environment.json").read_text())
    assert set(env) == {
        "python_version", "numpy_version", "blas_name", "blas_version",
        "cpu_count", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    }
    assert env["numpy_version"] == np.__version__
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"format", "package_version", "config"}
    emit_plot_data([out], tmp_path / "before.csv")
    (out / "environment.json").write_text("not a record")
    emit_plot_data([out], tmp_path / "after.csv")
    assert (tmp_path / "before.csv").read_bytes() == (tmp_path / "after.csv").read_bytes()


# ----------------------------------------------------------------- plot data

def test_emit_plot_data_federated(tmp_path):
    config = tiny_config(tmp_path)
    run_experiment(config)
    out_csv = tmp_path / "plot.csv"
    n = emit_plot_data([config.output_dir], out_csv)
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "experiment,cell,seed,round,metric,value"
    assert n == len(lines) - 1
    rows = [line.split(",") for line in lines[1:]]
    # three final test metrics at round -1
    finals = [r for r in rows if r[3] == "-1"]
    assert {r[4] for r in finals} == {"avg_nrmse", "avg_mae", "avg_rmse"}
    # one aggregate validation row per round, not per client row
    agg = [r for r in rows if r[4] == "agg_val_mse"]
    assert [r[3] for r in agg] == ["0", "1"]


def test_emit_plot_data_centralized(tmp_path):
    config = tiny_config(tmp_path, setting="centralized", federation=None,
                         aggregator=None)
    run_experiment(config)
    out_csv = tmp_path / "plot.csv"
    emit_plot_data([config.output_dir], out_csv)
    rows = [line.split(",") for line in out_csv.read_text().strip().split("\n")[1:]]
    epochs = [r for r in rows if r[4] == "val_mse"]
    assert len(epochs) >= 1
    assert epochs[0][3] == "0"


def test_artifact_write_that_fails_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    experiment._json_dump(path, {"a": 1.0})
    before = path.read_bytes()
    # json.dump streams: the key is written before the value fails to encode
    with pytest.raises(TypeError):
        experiment._json_dump(path, {"a": 2.0, "b": object()})
    assert path.read_bytes() == before
    with pytest.raises(RuntimeError):
        with experiment._atomic_open(tmp_path / "checkpoint.bin", "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]


def test_emit_plot_data_requires_summary(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_data([tmp_path / "nope"], tmp_path / "plot.csv")
