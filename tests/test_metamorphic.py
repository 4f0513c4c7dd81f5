"""Metamorphic relations: what a run's bytes must not depend on.

A run is a function of its cohort as a set. Listing the same clients in
another order, as CSV paths or as synthetic client specs, must write the
same bytes; only manifest.json, which records the config as written, may
differ.
"""

import dataclasses
from pathlib import Path

import pytest

from fedcast.aggregation import AggregatorConfig
from fedcast.dataio import PreprocessConfig, save_csv
from fedcast.experiment import (
    DataConfig,
    ExperimentConfig,
    TrainingConfig,
    run_experiment,
)
from fedcast.federation import FederationConfig
from fedcast.nn.models import ModelSpec
from fedcast.synthetic import SyntheticClientSpec, SyntheticSpec, generate_synthetic

# The generator draws each client's noise from a stream keyed by the
# client's position in the list, so reversing a noisy list gives other
# traces, not the same cohort in another order. Noise-free clients keep
# their traces wherever they are listed.
COHORT = SyntheticSpec(
    clients=tuple(
        SyntheticClientSpec(f"bs{i:03d}", days=1, base_level=1.0 + 0.1 * i,
                            phase=1.5 * i, noise_scale=0.0)
        for i in range(4)
    ),
    seed=0,
)


def config(setting, data, output_dir):
    kw = dict(
        name="metamorphic",
        setting=setting,
        output_dir=str(output_dir),
        seeds=(0, 1),
        data=data,
        preprocessing=PreprocessConfig(window_size=6),
        model=ModelSpec(architecture="mlp", window_size=6, hidden_sizes=(16,)),
    )
    if setting == "federated":
        # half the cohort a round: the order decides which clients are drawn
        kw["federation"] = FederationConfig(rounds=3, local_epochs=1,
                                            sampling_fraction=0.5)
        kw["aggregator"] = AggregatorConfig("fedavg")
    else:
        # the order decides how the clients' windows are pooled
        kw["training"] = TrainingConfig(max_epochs=2, patience=2)
    return ExperimentConfig(**kw)


def tree(root: Path) -> dict[str, bytes]:
    """Every file of a run's output but its manifest, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def csv_paths(tmp_path):
    paths = []
    for dataset in generate_synthetic(COHORT):
        paths.append(str(tmp_path / f"{dataset.client_id}.csv"))
        save_csv(dataset, paths[-1])
    return DataConfig(paths=tuple(paths)), DataConfig(paths=tuple(reversed(paths)))


def synthetic_specs(tmp_path):
    reversed_cohort = dataclasses.replace(COHORT, clients=COHORT.clients[::-1])
    return DataConfig(synthetic=COHORT), DataConfig(synthetic=reversed_cohort)


@pytest.mark.parametrize("setting", ["federated", "centralized"])
@pytest.mark.parametrize("listing", [csv_paths, synthetic_specs])
def test_reversing_the_client_list_keeps_the_bytes(tmp_path, setting, listing):
    as_listed, reversed_ = listing(tmp_path)
    run_experiment(config(setting, as_listed, tmp_path / "as-listed"))
    run_experiment(config(setting, reversed_, tmp_path / "reversed"))
    forward, backward = tree(tmp_path / "as-listed"), tree(tmp_path / "reversed")
    assert "base/seed-1/checkpoint.bin" in forward
    assert forward.keys() == backward.keys()
    assert [name for name in forward if forward[name] != backward[name]] == []
    manifests = [(tmp_path / d / "manifest.json").read_bytes()
                 for d in ("as-listed", "reversed")]
    assert manifests[0] != manifests[1]
