"""The three benchmark workloads: inputs from a seed, set-up, one run, checks.

Every workload is one fedcast experiment. The benchmark writes its inputs
from the workload seed (a config, and for cohort-mlp the CSV traces and the
YAML file as well); the program receives only those inputs.

The seed draws the traces (``SyntheticSpec.seed``: noise realisation per
client). Client profiles, day counts and experiment seeds are fixed per
workload, so the work in a run and the difficulty of the forecast do not
depend on the seed. Measured while sizing the workloads: with profiles drawn
from the seed as well, or with 1 % traffic spikes, the few steps a run can
afford left test NRMSE spread over a factor of two between seeds (and a
two-epoch CNN could score worse than its untrained weights), which would
hide any quality regression.

Callers import this module after putting the checkout's ``src`` directory on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import yaml

from fedcast import cli, experiment
from fedcast.dataio import preprocess_clients, save_csv
from fedcast.metrics import evaluate_forecasts
from fedcast.nn.models import init_model, predict
from fedcast.synthetic import SyntheticClientSpec, SyntheticSpec, generate_synthetic

# (base_level, phase) of the three clients in the README's example cohort.
README_PROFILES = ((1.0, 0.0), (1.1, 2.1), (0.9, 4.2))


@dataclass(frozen=True)
class Workload:
    """One experiment shape. days holds one entry per client.

    Client profiles come from ``SyntheticSpec.sampled(..., seed=0)`` without
    spikes, or from README_PROFILES when readme_profiles is set.
    """

    name: str
    setting: str
    architecture: str
    days: tuple[int, ...]
    n_seeds: int = 1
    rounds: int = 0
    local_epochs: int = 0
    sampling_fraction: float = 1.0
    strategy: str = "fedavg"
    max_epochs: int = 1
    fine_tune: bool = False
    fine_tune_epochs: int = 3
    readme_profiles: bool = False
    # True: CSV traces plus a YAML config run through `fedcast run`;
    # False: an in-memory synthetic config passed to run_experiment.
    via_cli: bool = False


WORKLOADS: dict[str, Workload] = {
    # The reference federated setting (FedAvg, reference LSTM at batch 128,
    # window 10, 11 features) on a small heterogeneous cohort. Recurrent
    # engine ops dominate; aggregation, set-up and I/O are under 1 %.
    "fed-lstm": Workload(
        name="fed-lstm", setting="federated", architecture="lstm",
        days=(2, 3, 2, 3), rounds=1, local_epochs=2,
    ),
    # Centralized training with early stopping and the reference CNN on a
    # pooled cohort: conv2d forward+backward dominates time and memory. No
    # aggregation, no recurrent ops. patience == max_epochs, so every seed
    # trains the same number of epochs. With the skewed sampled profiles a
    # few epochs do not beat the untrained weights; the README cohort's do.
    "central-cnn": Workload(
        name="central-cnn", setting="centralized", architecture="cnn",
        days=(1, 1, 1), max_epochs=1, readme_profiles=True,
    ),
    # A wide cohort of one-day clients run from CSV files through the CLI:
    # the engine is cheap, so median aggregation, per-round evaluation of
    # every client, fine-tuning, CSV ingest and artifact writes take their
    # largest share here.
    "cohort-mlp": Workload(
        name="cohort-mlp", setting="federated", architecture="mlp",
        days=(1,) * 32, n_seeds=2, rounds=2, local_epochs=3,
        sampling_fraction=0.5, strategy="medianavg", fine_tune=True,
        fine_tune_epochs=1, via_cli=True,
    ),
}


def cohort(workload: Workload, seed: int) -> SyntheticSpec:
    """The workload's fixed client profiles; the seed draws their traces."""
    if workload.readme_profiles:
        clients = tuple(
            SyntheticClientSpec(f"bs{i:03d}", days=d, base_level=level, phase=phase)
            for i, (d, (level, phase)) in enumerate(zip(workload.days, README_PROFILES))
        )
    else:
        template = SyntheticSpec.sampled(
            len(workload.days), (min(workload.days), max(workload.days)),
            seed=0, spike_probability=0.0,
        )
        clients = tuple(dataclasses.replace(c, days=d)
                        for c, d in zip(template.clients, workload.days))
    return SyntheticSpec(clients=clients, seed=seed)


def config_dict(workload: Workload, data: dict) -> dict:
    raw = {
        "name": workload.name,
        "setting": workload.setting,
        "output_dir": workload.name,
        "seeds": list(range(workload.n_seeds)),
        "data": data,
        "preprocessing": {},
        "model": {"architecture": workload.architecture},
        "fine_tune": workload.fine_tune,
        "fine_tune_epochs": workload.fine_tune_epochs,
    }
    if workload.setting == "federated":
        raw["federation"] = {
            "rounds": workload.rounds,
            "local_epochs": workload.local_epochs,
            "sampling_fraction": workload.sampling_fraction,
        }
        raw["aggregator"] = {"strategy": workload.strategy}
    else:
        raw["training"] = {"max_epochs": workload.max_epochs,
                           "patience": workload.max_epochs}
    return raw


@dataclass(frozen=True)
class Inputs:
    """What the program receives: a YAML path (CLI) or a parsed config."""

    config_path: Path | None
    config: experiment.ExperimentConfig | None


def write_inputs(workload: Workload, seed: int, input_dir: Path) -> Inputs:
    """Generate the workload's inputs from its seed.

    cohort-mlp writes one CSV trace per client and a YAML config naming
    them; the in-memory workloads keep the synthetic cohort in the config.
    """
    spec = cohort(workload, seed)
    if not workload.via_cli:
        syn = {"seed": spec.seed,
               "clients": [dataclasses.asdict(c) for c in spec.clients]}
        raw = config_dict(workload, {"synthetic": syn})
        return Inputs(None, experiment.config_from_dict(raw))
    input_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for dataset in generate_synthetic(spec):
        path = input_dir / f"{dataset.client_id}.csv"
        save_csv(dataset, path)
        paths.append(str(path.resolve()))
    config_path = input_dir / "experiment.yaml"
    with open(config_path, "w") as fh:
        yaml.safe_dump(config_dict(workload, {"paths": paths}), fh,
                       sort_keys=True)
    return Inputs(config_path, None)


def setup(inputs: Inputs):
    """Load the config, produce the traces and preprocess: (config, clients).

    The same calls run_experiment makes before its first training call.
    """
    config = inputs.config
    if inputs.config_path is not None:
        config = experiment.load_config(inputs.config_path)
    datasets = experiment.materialize_data(config)
    return config, preprocess_clients(datasets, config.preprocessing)


def untrained_nrmse(config, clients) -> float:
    """test NRMSE of the init_model weights each experiment seed starts from."""
    per_seed = []
    for seed in config.seeds:
        params = init_model(config.model, seed)
        per_seed.append(statistics.fmean(
            evaluate_forecasts(predict(config.model, params, c.test.inputs),
                               c.test.targets, c.scaler).avg_nrmse
            for c in clients
        ))
    return statistics.fmean(per_seed)


def run(inputs: Inputs, out_dir: Path) -> None:
    """One workload run: the experiment call through its last artifact write.

    Module attributes are looked up at call time, so a traced run goes
    through the tracer's wrappers.
    """
    if inputs.config_path is None:
        experiment.run_experiment(inputs.config, output_dir=str(out_dir))
        return
    argv = ["run", "--config", str(inputs.config_path), "--output-dir", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fedcast {' '.join(argv)} exited with {code}")


@dataclass(frozen=True)
class Outcome:
    """What one run's artifacts say."""

    test_nrmse: float
    train_windows: int
    server_total_mb: float | None
    artifact_bytes: int
    hashes: dict[str, str]


# Artifacts that must be byte-identical across repeats of one seed.
DETERMINISTIC = ("checkpoint*.bin", "rounds.csv", "epochs.csv", "metrics.json")


def read_outcome(workload: Workload, out_dir: Path, pooled_train: int) -> Outcome:
    """Score, trained-window count, traffic and hashes from the artifacts.

    Windows through forward+backward: per federated seed, every sampled
    client's n_samples times local_epochs summed over rounds.csv, plus
    fine_tune_epochs passes over every client when fine-tuning; per
    centralized seed, epochs.csv rows times the pooled train count.
    """
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    (cell,) = summary["cells"]
    windows = 0
    traffic = []
    hashes = {}
    for run_info in cell["runs"]:
        run_dir = out_dir / run_info["cell"] / f"seed-{run_info['seed']}"
        if workload.setting == "federated":
            with open(run_dir / "rounds.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            windows += workload.local_epochs * sum(
                int(r["n_samples"]) for r in rows if r["sampled"] == "1"
            )
            if workload.fine_tune:
                windows += workload.fine_tune_epochs * sum(
                    int(r["n_samples"]) for r in rows if r["round"] == "0"
                )
            traffic.append(run_info["server_total_mb"])
        else:
            with open(run_dir / "epochs.csv", newline="") as fh:
                windows += pooled_train * (sum(1 for _ in fh) - 1)
        for pattern in DETERMINISTIC:
            for path in sorted(run_dir.glob(pattern)):
                key = str(path.relative_to(out_dir))
                hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return Outcome(
        test_nrmse=cell["mean_avg_nrmse"],
        train_windows=windows,
        server_total_mb=statistics.fmean(traffic) if traffic else None,
        artifact_bytes=sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
        hashes=hashes,
    )
