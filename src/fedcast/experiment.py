"""Config-driven experiment runner.

A config picks a setting (individual, centralized, federated), a data
source (CSV paths or a synthetic cohort), preprocessing, a model, and, for
the federated setting, federation plus aggregator parameters. A config
mapping is decoded against the config dataclasses' field annotations, and
each dataclass checks the rules its fields declare (fedcast.schema), so a
bad value raises ConfigError naming its path
(config.data.synthetic.clients[0].days) before anything runs. config_to_dict is the inverse. run_experiment executes every (grid
cell, seed) pair, writes per-run artifacts (round or epoch CSVs,
checkpoints, metric JSON), a manifest that reruns the experiment verbatim,
and a summary with mean/std across seeds. All emitted bytes are
deterministic: same config, same files. The one exception is
environment.json, which records the numpy, BLAS and Python versions and
thread settings that the bytes can depend on across hosts.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import os
import platform
import sys
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import yaml

from fedcast import __version__
from fedcast.aggregation import _BY_STRATEGY, AggregationError, AggregatorConfig
from fedcast.dataio import (
    N_FEATURES,
    N_TARGETS,
    ClientWindows,
    DataError,
    PreprocessConfig,
    TimeSeriesDataset,
    _atomic_open,
    load_csv,
    preprocess_clients,
)
from fedcast.federation import (
    FederationConfig,
    FederationHistory,
    account_communication,
    fine_tune,
    megabytes,
    run_centralized,
    run_federated,
)
from fedcast.metrics import (
    MetricReport, evaluate_forecasts, zero_mean_traffic_targets,
)
from fedcast.nn.models import ModelSpec, predict
from fedcast.nn.params import ParameterVector, serialize_params
from fedcast.nn.training import DivergenceError, TrainReport
from fedcast.schema import NON_EMPTY, Rule, at_least, check, knob, one_of, read_if
from fedcast.synthetic import SyntheticSpec, generate_synthetic

SETTINGS = ("individual", "centralized", "federated")
_FEDERATED = read_if("setting", lambda s: s == "federated")
_NOT_FEDERATED = read_if("setting", lambda s: s != "federated")
# Client-mean test metrics of a run: RunResult fields, summary mean/std pairs
# and the final rows of emit_plot_data, in this order.
HEADLINE_METRICS = ("avg_nrmse", "avg_mae", "avg_rmse")
# Environment variables that set the BLAS thread count (environment.json).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field path.

    A rule whose message starts with a field name ("rounds must be >= 0, got
    -1") is reported at that field's path, any other at its section's.
    """


@dataclass(frozen=True)
class TrainingConfig:
    """Early-stopping budget for the individual and centralized settings."""

    max_epochs: int = knob(270, at_least(1))
    patience: int = knob(50, at_least(1))

    __post_init__ = check


@dataclass(frozen=True)
class DataConfig:
    """Exactly one source: CSV paths on disk or a synthetic cohort."""

    paths: Optional[tuple[str, ...]] = knob(None, NON_EMPTY)
    synthetic: Optional[SyntheticSpec] = None

    def __post_init__(self) -> None:
        check(self)
        if (self.paths is None) == (self.synthetic is None):
            raise ValueError("provide exactly one of paths / synthetic")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    setting: str = knob(rule=one_of(SETTINGS))
    output_dir: str
    seeds: tuple[int, ...] = knob(rule=Rule(
        "one or more distinct ints >= 0",
        lambda s: len(s) > 0 and min(s) >= 0 and len(set(s)) == len(s),
    ))
    data: DataConfig
    model: ModelSpec
    preprocessing: PreprocessConfig = PreprocessConfig()
    training: TrainingConfig = knob(TrainingConfig(), reads=_NOT_FEDERATED)
    federation: Optional[FederationConfig] = knob(None, reads=_FEDERATED)
    aggregator: Optional[AggregatorConfig] = knob(None, reads=_FEDERATED)
    grid: Optional[dict[str, tuple[float, ...]]] = knob(
        None,
        Rule("a non-empty mapping of parameters to non-empty value lists",
             lambda g: len(g) > 0 and all(g.values())),
        _FEDERATED,
    )
    fine_tune: bool = knob(False, reads=read_if("setting", lambda s: s != "individual"))
    fine_tune_epochs: int = knob(3, at_least(1), read_if("fine_tune", bool))

    def __post_init__(self) -> None:
        check(self)
        if self.setting == "federated" and None in (self.federation, self.aggregator):
            raise ValueError(
                "federated setting requires federation and aggregator sections"
            )
        # CSV and synthetic data always have the fixed 11-feature, 5-target
        # schema, windowed at preprocessing.window_size.
        data_shape = (self.preprocessing.window_size, N_FEATURES, N_TARGETS)
        model_shape = (self.model.window_size, self.model.n_features,
                       self.model.n_targets)
        if model_shape != data_shape:
            raise ValueError(
                f"model (window_size, n_features, n_targets) {model_shape} does "
                f"not match the data's {data_shape}"
            )
        # (label, aggregator) of every run cell, built here so that a grid
        # value the strategy rejects fails before anything runs
        cells = {"base": self.aggregator}
        if self.grid is not None:
            for key in self.grid:
                why = _BY_STRATEGY(self.aggregator, key)
                if why:
                    raise ValueError(f"grid key {key!r} {why}")
            keys = sorted(self.grid)
            cells = {}
            for combo in itertools.product(*(self.grid[k] for k in keys)):
                assignment = dict(zip(keys, combo))
                label = "_".join(f"{k}={v:g}" for k, v in assignment.items())
                if label in cells:
                    raise ValueError(
                        f"grid values {self.grid} share a cell label: {label}"
                    )
                try:
                    cells[label] = dataclasses.replace(self.aggregator, **assignment)
                except AggregationError as exc:
                    raise ValueError(f"grid cell {label}: {exc}") from exc
        object.__setattr__(self, "cells", tuple(cells.items()))


def _decode(annotation, value, path: str):
    """value checked against a field annotation and built into its type.

    Dataclasses come from mappings (unknown keys and missing fields without
    a default are errors), tuples from lists, and scalars are kept as
    written: bool only from a bool, int from an int that is not a bool,
    float from a float or an int within the float range. A non-finite float
    is left to the field's rule, which rejects it. Raises ConfigError naming
    the path.
    """
    if dataclasses.is_dataclass(annotation):
        return _decode_dataclass(annotation, value, path)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _decode(inner, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} items, got {len(value)}")
        return tuple(
            _decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if origin in (dict, Mapping):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
        key_type, value_type = args
        return {
            _decode(key_type, k, path): _decode(value_type, v, f"{path}.{k}")
            for k, v in value.items()
        }
    if isinstance(value, bool) and annotation is not bool:
        ok = False
    elif annotation is float:
        ok = isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max
        )
    else:
        ok = isinstance(value, annotation)
    if not ok:
        raise ConfigError(f"{path}: expected {annotation.__name__}, got {value!r}")
    return value


@functools.cache
def _field_types(cls) -> dict[str, object]:
    """typing.get_type_hints of a config dataclass, evaluated once per class."""
    return typing.get_type_hints(cls)


def _decode_dataclass(cls, value, path: str):
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    hints = _field_types(cls)
    unknown = sorted(set(value) - set(hints), key=str)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        field = str(exc).split(" ", 1)[0]
        where = f"{path}.{field}" if field in hints else path
        raise ConfigError(f"{where}: {exc}") from exc


def _encode(value):
    """Plain YAML/JSON types; a dataclass field whose value is None is omitted."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _encode(v) for k, v in value.items()}
    return value


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Decode and validate a config mapping or a manifest that wraps one."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a mapping")
    if "config" in raw and set(raw) <= {"config", "package_version", "format"}:
        # A manifest wraps the config it ran; accept it verbatim.
        raw = raw["config"]
    return _decode(ExperimentConfig, raw, "config")


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-type mapping; config_from_dict(config_to_dict(c)) == c."""
    return _encode(config)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML (or JSON: YAML superset) config or manifest file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: unreadable config: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_dict(raw)


def materialize_data(config: ExperimentConfig) -> list[TimeSeriesDataset]:
    if config.data.synthetic is not None:
        return generate_synthetic(config.data.synthetic)
    return [load_csv(p) for p in config.data.paths]


@dataclass(frozen=True)
class RunResult:
    cell: str
    seed: int
    avg_nrmse: float
    avg_mae: float
    avg_rmse: float
    best_index: Optional[int]
    server_total_mb: Optional[float]
    per_client: dict[str, MetricReport]
    fine_tuned: dict[str, MetricReport]


@dataclass(frozen=True)
class ExperimentSummary:
    name: str
    setting: str
    cells: tuple[str, ...]
    runs: tuple[RunResult, ...]
    output_dir: str


def _score_params(
    spec: ModelSpec,
    params_for: Callable[[ClientWindows], ParameterVector],
    clients: Sequence[ClientWindows],
    what: str = "test",
) -> dict[str, MetricReport]:
    """Test scores of each client under the weights params_for(client).

    Finite weights can still overflow: predictions or scores that are not
    finite raise DivergenceError naming the client and what was scored.
    """
    out = {}
    for cw in clients:
        pred = predict(spec, params_for(cw), cw.test.inputs)
        if not np.isfinite(pred).all():
            raise DivergenceError(f"client {cw.client_id}: {what} predictions are "
                                  "not finite")
        report = evaluate_forecasts(pred, cw.test.targets, cw.scaler)
        # an average of non-negative errors is finite only if each term is
        scores = (report.avg_mae, report.avg_rmse,
                  *(s for s in report.per_target_nrmse if s is not None))
        if not np.isfinite(scores).all():
            raise DivergenceError(f"client {cw.client_id}: {what} scores are not finite")
        out[cw.client_id] = report
    return out


def _write_rounds_csv(path: Path, history: FederationHistory) -> None:
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "client", "sampled", "train_loss", "val_mse", "val_mae",
             "local_steps", "n_samples", "uplink_bytes", "downlink_bytes",
             "agg_val_mse", "agg_val_mae"]
        )
        for record in history.rounds:
            for cid in history.client_ids:
                st = record.client_stats[cid]
                nbytes = history.payload_bytes if cid in record.sampled else 0
                writer.writerow([
                    record.round,
                    cid,
                    int(cid in record.sampled),
                    _fmt(st.train_loss),
                    _fmt(st.val_mse),
                    _fmt(st.val_mae),
                    st.local_steps,
                    st.n_samples,
                    nbytes,
                    nbytes,
                    _fmt(record.agg_val_mse),
                    _fmt(record.agg_val_mae),
                ])


def _write_epochs_csv(path: Path, reports: Mapping[str, TrainReport]) -> None:
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client", "epoch", "train_loss", "val_mse", "val_mae"])
        for cid in sorted(reports):
            report = reports[cid]
            for e, loss in enumerate(report.train_losses):
                writer.writerow([
                    cid,
                    e,
                    _fmt(loss),
                    _fmt(report.val_losses[e]),
                    _fmt(report.val_maes[e]),
                ])


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _json_dump(path: Path, payload) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _check_windows(config: ExperimentConfig, clients: Sequence[ClientWindows]) -> None:
    """Raise DataError naming the clients and split a run lacks windows in.

    Every client is scored on its test windows. Training validates on every
    client in the individual setting and on at least one in the others. The
    60/20/20 split gives train at least as many rows as test, so a client
    with test windows has train windows too. The headline NRMSE divides by
    the mean of each traffic target over a client's test windows, in
    original units, so a zero mean there is refused here, before training,
    by the rule evaluate_forecasts applies.
    """
    rules = [("test", any)]
    if config.setting == "individual":
        rules.append(("validation", any))
    elif config.setting == "centralized" or config.federation.rounds > 0:
        rules.append(("validation", all))
    for split, refuses in rules:
        empty = [getattr(cw, split).count == 0 for cw in clients]
        if refuses(empty):
            ids = ", ".join(cw.client_id for cw, e in zip(clients, empty) if e)
            raise DataError(
                f"{ids}: no {split} windows; a window_size of "
                f"{config.preprocessing.window_size} needs more rows in the "
                f"{split} split"
            )
    for cw in clients:
        zero = zero_mean_traffic_targets(cw.test.targets, cw.scaler)
        if zero:
            raise DataError(f"{cw.client_id}: {zero[0]} has zero mean over the "
                            f"test windows, so its NRMSE is undefined")


def run_experiment(
    config: ExperimentConfig, output_dir: Optional[str] = None
) -> ExperimentSummary:
    """Execute every (grid cell, seed) run and write all artifacts.

    The raw traces are released once preprocessing returns: a run holds each
    client's scaled series, not its trace as well.
    """
    clients = preprocess_clients(materialize_data(config), config.preprocessing)
    _check_windows(config, clients)
    spec = config.model
    out_root = Path(output_dir if output_dir is not None else config.output_dir)

    runs: list[RunResult] = []
    for cell_label, aggregator in config.cells:
        for seed in config.seeds:
            run_dir = out_root / cell_label / f"seed-{seed}"
            runs.append(_run_once(
                config, spec, clients, aggregator, seed, run_dir, cell_label
            ))

    summary = ExperimentSummary(
        name=config.name,
        setting=config.setting,
        cells=tuple(label for label, _ in config.cells),
        runs=tuple(runs),
        output_dir=str(out_root),
    )
    out_root.mkdir(parents=True, exist_ok=True)
    _json_dump(out_root / "summary.json", _summary_payload(summary))
    _json_dump(
        out_root / "manifest.json",
        {
            "format": 1,
            "package_version": __version__,
            "config": config_to_dict(config),
        },
    )
    _json_dump(out_root / "environment.json", _environment())
    return summary


def _environment() -> dict:
    """What a run's bytes can depend on besides its config.

    GEMMs that reduce over a batch can round differently with another BLAS
    build or thread count, so two hosts can write different bytes for one
    config; this record lets such a difference be explained. It is not part
    of the manifest, and reruns are not compared on it.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy's show_config has no mode
        blas = {}
    return {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES},
    }


def _run_once(
    config, spec, clients, aggregator, seed, run_dir: Path, cell: str
) -> RunResult:
    """Train one (cell, seed) run in the config's setting, then score it.

    Only the training differs per setting: each writes its curve CSV and
    names the weights every client is scored with. Checkpoints, test scores,
    fine-tuning and metrics.json are shared. run_dir is created only once
    training, scoring and fine-tuning have succeeded, so a run that fails
    leaves no directory.
    """
    budget = (config.training.max_epochs, config.training.patience, seed)
    best_index = server_total_mb = shared = None
    if config.setting == "federated":
        history = run_federated(spec, clients, config.federation, aggregator, seed)
        curves = functools.partial(_write_rounds_csv, run_dir / "rounds.csv", history)
        shared, best_index = history.best_global, history.best_round
        server_total_mb = megabytes(account_communication(history).server_total_bytes)
    elif config.setting == "centralized":
        report = run_centralized(spec, clients, *budget)
        curves = functools.partial(
            _write_epochs_csv, run_dir / "epochs.csv", {"pooled": report}
        )
        shared, best_index = report.params, report.best_epoch
    else:
        reports = {cw.client_id: run_centralized(spec, [cw], *budget) for cw in clients}
        curves = functools.partial(_write_epochs_csv, run_dir / "epochs.csv", reports)
        models = {cid: report.params for cid, report in reports.items()}
        checkpoints = {f"checkpoint-{cid}.bin": p for cid, p in models.items()}
    if shared is not None:
        models = {cw.client_id: shared for cw in clients}
        checkpoints = {"checkpoint.bin": shared}
    per_client = _score_params(spec, lambda cw: models[cw.client_id], clients)
    fine_tuned: dict[str, MetricReport] = {}
    if config.fine_tune:
        fine_tuned = _score_params(
            spec,
            lambda cw: fine_tune(
                spec, models[cw.client_id], cw, config.fine_tune_epochs, seed
            ),
            clients,
            "fine-tuned test",
        )
    result = RunResult(
        cell=cell,
        seed=seed,
        **{m: float(np.mean([getattr(r, m) for r in per_client.values()]))
           for m in HEADLINE_METRICS},
        best_index=best_index,
        server_total_mb=server_total_mb,
        per_client=per_client,
        fine_tuned=fine_tuned,
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    curves()
    for name, params in checkpoints.items():
        with _atomic_open(run_dir / name, "wb") as fh:
            fh.write(serialize_params(params))
    _json_dump(run_dir / "metrics.json", dataclasses.asdict(result))
    return result


def _summary_payload(summary: ExperimentSummary) -> dict:
    cells = []
    for cell in summary.cells:
        cell_runs = [r for r in summary.runs if r.cell == cell]
        payload = {"cell": cell, "runs": [dataclasses.asdict(r) for r in cell_runs]}
        for m in HEADLINE_METRICS:
            values = [getattr(r, m) for r in cell_runs]
            payload[f"mean_{m}"] = float(np.mean(values))
            payload[f"std_{m}"] = float(np.std(values))
        cells.append(payload)
    return {
        "name": summary.name,
        "setting": summary.setting,
        "n_runs": len(summary.runs),
        "cells": cells,
    }


def emit_plot_data(run_dirs: Sequence[str | Path], out_path: str | Path) -> int:
    """Flatten finished experiments into one long-format CSV.

    Columns: experiment, cell, seed, round, metric, value. Per-round (or
    per-epoch) validation curves use their own index; final test metrics use
    round -1. Returns the number of data rows written.
    """
    rows: list[list] = []
    for run_dir in run_dirs:
        root = Path(run_dir)
        summary_path = root / "summary.json"
        if not summary_path.exists():
            raise FileNotFoundError(f"{root}: no summary.json (not a finished run?)")
        # (cell, seed, run directory, final-metric rows) of every run
        runs = []
        try:
            with open(summary_path) as fh:
                summary = json.load(fh)
            name = summary["name"]
            for cell in summary["cells"]:
                for run in cell["runs"]:
                    seed = run["seed"]
                    final = [
                        [name, cell["cell"], seed, -1, metric, run[metric]]
                        for metric in HEADLINE_METRICS
                        if run[metric] is not None
                    ]
                    run_path = root / cell["cell"] / f"seed-{seed}"
                    runs.append((cell["cell"], seed, run_path, final))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{summary_path}: malformed summary: {exc!r}") from exc
        for cell, seed, run_path, final in runs:
            rows.extend(final)
            rounds_csv = run_path / "rounds.csv"
            epochs_csv = run_path / "epochs.csv"
            if rounds_csv.exists():
                rows.extend(_curve_rows(name, cell, seed, rounds_csv,
                                        "round", ("agg_val_mse", "agg_val_mae")))
            elif epochs_csv.exists():
                rows.extend(_curve_rows(name, cell, seed, epochs_csv,
                                        "epoch", ("val_mse", "val_mae")))
    with _atomic_open(Path(out_path), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "cell", "seed", "round", "metric", "value"])
        writer.writerows(rows)
    return len(rows)


def _curve_rows(name, cell, seed, csv_path: Path, index_col, metrics) -> list[list]:
    rows = []
    seen: set[tuple[int, str]] = set()
    with open(csv_path, newline="") as fh:
        for record in csv.DictReader(fh):
            try:
                idx = int(record[index_col])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{csv_path}: malformed {index_col} column: {exc!r}"
                ) from exc
            client = record.get("client", "")
            for metric in metrics:
                value = record.get(metric, "")
                if value == "":
                    continue
                if metric.startswith("agg_") or client in ("", "pooled"):
                    label = metric
                else:
                    label = f"{metric}[{client}]"
                if (idx, label) in seen:
                    continue  # per-round aggregates repeat on every client row
                seen.add((idx, label))
                rows.append([name, cell, seed, idx, label, value])
    return rows
