"""The benchmark's tracer must find every name it wraps and field it counts.

perfbench/tracing.py wraps fedcast functions at the attribute their callers
look up, and its counters read fields of their arguments and results.
Renaming, merging or moving one of them would break only the benchmark's own
suite, which sits outside this one; these tests make such a change fail here
too.
"""

import importlib.util
from pathlib import Path

from fedcast import experiment
from fedcast.aggregation import AggregatorConfig
from fedcast.dataio import PreprocessConfig, save_csv
from fedcast.federation import FederationConfig
from fedcast.nn.models import ModelSpec
from fedcast.synthetic import SyntheticClientSpec, SyntheticSpec, generate_synthetic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    tracing = load_tracing()
    for owner, attr in tracing._call_sites():
        target = getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr} is gone"
        # the tracer files each span under the layer that defines the callee
        layer = target.__module__.removeprefix("fedcast.")
        assert layer in tracing.LAYERS, f"{owner.__name__}.{attr}: layer {layer}"
    for op in tracing.ENGINE_OPS:
        assert callable(getattr(tracing.engine, op, None)), f"engine.{op} is gone"


def test_traced_run_reaches_every_counter(tmp_path):
    # A counter reads a field of its call's arguments or result; a traced
    # run that drops one of those fields fails here, not only under --trace.
    tracing = load_tracing()
    cohort = SyntheticSpec(
        clients=tuple(SyntheticClientSpec(f"bs{i:03d}", days=1) for i in range(2)),
        seed=0,
    )
    paths = []
    for dataset in generate_synthetic(cohort):
        paths.append(str(tmp_path / f"{dataset.client_id}.csv"))
        save_csv(dataset, paths[-1])
    config = experiment.ExperimentConfig(
        name="traced",
        setting="federated",
        output_dir=str(tmp_path / "out"),
        seeds=(0,),
        data=experiment.DataConfig(paths=tuple(paths)),
        preprocessing=PreprocessConfig(window_size=6),
        model=ModelSpec(architecture="mlp", window_size=6, hidden_sizes=(16,)),
        federation=FederationConfig(rounds=2, local_epochs=1, sampling_fraction=0.5),
        aggregator=AggregatorConfig("fedavg"),
    )
    tracer = tracing.Tracer()
    with tracer.run(0):
        experiment.run_experiment(config)
    metrics = tracer.run_metrics(0)
    for counter, _ in tracing.COUNTERS.values():
        assert metrics[counter] > 0, counter
