"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from fedcast.nn import engine  # noqa: E402

# The benchmark's workloads at a size that runs in a few seconds each.
SMALL = {
    "fed-lstm": dict(days=(1, 1), rounds=1, local_epochs=1),
    "central-cnn": dict(days=(1,), max_epochs=1),
    "cohort-mlp": dict(days=(1,) * 4, rounds=2),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes().replace(
                str(directory.resolve()).encode(), b"<dir>")
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _inputs_bytes(name: str, seed: int, directory: Path) -> dict[str, bytes]:
    inputs = wl.write_inputs(wl.WORKLOADS[name], seed, directory)
    if inputs.config is not None:
        from fedcast.experiment import config_to_dict

        return {"config": json.dumps(config_to_dict(inputs.config)).encode()}
    return _files(directory)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    first = _inputs_bytes(name, 7, tmp_path / "a")
    assert first == _inputs_bytes(name, 7, tmp_path / "b")
    assert first != _inputs_bytes(name, 8, tmp_path / "c")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_work_does_not_depend_on_the_seed(name, tmp_path):
    counts = set()
    for seed in (1, 2):
        inputs = wl.write_inputs(wl.WORKLOADS[name], seed, tmp_path / str(seed))
        _, clients = wl.setup(inputs)
        counts.add(tuple(c.train.count for c in clients))
    assert len(counts) == 1


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_writes_the_untraced_bytes_and_adds_up(name, tmp_path):
    workload = dataclasses.replace(wl.WORKLOADS[name], **SMALL[name])
    inputs = wl.write_inputs(workload, 3, tmp_path / "inputs")
    _, clients = wl.setup(inputs)
    pooled = sum(c.train.count for c in clients)

    wl.run(inputs, tmp_path / "plain")
    plain = wl.read_outcome(workload, tmp_path / "plain", pooled)
    matmul = engine.matmul
    tracer = tracing.Tracer()
    with tracer.run(1):
        wl.run(inputs, tmp_path / "traced")
    traced = wl.read_outcome(workload, tmp_path / "traced", pooled)

    assert engine.matmul is matmul, "wrappers must be removed after the run"
    assert plain.hashes and traced.hashes == plain.hashes
    assert traced.test_nrmse == plain.test_nrmse

    m = tracer.run_metrics(1)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layers + m["unattributed_s"], m["traced_run_s"], rel_tol=1e-9)
    assert 0.0 <= m["unattributed_s"] < 0.05 * m["traced_run_s"]
    assert m["nn.training.steps"] > 0 and m["nn.engine.backward_s"] > 0
    assert m["nn.params.bytes_written"] > 0
    if workload.setting == "federated":
        assert m["federation.rounds"] == workload.rounds * workload.n_seeds
        assert m["federation.server_total_mb"] > 0
    else:
        assert m["aggregation.calls"] == 0


def test_fastest_run_takes_each_segment_at_its_fastest():
    assert run.fastest_run_s([[1.0, 5.0, 2.0], [2.0, 4.0, 3.0]]) == 7.0
    # Runs split differently are compared whole.
    assert run.fastest_run_s([[1.0, 5.0], [2.0, 2.0, 3.0]]) == 6.0


def test_step_marks_split_a_run_at_every_training_step(tmp_path):
    name = "fed-lstm"
    workload = dataclasses.replace(wl.WORKLOADS[name], **SMALL[name])
    inputs = wl.write_inputs(workload, 1, tmp_path / "inputs")
    config, clients = wl.setup(inputs)
    wl.run(inputs, tmp_path / "untimed")
    with run.step_marks() as marks:
        wl.run(inputs, tmp_path / "marked")
    outcome = wl.read_outcome(workload, tmp_path / "marked",
                              sum(c.train.count for c in clients))
    batch = config.model.batch_size
    steps = workload.local_epochs * sum(
        math.ceil(c.train.count / batch) for c in clients)
    assert len(marks) == steps + 2
    assert marks == sorted(marks)
    assert outcome.hashes == wl.read_outcome(
        workload, tmp_path / "untimed", 0).hashes


def test_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [(1, 0, None, None, "run", 0.0, 1.0)]
    produced = set(tracing.layer_metrics(spans, {}))
    produced |= {"experiment.artifact_bytes", "trace_overhead_ratio"}
    assert produced == {m["name"] for m in declared["per_layer"]}
    names = {w["name"] for w in declared["workloads"]}
    assert names == set(wl.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fed-lstm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
