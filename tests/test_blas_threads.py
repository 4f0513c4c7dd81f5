"""A run writes the same bytes under one and two BLAS threads.

OpenBLAS splits a large GEMM across its threads, and the split can change
how a sum over the GEMM's inner dimension is grouped. Each run starts in a
fresh interpreter, since the thread count is read when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import fedcast
from fedcast.dataio import save_csv
from helpers import random_dataset

SRC = Path(fedcast.__file__).resolve().parents[1]


def run_under_threads(config: Path, out: Path, threads: int) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "fedcast.cli", "run", "--config", str(config),
                           "--output-dir", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root but the wall-clock environment record."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "environment.json"}


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_recurrent_federated_run_is_byte_identical_under_one_and_two_blas_threads(
        tmp_path, cell):
    # bs000's 442 rows leave 265 training rows, so 255 windows of 10: its
    # last batch of 128 holds 127, a size at which a weight-gradient GEMM
    # over all steps at once (K = T*B = 1,270 rows) gives other bits at one
    # and two OpenBLAS threads
    paths = []
    for i, rows in enumerate((442, 500)):
        path = tmp_path / f"bs00{i}.csv"
        save_csv(random_dataset(rows, seed=i, client_id=f"bs00{i}"), path)
        paths.append(str(path))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "name": f"threads-{cell}",
        "setting": "federated",
        "output_dir": str(tmp_path / "unused"),
        "seeds": [0],
        "data": {"paths": paths},
        "model": {"architecture": cell},
        "federation": {"rounds": 1, "local_epochs": 1},
        "aggregator": {"strategy": "fedavg"},
    }))
    for threads in (1, 2):
        run_under_threads(config, tmp_path / f"threads-{threads}", threads)
    one, two = tree_bytes(tmp_path / "threads-1"), tree_bytes(tmp_path / "threads-2")
    assert one.keys() == two.keys()
    assert [rel for rel in one if one[rel] != two[rel]] == []
