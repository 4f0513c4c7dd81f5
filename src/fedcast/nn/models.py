"""The five forecaster architectures over a shared flat-parameter ABI.

Every model maps a (batch, T, d) window to the next step's five targets.
Weights initialize uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; biases and
recurrent initial states are zero, which makes the all-zero parameter vector
predict exactly zero everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from fedcast.nn import engine as eg
from fedcast.nn.engine import Tensor
from fedcast.nn.params import Layout, ParameterVector, TensorSpec

ARCHITECTURES: tuple[str, ...] = ("mlp", "rnn", "lstm", "gru", "cnn")

# Windows per forward pass in predict; bounds its peak memory.
PREDICT_CHUNK = 512


@dataclass(frozen=True)
class ModelSpec:
    """Architecture choice plus shape and optimizer hyper-parameters.

    Defaults follow the reference configuration: 10-step windows over 11
    features, 5 targets, MLP hidden stack (256, 128, 64), 128 recurrent
    units with a 128-unit ReLU head, CNN filters (16, 16, 32, 32) with 3x3
    kernels, Adam at lr 0.001, batch size 128.
    """

    architecture: str
    window_size: int = 10
    n_features: int = 11
    n_targets: int = 5
    hidden_sizes: tuple[int, ...] = (256, 128, 64)
    recurrent_units: int = 128
    dense_units: int = 128
    conv_filters: tuple[int, ...] = (16, 16, 32, 32)
    kernel_size: int = 3
    learning_rate: float = 0.001
    batch_size: int = 128

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, "
                f"expected one of {ARCHITECTURES}"
            )
        for name in ("window_size", "n_features", "n_targets", "recurrent_units",
                     "dense_units", "kernel_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if any(f < 1 for f in self.conv_filters):
            raise ValueError("conv_filters must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def layout_for(spec: ModelSpec) -> Layout:
    """Canonical tensor table for one spec; identical specs share offsets."""
    d, t_len = spec.n_features, spec.window_size
    out = spec.n_targets
    tensors: list[TensorSpec] = []

    def dense(prefix: str, n_in: int, n_out: int) -> None:
        tensors.append(TensorSpec(f"{prefix}.w", (n_in, n_out), fan_in=n_in))
        tensors.append(TensorSpec(f"{prefix}.b", (n_out,)))

    if spec.architecture == "mlp":
        width = t_len * d
        for i, h in enumerate(spec.hidden_sizes):
            dense(f"fc{i}", width, h)
            width = h
        dense("out", width, out)
    elif spec.architecture in ("rnn", "lstm", "gru"):
        units = spec.recurrent_units
        gates = {"rnn": 1, "lstm": 4, "gru": 3}[spec.architecture]
        tensors.append(TensorSpec("cell.w_x", (d, gates * units), fan_in=d))
        tensors.append(TensorSpec("cell.w_h", (units, gates * units), fan_in=units))
        tensors.append(TensorSpec("cell.b", (gates * units,)))
        dense("head", units, spec.dense_units)
        dense("out", spec.dense_units, out)
    elif spec.architecture == "cnn":
        k2 = spec.kernel_size * spec.kernel_size
        channels = 1
        for i, f in enumerate(spec.conv_filters):
            tensors.append(
                TensorSpec(f"conv{i}.w", (channels * k2, f), fan_in=channels * k2)
            )
            tensors.append(TensorSpec(f"conv{i}.b", (f,)))
            channels = f
        dense("head", channels, spec.dense_units)
        dense("out", spec.dense_units, out)
    return Layout(tuple(tensors), tag=spec.architecture)


def init_model(spec: ModelSpec, seed: int) -> ParameterVector:
    """Deterministic init: one PCG64 stream, tensors drawn in layout order."""
    layout = layout_for(spec)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    values = np.zeros(layout.size, dtype=np.float64)
    pv = ParameterVector(values, layout)
    for tensor in layout.tensors:
        if tensor.fan_in is None:
            continue
        bound = 1.0 / np.sqrt(tensor.fan_in)
        lo, hi, _ = layout.offsets[tensor.name]
        values[lo:hi] = rng.uniform(-bound, bound, size=tensor.size)
    return pv


def forward_graph(
    spec: ModelSpec, tensors: Mapping[str, Tensor], inputs: np.ndarray
) -> Tensor:
    """Build the prediction graph for a batch of windows.

    tensors maps layout names to engine Tensors (leaves when training,
    constants when predicting). inputs is (batch, T, d).
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != spec.window_size or x.shape[2] != spec.n_features:
        raise ValueError(
            f"expected inputs (batch, {spec.window_size}, {spec.n_features}), "
            f"got {x.shape}"
        )
    if spec.architecture == "mlp":
        return _mlp(spec, tensors, x)
    if spec.architecture == "cnn":
        return _cnn(spec, tensors, x)
    return _recurrent(spec, tensors, x)


def _dense_head(tensors: Mapping[str, Tensor], h: Tensor) -> Tensor:
    h = eg.relu(eg.add(eg.matmul(h, tensors["head.w"]), tensors["head.b"]))
    return eg.add(eg.matmul(h, tensors["out.w"]), tensors["out.b"])


def _mlp(spec, tensors, x):
    batch = x.shape[0]
    h: Tensor = Tensor(x.reshape(batch, spec.window_size * spec.n_features))
    for i in range(len(spec.hidden_sizes)):
        h = eg.relu(eg.add(eg.matmul(h, tensors[f"fc{i}.w"]), tensors[f"fc{i}.b"]))
    return eg.add(eg.matmul(h, tensors["out.w"]), tensors["out.b"])


def _recurrent(spec, tensors, x):
    h = eg.recurrent(spec.architecture, x, tensors["cell.w_x"], tensors["cell.w_h"],
                     tensors["cell.b"])
    return _dense_head(tensors, h)


def _cnn(spec, tensors, x):
    batch = x.shape[0]
    # One input channel: the window is a (T, d) image.
    h: Tensor = Tensor(
        np.ascontiguousarray(
            x.reshape(batch, 1, spec.window_size, spec.n_features)
        )
    )
    pad = spec.kernel_size // 2
    for i in range(len(spec.conv_filters)):
        h = eg.relu(
            eg.conv2d(h, tensors[f"conv{i}.w"], tensors[f"conv{i}.b"],
                      spec.kernel_size, pad)
        )
    return _dense_head(tensors, eg.spatial_mean(h))


def leaf_tensors(params: ParameterVector) -> dict[str, Tensor]:
    """Parameter views wrapped as gradient-bearing graph leaves."""
    return {
        t.name: Tensor(params.view(t.name), requires_grad=True)
        for t in params.layout.tensors
    }


def predict(spec: ModelSpec, params: ParameterVector, inputs: np.ndarray) -> np.ndarray:
    """Predict (batch, n_targets) in chunks of PREDICT_CHUNK windows.

    The graph of one chunk is dropped before the next is built, so peak
    memory is bounded by the chunk, not by len(inputs). Chunked matmuls can
    round differently from one full-batch forward_graph call, so agreement
    with it is to float precision, not bitwise; the chunk boundaries depend
    only on the input length, so repeated calls are bit-identical.
    """
    x = np.asarray(inputs, dtype=np.float64)
    constants = {t.name: Tensor(params.view(t.name)) for t in params.layout.tensors}
    parts = [
        forward_graph(spec, constants, x[i : i + PREDICT_CHUNK]).data
        # at least one chunk, so zero windows give a (0, n_targets) result
        for i in range(0, max(len(x), 1), PREDICT_CHUNK)
    ]
    return np.concatenate(parts, axis=0)
