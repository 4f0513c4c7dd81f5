"""The five forecaster architectures over a shared flat-parameter ABI.

Every model maps a (batch, T, d) window to the next step's five targets.
Weights initialize uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; biases and
recurrent initial states are zero, which makes the all-zero parameter vector
predict exactly zero everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from fedcast.dataio import WindowedDataset
from fedcast.nn import engine as eg
from fedcast.nn.engine import Tensor
from fedcast.nn.params import Layout, ParameterVector, TensorSpec
from fedcast.schema import (ALL_POSITIVE, POSITIVE_FINITE, at_least, check, knob,
                            one_of, read_by)

# The ModelSpec shape fields each architecture reads; it ignores the rest.
# Every architecture also reads the window, feature, target, optimizer and
# batch fields.
ARCHITECTURE_FIELDS: dict[str, tuple[str, ...]] = {
    "mlp": ("hidden_sizes",),
    "rnn": ("recurrent_units", "dense_units"),
    "lstm": ("recurrent_units", "dense_units"),
    "gru": ("recurrent_units", "dense_units"),
    "cnn": ("conv_filters", "kernel_size", "dense_units"),
}
ARCHITECTURES: tuple[str, ...] = tuple(ARCHITECTURE_FIELDS)
_BY_ARCHITECTURE = read_by("architecture", ARCHITECTURE_FIELDS)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture choice plus shape and optimizer hyper-parameters.

    Defaults follow the reference configuration: 10-step windows over 11
    features, 5 targets, MLP hidden stack (256, 128, 64), 128 recurrent
    units with a 128-unit ReLU head, CNN filters (16, 16, 32, 32) with 3x3
    kernels, Adam at lr 0.001, batch size 128. batch_size is also the
    number of windows predict runs per forward pass, so inference never
    holds more than one training step's activations. Each architecture
    reads only its ARCHITECTURE_FIELDS entry of the shape fields; any other
    must keep its default, since a value there would change nothing.
    """

    architecture: str = knob(rule=one_of(ARCHITECTURES))
    window_size: int = knob(10, at_least(1))
    n_features: int = knob(11, at_least(1))
    n_targets: int = knob(5, at_least(1))
    hidden_sizes: tuple[int, ...] = knob((256, 128, 64), ALL_POSITIVE, _BY_ARCHITECTURE)
    recurrent_units: int = knob(128, at_least(1), _BY_ARCHITECTURE)
    dense_units: int = knob(128, at_least(1), _BY_ARCHITECTURE)
    conv_filters: tuple[int, ...] = knob((16, 16, 32, 32), ALL_POSITIVE, _BY_ARCHITECTURE)
    kernel_size: int = knob(3, at_least(1), _BY_ARCHITECTURE)
    learning_rate: float = knob(0.001, POSITIVE_FINITE)
    batch_size: int = knob(128, at_least(1))

    __post_init__ = check


@functools.cache
def layout_for(spec: ModelSpec) -> Layout:
    """Canonical tensor table for one spec; identical specs share one Layout.

    The tensors are listed in the order in which forward_graph takes them.
    Built once per spec, so check_layout costs a hash and an identity test.
    """
    tensors: list[TensorSpec] = []

    def layer(prefix: str, n_in: int, n_out: int) -> int:
        tensors.append(TensorSpec(f"{prefix}.w", (n_in, n_out), fan_in=n_in))
        tensors.append(TensorSpec(f"{prefix}.b", (n_out,)))
        return n_out

    if spec.architecture == "mlp":
        width = spec.window_size * spec.n_features
        for i, h in enumerate(spec.hidden_sizes):
            width = layer(f"fc{i}", width, h)
    elif spec.architecture == "cnn":
        width = 1  # one input channel
        for i, f in enumerate(spec.conv_filters):
            width = layer(f"conv{i}", width * spec.kernel_size**2, f)
        width = layer("head", width, spec.dense_units)
    else:
        d, units = spec.n_features, spec.recurrent_units
        gates = {"rnn": 1, "lstm": 4, "gru": 3}[spec.architecture] * units
        tensors.append(TensorSpec("cell.w_x", (d, gates), fan_in=d))
        tensors.append(TensorSpec("cell.w_h", (units, gates), fan_in=units))
        tensors.append(TensorSpec("cell.b", (gates,)))
        width = layer("head", units, spec.dense_units)
    layer("out", width, spec.n_targets)
    return Layout(tuple(tensors), tag=spec.architecture)


def init_model(spec: ModelSpec, seed: int) -> ParameterVector:
    """Deterministic init: one PCG64 stream, tensors drawn in layout order."""
    layout = layout_for(spec)
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.size, dtype=np.float64)
    for tensor in layout.tensors:
        if tensor.fan_in is not None:
            bound = 1.0 / np.sqrt(tensor.fan_in)
            lo, hi, _ = layout.offsets[tensor.name]
            values[lo:hi] = rng.uniform(-bound, bound, size=tensor.size)
    return ParameterVector(values, layout)


def forward_graph(
    spec: ModelSpec, tensors: Sequence[Tensor], inputs: np.ndarray
) -> Tensor:
    """Build the prediction graph for a batch of windows.

    tensors are the weights in layout order (see leaf_tensors); each layer
    takes the next two, w and b, and a recurrent cell the next three. inputs
    is (batch, T, d), and may be a view of overlapping windows (see
    make_windows): it is copied to a contiguous array first, since the MLP's
    reshape of such a view would give rows that overlap, which numpy's
    matmul multiplies without BLAS, slower and with different rounding.
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != spec.window_size or x.shape[2] != spec.n_features:
        raise ValueError(
            f"expected inputs (batch, {spec.window_size}, {spec.n_features}), "
            f"got {x.shape}"
        )
    batch = x.shape[0]
    weights = iter(tensors)

    def dense(h: Tensor, relu: bool) -> Tensor:
        return eg.dense(h, *islice(weights, 2), relu)

    if spec.architecture == "mlp":
        h = Tensor(x.reshape(batch, spec.window_size * spec.n_features))
        for _ in spec.hidden_sizes:
            h = dense(h, True)
    elif spec.architecture == "cnn":
        # One input channel: the window is a (T, d) channels-last image.
        h = Tensor(x.reshape(batch, spec.window_size, spec.n_features, 1))
        for _ in spec.conv_filters:
            h = eg.conv2d(h, *islice(weights, 2), spec.kernel_size,
                          spec.kernel_size // 2, relu=True)
        h = dense(eg.spatial_mean(h), True)
    else:
        h = dense(eg.recurrent(spec.architecture, x, *islice(weights, 3)), True)
    return dense(h, False)


def leaf_tensors(params: ParameterVector, requires_grad: bool = True) -> list[Tensor]:
    """The weights as graph tensors in layout order, each a view, not a copy."""
    return [Tensor(params.view(t.name), requires_grad) for t in params.layout.tensors]


def check_layout(spec: ModelSpec, params: ParameterVector) -> None:
    """Raise ValueError unless params has exactly the layout of spec."""
    expected = layout_for(spec)
    if params.layout != expected:
        raise ValueError(
            f"weights with layout {params.layout.tag!r} ({params.size} values) "
            f"do not fit the {expected.tag!r} spec ({expected.size} values)"
        )


def predict(
    spec: ModelSpec, params: ParameterVector, inputs: np.ndarray | WindowedDataset
) -> np.ndarray:
    """Predict (batch, n_targets) in chunks of spec.batch_size windows.

    inputs is a (batch, T, d) array or a WindowedDataset, whose windows are
    gathered one chunk at a time. The graph of one chunk is dropped before
    the next is built, so peak memory is bounded by one chunk, the size of
    a training batch, not by len(inputs). Chunked matmuls can round
    differently from one full-batch forward_graph call, so agreement with
    it is to float precision, not bitwise; the chunk boundaries depend only
    on the input length and the batch size, so repeated calls are
    bit-identical.
    """
    check_layout(spec, params)
    if isinstance(inputs, WindowedDataset):
        def chunk(part: slice) -> np.ndarray:
            return inputs.batch(part)[0]
    else:
        chunk = np.asarray(inputs, dtype=np.float64).__getitem__
    constants = leaf_tensors(params, requires_grad=False)
    parts = [
        forward_graph(spec, constants, chunk(slice(i, i + spec.batch_size))).data
        # at least one chunk, so zero windows give a (0, n_targets) result
        for i in range(0, max(len(inputs), 1), spec.batch_size)
    ]
    return np.concatenate(parts, axis=0)
