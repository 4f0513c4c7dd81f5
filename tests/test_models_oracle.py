"""forward_graph and loss_and_grad against the name-based model they must match.

`oracle_forward_graph` is forward_graph as it was when every architecture
had its own builder (`_mlp`, `_recurrent`, `_cnn` and the shared
`_dense_head`) that looked each weight up by its layout name, and
`oracle_loss_and_grad` scattered each leaf's gradient by name into a zeroed
flat vector. forward_graph now walks the weights in layout order and
loss_and_grad joins the leaves' gradients. For all five architectures, at
reduced and reference shapes, the loss, the gradient, predict's output and
a FedProx training run must be bit-equal under both.
"""

from typing import Mapping

import numpy as np
import pytest

from fedcast.nn import engine as eg
from fedcast.nn.engine import Tensor
from fedcast.nn.models import (
    ARCHITECTURES,
    ModelSpec,
    init_model,
    predict,
)
from fedcast.nn.params import ParameterVector
from fedcast.nn.training import (
    AdamState,
    adam_step,
    loss_and_grad,
    train_local,
)
from helpers import windows_of


def oracle_forward_graph(
    spec: ModelSpec, tensors: Mapping[str, Tensor], inputs: np.ndarray
) -> Tensor:
    x = np.ascontiguousarray(inputs, dtype=np.float64)
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
    h = eg.dense(h, tensors["head.w"], tensors["head.b"], True)
    return eg.dense(h, tensors["out.w"], tensors["out.b"], False)


def _mlp(spec, tensors, x):
    batch = x.shape[0]
    h: Tensor = Tensor(x.reshape(batch, spec.window_size * spec.n_features))
    for i in range(len(spec.hidden_sizes)):
        h = eg.dense(h, tensors[f"fc{i}.w"], tensors[f"fc{i}.b"], True)
    return eg.dense(h, tensors["out.w"], tensors["out.b"], False)


def _recurrent(spec, tensors, x):
    h = eg.recurrent(spec.architecture, x, tensors["cell.w_x"], tensors["cell.w_h"],
                     tensors["cell.b"])
    return _dense_head(tensors, h)


def _cnn(spec, tensors, x):
    batch = x.shape[0]
    # One input channel: the window is a (T, d) channels-last image.
    h: Tensor = Tensor(x.reshape(batch, spec.window_size, spec.n_features, 1))
    pad = spec.kernel_size // 2
    for i in range(len(spec.conv_filters)):
        h = eg.conv2d(h, tensors[f"conv{i}.w"], tensors[f"conv{i}.b"],
                      spec.kernel_size, pad, relu=True)
    return _dense_head(tensors, eg.spatial_mean(h))


def oracle_leaf_tensors(params: ParameterVector) -> dict[str, Tensor]:
    return {
        t.name: Tensor(params.view(t.name), requires_grad=True)
        for t in params.layout.tensors
    }


def oracle_predict(spec, params, inputs):
    chunk = np.asarray(inputs, dtype=np.float64).__getitem__
    constants = {t.name: Tensor(params.view(t.name)) for t in params.layout.tensors}
    parts = [
        oracle_forward_graph(spec, constants, chunk(slice(i, i + spec.batch_size))).data
        for i in range(0, max(len(inputs), 1), spec.batch_size)
    ]
    return np.concatenate(parts, axis=0)


def oracle_loss_and_grad(spec, params, inputs, targets):
    leaves = oracle_leaf_tensors(params)
    pred = oracle_forward_graph(spec, leaves, inputs)
    loss = eg.mse(pred, targets)
    loss.backward()
    layout = params.layout
    flat = np.zeros(layout.size, dtype=np.float64)
    for t in layout.tensors:
        g = leaves[t.name].grad
        if g is not None:
            lo, hi, _ = layout.offsets[t.name]
            flat[lo:hi] = g.ravel()
    return float(loss.data), flat


def oracle_train(spec, params, train, epochs, seed, proximal_mu):
    """train_local's final weights, from the per-epoch helper it once called."""
    layout = params.layout
    values = params.values.copy()
    state = AdamState.zeros(layout.size)
    for e in range(epochs):
        perm = np.random.default_rng([seed, e]).permutation(train.count)
        for lo in range(0, train.count, spec.batch_size):
            idx = perm[lo : lo + spec.batch_size]
            pv = ParameterVector(values, layout)
            loss, grad = oracle_loss_and_grad(spec, pv, *train.batch(idx))
            if proximal_mu > 0.0:
                diff = values - params.values
                loss += 0.5 * proximal_mu * float(diff @ diff)
                grad += proximal_mu * diff
            values, state = adam_step(state, values, grad, spec.learning_rate)
    return values


def reduced_spec(arch):
    common = dict(window_size=4, n_features=3, n_targets=2, batch_size=8)
    if arch == "mlp":
        return ModelSpec(architecture="mlp", hidden_sizes=(4, 3), **common)
    if arch == "cnn":
        return ModelSpec(architecture="cnn", conv_filters=(2, 3), dense_units=3,
                         **common)
    return ModelSpec(architecture=arch, recurrent_units=3, dense_units=4, **common)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).view(np.int64).tobytes()


def batch(spec, size, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-1, 1, (size, spec.window_size, spec.n_features))
    return x, rng.uniform(-1, 1, (size, spec.n_targets))


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("shape, size", [
    ("reduced", 1), ("reduced", 5), ("reference", 1), ("reference", 37),
])
def test_loss_and_grad_bit_equal_to_name_based_model(arch, shape, size):
    spec = reduced_spec(arch) if shape == "reduced" else ModelSpec(architecture=arch)
    pv = init_model(spec, 4)
    x, y = batch(spec, size, seed=size)
    loss, grad = loss_and_grad(spec, pv, x, y)
    want_loss, want_grad = oracle_loss_and_grad(spec, pv, x, y)
    assert bits(loss) == bits(want_loss)
    assert grad.shape == want_grad.shape and bits(grad) == bits(want_grad)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("shape, size", [
    ("reduced", 1), ("reduced", 515), ("reference", 1), ("reference", 515),
])
def test_predict_bit_equal_to_name_based_model(arch, shape, size):
    # 515 windows end in a partial chunk of three at batch sizes 8 and 128
    spec = reduced_spec(arch) if shape == "reduced" else ModelSpec(architecture=arch)
    pv = init_model(spec, 6)
    x, _ = batch(spec, size, seed=size)
    out = predict(spec, pv, x)
    assert out.shape == (size, spec.n_targets)
    assert bits(out) == bits(oracle_predict(spec, pv, x))


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_training_bit_equal_to_per_epoch_helper(arch, mu):
    # 21 windows in batches of 8 end every epoch in a partial batch of 5
    spec = reduced_spec(arch)
    pv = init_model(spec, 2)
    train = windows_of(*batch(spec, 21, seed=3))
    report = train_local(spec, pv, train, epochs=2, seed=7, proximal_mu=mu)
    assert report.steps == 6
    want = oracle_train(spec, pv, train, 2, seed=7, proximal_mu=mu)
    assert bits(report.params.values) == bits(want)
