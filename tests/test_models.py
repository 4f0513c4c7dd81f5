import tracemalloc

import numpy as np
import pytest

from fedcast.dataio import make_windows
from fedcast.nn import engine
from fedcast.nn.models import (
    ARCHITECTURES,
    ModelSpec,
    forward_graph,
    init_model,
    leaf_tensors,
    layout_for,
    predict,
)
from fedcast.nn.training import loss_and_grad
from helpers import random_dataset, zeros_like


# ------------------------------------------------------------ parameter counts

def test_mlp_parameter_count():
    # (110*256+256) + (256*128+128) + (128*64+64) + (64*5+5)
    expected = (110 * 256 + 256) + (256 * 128 + 128) + (128 * 64 + 64) + (64 * 5 + 5)
    assert expected == 69_893
    assert layout_for(ModelSpec(architecture="mlp")).size == expected


def test_rnn_parameter_count():
    # single combined bias: (11*128 + 128*128 + 128) + dense head + output
    expected = (11 * 128 + 128 * 128 + 128) + (128 * 128 + 128) + (128 * 5 + 5)
    assert expected == 35_077
    assert layout_for(ModelSpec(architecture="rnn")).size == expected


def test_lstm_parameter_count():
    gates = 4
    expected = (
        (11 * gates * 128 + 128 * gates * 128 + gates * 128)
        + (128 * 128 + 128)
        + (128 * 5 + 5)
    )
    assert expected == 88_837
    assert layout_for(ModelSpec(architecture="lstm")).size == expected


def test_gru_parameter_count():
    gates = 3
    expected = (
        (11 * gates * 128 + 128 * gates * 128 + gates * 128)
        + (128 * 128 + 128)
        + (128 * 5 + 5)
    )
    assert expected == 70_917
    assert layout_for(ModelSpec(architecture="gru")).size == expected


def test_cnn_parameter_count():
    k2 = 9
    conv = 0
    channels = 1
    for f in (16, 16, 32, 32):
        conv += channels * k2 * f + f
        channels = f
    expected = conv + (32 * 128 + 128) + (128 * 5 + 5)
    assert expected == 21_237
    assert layout_for(ModelSpec(architecture="cnn")).size == expected


# -------------------------------------------------------------- initialization

def test_init_deterministic():
    spec = ModelSpec(architecture="lstm")
    a = init_model(spec, 42)
    b = init_model(spec, 42)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init_model(spec, 43).values)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_init_zero_biases_and_bounded_weights(arch):
    spec = ModelSpec(architecture=arch)
    pv = init_model(spec, 7)
    for tensor in pv.layout.tensors:
        block = pv.view(tensor.name)
        if tensor.fan_in is None:
            assert np.all(block == 0.0), tensor.name
        else:
            bound = 1.0 / np.sqrt(tensor.fan_in)
            assert np.abs(block).max() <= bound
            assert np.abs(block).max() > 0.0


def test_layout_canonical_and_tagged():
    a = layout_for(ModelSpec(architecture="gru"))
    b = layout_for(ModelSpec(architecture="gru"))
    assert a == b
    assert a.tag == "gru"
    assert a.size == sum(t.size for t in a.tensors)


# --------------------------------------------------------------------- forward

@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_zero_params_give_zero_predictions(arch):
    spec = ModelSpec(architecture=arch)
    pv = zeros_like(layout_for(spec))
    x = np.random.Generator(np.random.PCG64(3)).uniform(0, 1, (4, 10, 11))
    assert np.all(predict(spec, pv, x) == 0.0)


def test_hand_sized_mlp_matches_pencil_computation():
    spec = ModelSpec(
        architecture="mlp", window_size=1, n_features=1, n_targets=1,
        hidden_sizes=(1,),
    )
    pv = zeros_like(layout_for(spec))
    pv.view("fc0.w")[:] = 2.0
    pv.view("fc0.b")[:] = 0.5
    pv.view("out.w")[:] = 3.0
    pv.view("out.b")[:] = -1.0
    x = np.array([[[1.5]]])
    # relu(1.5*2 + 0.5) * 3 - 1 = 3.5*3 - 1 = 9.5
    assert predict(spec, pv, x)[0, 0] == pytest.approx(9.5, abs=1e-12)
    # negative pre-activation goes through the relu: relu(-2*2+0.5) = 0
    x_neg = np.array([[[-2.0]]])
    assert predict(spec, pv, x_neg)[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_cnn_shape_contract():
    spec = ModelSpec(architecture="cnn")
    pv = init_model(spec, 0)
    out = predict(spec, pv, np.zeros((1, 10, 11)))
    assert out.shape == (1, 5)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_predict_on_zero_windows_returns_an_empty_batch(arch):
    spec = ModelSpec(architecture=arch)
    out = predict(spec, init_model(spec, 0), np.zeros((0, 10, 11)))
    assert out.shape == (0, 5)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_batch_permutation_equivariant(arch):
    spec = ModelSpec(architecture=arch)
    pv = init_model(spec, 5)
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.uniform(0, 1, (6, 10, 11))
    perm = rng.permutation(6)
    base = predict(spec, pv, x)
    shuffled = predict(spec, pv, x[perm])
    assert np.array_equal(base[perm], shuffled)


def test_forward_rejects_bad_shapes():
    spec = ModelSpec(architecture="mlp")
    pv = init_model(spec, 0)
    with pytest.raises(ValueError):
        predict(spec, pv, np.zeros((4, 9, 11)))
    with pytest.raises(ValueError):
        predict(spec, pv, np.zeros((4, 10)))


def test_predict_chunking_matches_forward():
    # three chunks, the last a single window, against one unchunked graph
    spec = ModelSpec(architecture="mlp", hidden_sizes=(16,))
    pv = init_model(spec, 1)
    n = 2 * spec.batch_size + 1
    x = np.random.Generator(np.random.PCG64(2)).uniform(0, 1, (n, 10, 11))
    chunked = predict(spec, pv, x)
    whole = forward_graph(spec, leaf_tensors(pv), x).data
    # chunked matmuls round differently, so agreement is to precision
    assert chunked.shape == (n, 5)
    assert np.max(np.abs(chunked - whole)) <= 1e-12
    assert np.array_equal(chunked, predict(spec, pv, x))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_window_views_give_the_bytes_of_contiguous_windows(arch):
    # make_windows hands out overlapping read-only views; every model must
    # see the same numbers, and round the same way, as on a private copy
    spec = ModelSpec(architecture=arch)
    pv = init_model(spec, 0)
    windows = make_windows(random_dataset(60, seed=3).values, spec.window_size)
    view = windows.inputs
    copy = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous and copy.flags.c_contiguous
    assert predict(spec, pv, view).tobytes() == predict(spec, pv, copy).tobytes()
    loss_v, grad_v = loss_and_grad(spec, pv, view, windows.targets)
    loss_c, grad_c = loss_and_grad(spec, pv, copy, windows.targets)
    assert loss_v == loss_c and grad_v.tobytes() == grad_c.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_peak_memory_is_bounded_by_the_chunk():
    # each chunk's graph is freed before the next is built, so four chunks
    # peak where one does (an unchunked pass would peak about 4x higher)
    spec = ModelSpec(architecture="lstm")
    pv = init_model(spec, 0)
    rng = np.random.Generator(np.random.PCG64(4))

    def predict_peak(n):
        x = rng.uniform(0, 1, (n, 10, 11))
        return traced_peak(lambda: predict(spec, pv, x))

    assert predict_peak(4 * spec.batch_size) <= 1.1 * predict_peak(spec.batch_size)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_predict_peak_memory_is_bounded_by_a_training_step(arch):
    # predict runs training's batch size per forward pass and keeps no
    # graph, so scoring never needs more memory than training already took
    # (512-window chunks peaked 30.8 MB on the CNN against a 26.2 MB step)
    spec = ModelSpec(architecture=arch)
    pv = init_model(spec, 0)
    r = np.random.Generator(np.random.PCG64(7))
    x = r.uniform(0, 1, (spec.batch_size, 10, 11))
    y = r.uniform(0, 1, (spec.batch_size, 5))
    step = traced_peak(lambda: loss_and_grad(spec, pv, x, y))
    x = r.uniform(0, 1, (4 * spec.batch_size, 10, 11))
    assert traced_peak(lambda: predict(spec, pv, x)) <= step


def widest_cnn_activation_bytes(spec, batch):
    return batch * spec.window_size * spec.n_features * max(spec.conv_filters) * 8


def test_cnn_predict_peak_memory_is_a_few_activations():
    # layers run one at a time, predict keeps no graph, conv2d pads and
    # builds its patches a few images at a time and applies its ReLU in
    # place, so the peak is a layer's input, its output and its ReLU mask
    # (2.26 activations measured)
    spec = ModelSpec(architecture="cnn")
    pv = init_model(spec, 0)
    x = np.random.Generator(np.random.PCG64(4)).uniform(0, 1, (spec.batch_size, 10, 11))
    peak = traced_peak(lambda: predict(spec, pv, x))
    assert peak <= 2.5 * widest_cnn_activation_bytes(spec, spec.batch_size)


def test_cnn_train_step_peak_memory_is_bounded():
    # the graph keeps each conv layer's output and ReLU mask, not a padded
    # copy of its input or a second ReLU output (7.3 widest activations
    # measured at batch 128)
    spec = ModelSpec(architecture="cnn")
    pv = init_model(spec, 0)
    r = np.random.Generator(np.random.PCG64(5))
    x = r.uniform(0, 1, (spec.batch_size, 10, 11))
    y = r.uniform(0, 1, (spec.batch_size, 5))
    peak = traced_peak(lambda: loss_and_grad(spec, pv, x, y))
    assert peak <= 8 * widest_cnn_activation_bytes(spec, spec.batch_size)


@pytest.mark.parametrize("arch", ["rnn", "lstm", "gru"])
def test_recurrent_train_step_adds_less_than_one_activation_stack(arch):
    # backward through time writes each step's gate gradients over that
    # step's own activation slot and adds them to the weight gradients at
    # once, so a step peaks below what the forward graph keeps plus one more
    # (T, G*U, B) stack: 4.11 / 11.89 / 8.99 MB measured against bounds of
    # 4.48 / 15.09 / 11.03 MB (a gradient stack beside the activations
    # peaked at 5.28 / 16.29 / 12.36 MB)
    spec = ModelSpec(architecture=arch)
    pv = init_model(spec, 0)
    r = np.random.Generator(np.random.PCG64(8))
    x = r.uniform(0, 1, (spec.batch_size, 10, 11))
    y = r.uniform(0, 1, (spec.batch_size, 5))
    tracemalloc.start()
    try:
        graph = engine.mse(forward_graph(spec, leaf_tensors(pv), x), y)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del graph
    gates = {"rnn": 1, "lstm": 4, "gru": 3}[arch]
    stack = spec.window_size * gates * spec.recurrent_units * spec.batch_size * 8
    assert traced_peak(lambda: loss_and_grad(spec, pv, x, y)) < kept + stack


def test_lstm_predict_keeps_no_per_step_history():
    # with no gradient to form, recurrent runs on one activation slot and
    # two state slots (1.9 MB measured on 1,024 windows); keeping every
    # step of a 128-window chunk would take about 9 MB
    spec = ModelSpec(architecture="lstm")
    pv = init_model(spec, 0)
    x = np.random.Generator(np.random.PCG64(6)).uniform(0, 1, (8 * spec.batch_size, 10, 11))
    assert traced_peak(lambda: predict(spec, pv, x)) <= 4e6


@pytest.mark.parametrize("spec, weights", [
    (ModelSpec("lstm"), ModelSpec("gru")),  # same tensor names, other widths
    (ModelSpec("cnn"), ModelSpec("mlp")),  # other tensor names
    (ModelSpec("rnn"), ModelSpec("mlp", hidden_sizes=(128,))),
    (ModelSpec("mlp", hidden_sizes=(8,)), ModelSpec("mlp", hidden_sizes=(9,))),
    (ModelSpec("gru"), ModelSpec("gru", recurrent_units=64)),
    (ModelSpec("cnn"), ModelSpec("cnn", kernel_size=5)),
])
def test_weights_that_do_not_fit_the_spec_are_rejected(spec, weights):
    pv = init_model(weights, 0)
    x = np.zeros((3, spec.window_size, spec.n_features))
    message = (f"weights with layout {weights.architecture!r} .* do not fit the "
               f"{spec.architecture!r} spec")
    with pytest.raises(ValueError, match=message):
        predict(spec, pv, x)
    with pytest.raises(ValueError, match=message):
        loss_and_grad(spec, pv, x, np.zeros((3, spec.n_targets)))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(architecture="transformer")
    with pytest.raises(ValueError):
        ModelSpec(architecture="mlp", window_size=0)
    with pytest.raises(ValueError):
        ModelSpec(architecture="mlp", learning_rate=0.0)
    with pytest.raises(ValueError):
        ModelSpec(architecture="cnn", conv_filters=(4, 0))


# ------------------------------------------------- exhaustive gradient checks

def reduced_spec(arch):
    """Small enough that every coordinate gets a finite-difference probe."""
    common = dict(window_size=4, n_features=3, n_targets=2)
    if arch == "mlp":
        return ModelSpec(architecture="mlp", hidden_sizes=(4, 3), **common)
    if arch == "cnn":
        return ModelSpec(architecture="cnn", conv_filters=(2, 2), dense_units=3,
                         **common)
    return ModelSpec(architecture=arch, recurrent_units=3, dense_units=4, **common)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradient_matches_finite_differences_all_coordinates(arch):
    spec = reduced_spec(arch)
    rng = np.random.Generator(np.random.PCG64(13))
    pv = init_model(spec, 21)
    x = rng.uniform(-1, 1, (3, spec.window_size, spec.n_features))
    y = rng.uniform(-1, 1, (3, spec.n_targets))
    _, grad = loss_and_grad(spec, pv, x, y)

    step = 1e-5
    values = pv.values
    worst = 0.0
    for i in range(pv.size):
        keep = values[i]
        values[i] = keep + step
        up, _ = loss_and_grad(spec, pv, x, y)
        values[i] = keep - step
        down, _ = loss_and_grad(spec, pv, x, y)
        values[i] = keep
        fd = (up - down) / (2 * step)
        denom = max(abs(fd), 1e-8)
        worst = max(worst, abs(grad[i] - fd) / denom)
    assert worst < 1e-4, f"{arch}: max relative error {worst}"


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_duplicated_batch_rows_leave_gradient_unchanged(arch):
    spec = reduced_spec(arch)
    rng = np.random.Generator(np.random.PCG64(17))
    pv = init_model(spec, 3)
    x = rng.uniform(-1, 1, (2, spec.window_size, spec.n_features))
    y = rng.uniform(-1, 1, (2, spec.n_targets))
    _, g1 = loss_and_grad(spec, pv, x, y)
    _, g2 = loss_and_grad(spec, pv, np.tile(x, (2, 1, 1)), np.tile(y, (2, 1)))
    assert np.allclose(g1, g2, atol=1e-12)
