import numpy as np
import pytest

from fedcast.nn import engine
from fedcast.nn.engine import Tensor


def finite_difference(f, arrays, step=1e-5):
    """Central differences of scalar f w.r.t. each array, one entry at a time."""
    grads = []
    for target in arrays:
        g = np.zeros_like(target)
        flat = target.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = f()
            flat[i] = keep - step
            down = f()
            flat[i] = keep
            g.ravel()[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def check_grads(build, arrays, rel=1e-6):
    """build() wraps `arrays` into a scalar-valued graph; compare both grads."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    fd = finite_difference(lambda: float(build(*[Tensor(a) for a in arrays]).data), arrays)
    for t, g in zip(tensors, fd):
        denom = np.maximum(np.abs(g), 1e-8)
        assert np.max(np.abs(t.grad - g) / denom) < rel, (t.grad, g)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_add_mul_square_grads():
    r = rng(1)
    a, b = r.standard_normal((3, 4)), r.standard_normal((3, 4))
    check_grads(
        lambda x, y: engine.mean_all(engine.square(engine.add(engine.mul(x, y), x))),
        [a, b],
    )


def test_sub_grads():
    r = rng(2)
    a, b = r.standard_normal((2, 5)), r.standard_normal((2, 5))
    check_grads(lambda x, y: engine.mean_all(engine.square(engine.sub(x, y))), [a, b])


def test_broadcast_bias_grads():
    # (3,4) + (4,) broadcasting must reduce the bias gradient correctly
    r = rng(3)
    a, b = r.standard_normal((3, 4)), r.standard_normal(4)
    check_grads(lambda x, y: engine.mean_all(engine.square(engine.add(x, y))), [a, b])


def test_matmul_grads():
    r = rng(4)
    a, b = r.standard_normal((3, 4)), r.standard_normal((4, 2))
    check_grads(lambda x, y: engine.mean_all(engine.square(engine.matmul(x, y))), [a, b])


@pytest.mark.parametrize("op", [engine.tanh, engine.sigmoid, engine.relu])
def test_elementwise_nonlinearity_grads(op):
    r = rng(5)
    a = r.standard_normal((4, 3)) + 0.1  # keep relu away from the kink
    check_grads(lambda x: engine.mean_all(engine.square(op(x))), [a])


def test_narrow_grads_scatter_back():
    r = rng(6)
    a = r.standard_normal((3, 6))
    check_grads(lambda x: engine.mean_all(engine.square(engine.narrow(x, 1, 2, 3))), [a])
    t = Tensor(a, requires_grad=True)
    out = engine.mean_all(engine.narrow(t, 1, 2, 3))
    out.backward()
    assert np.all(t.grad[:, :2] == 0.0)
    assert np.all(t.grad[:, 5:] == 0.0)


def test_reshape_grads():
    r = rng(7)
    a = r.standard_normal((2, 6))
    check_grads(lambda x: engine.mean_all(engine.square(engine.reshape(x, (3, 4)))), [a])


def test_spatial_mean_grads():
    r = rng(8)
    a = r.standard_normal((2, 3, 4, 5))
    check_grads(lambda x: engine.mean_all(engine.square(engine.spatial_mean(x))), [a])


def test_spatial_mean_pools_the_channels_last_grid():
    # a small grid and the widest reference activation of a predict chunk
    for shape in [(2, 3, 4, 5), (512, 10, 11, 32)]:
        a = rng(8).standard_normal(shape)
        got = engine.spatial_mean(Tensor(a)).data
        assert got.shape == (shape[0], shape[3])
        assert_rel_close(got, a.mean(axis=(1, 2)), rel=1e-15)


def nhwc(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def nchw(x):
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def test_conv2d_grads():
    r = rng(9)
    x = nhwc(r.standard_normal((2, 3, 5, 4)))
    w = r.standard_normal((3 * 3 * 3, 2))
    b = r.standard_normal(2)
    check_grads(
        lambda xx, ww, bb: engine.mean_all(
            engine.square(engine.conv2d(xx, ww, bb, kernel=3, padding=1))
        ),
        [x, w, b],
        rel=1e-5,
    )


def conv2d_naive(x, w, b, kernel, padding):
    """Direct quadruple-loop convolution used as an oracle."""
    B, C, H, W = x.shape
    F = w.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((B, F, H, W))
    for bi in range(B):
        for f in range(F):
            for i in range(H):
                for j in range(W):
                    patch = xp[bi, :, i : i + kernel, j : j + kernel]
                    out[bi, f, i, j] = np.sum(patch.ravel() * w[:, f]) + b[f]
    return out


def test_conv2d_forward_matches_naive():
    r = rng(10)
    x = nhwc(r.standard_normal((2, 2, 4, 6)))
    w = r.standard_normal((2 * 3 * 3, 3))
    b = r.standard_normal(3)
    got = engine.conv2d(Tensor(x), Tensor(w), Tensor(b), kernel=3, padding=1).data
    want = nhwc(conv2d_naive(nchw(x), w, b, 3, 1))
    assert np.allclose(got, want, atol=1e-12)


def conv2d_nchw_reference(x, w, b, kernel, padding, g):
    """The channels-first im2col convolution the engine ran before, with its
    col2im scatter loop: returns the output and the gradients of x, w, b for
    the output gradient g, all (B, C, H, W)-ordered."""
    batch, channels, height, width = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = height + 2 * padding - kernel + 1
    out_w = width + 2 * padding - kernel + 1
    view = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), (2, 3))
    col = (
        view.transpose(0, 2, 3, 1, 4, 5)
        .reshape(batch * out_h * out_w, channels * kernel * kernel)
        .copy()
    )
    out = (col @ w + b).reshape(batch, out_h, out_w, -1).transpose(0, 3, 1, 2)
    g_mat = g.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
    g_col = (g_mat @ w.T).reshape(batch, out_h, out_w, channels, kernel, kernel)
    g_padded = np.zeros_like(padded)
    for ki in range(kernel):
        for kj in range(kernel):
            g_padded[:, :, ki : ki + out_h, kj : kj + out_w] += (
                g_col[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
            )
    g_x = g_padded[:, :, padding : padding + height, padding : padding + width]
    return out, g_x, col.T @ g_mat, g_mat.sum(axis=0)


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


BOUNDARY_BATCHES = sorted(
    {1, engine.CONV_BLOCK - 1, engine.CONV_BLOCK + 1, 2 * engine.CONV_BLOCK + 1} - {0}
)


@pytest.mark.parametrize(
    "batch, height, width, channels, filters, kernel, padding, grad_x",
    [
        (3, 5, 4, 2, 3, 1, 0, True),
        (3, 5, 4, 2, 3, 2, 0, True),
        (3, 5, 4, 2, 3, 2, 1, True),
        (3, 5, 4, 2, 3, 3, 1, True),
        (2, 6, 7, 3, 4, 5, 2, True),
        (2, 6, 7, 3, 4, 5, 4, True),
        (4, 10, 11, 1, 16, 3, 1, False),  # first CNN layer: the input is data
        (128, 10, 11, 32, 32, 3, 1, True),  # widest reference layer
    ]
    # batches around the block boundaries of the patch GEMMs
    + [(n, 6, 5, 3, 4, 3, 1, True) for n in BOUNDARY_BATCHES],
)
def test_conv2d_matches_nchw_reference(
    batch, height, width, channels, filters, kernel, padding, grad_x
):
    r = rng(11)
    x = r.standard_normal((batch, height, width, channels))
    w = r.standard_normal((channels * kernel * kernel, filters))
    b = r.standard_normal(filters)
    xt, wt, bt = (Tensor(x, requires_grad=grad_x), Tensor(w, requires_grad=True),
                  Tensor(b, requires_grad=True))
    out = engine.conv2d(xt, wt, bt, kernel, padding)
    g = r.standard_normal(out.data.shape)
    out._backward(g)
    want_out, want_gx, want_gw, want_gb = conv2d_nchw_reference(
        nchw(x), w, b, kernel, padding, nchw(g)
    )
    assert_rel_close(out.data, nhwc(want_out))
    assert_rel_close(wt.grad, want_gw)
    assert_rel_close(bt.grad, want_gb)
    if grad_x:
        assert_rel_close(xt.grad, nhwc(want_gx))
    else:
        assert xt.grad is None


def test_conv2d_reruns_bit_identically():
    r = rng(12)
    batch = 2 * engine.CONV_BLOCK + 1
    x = r.standard_normal((batch, 6, 5, 3))
    w = r.standard_normal((3 * 3 * 3, 4))
    b = r.standard_normal(4)
    g = r.standard_normal((batch, 6, 5, 4))

    def run():
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = engine.conv2d(xt, wt, bt, kernel=3, padding=1)
        out._backward(g)
        return out.data, xt.grad, wt.grad, bt.grad

    for first, second in zip(run(), run()):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("padding", [-1, 3])
def test_conv2d_rejects_padding_outside_the_kernel(padding):
    x, w, b = np.zeros((1, 4, 4, 2)), np.zeros((2 * 9, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="padding"):
        engine.conv2d(Tensor(x), Tensor(w), Tensor(b), kernel=3, padding=padding)


def test_conv2d_rejects_weight_rows_that_do_not_match_the_input():
    x, w, b = np.zeros((1, 4, 4, 2)), np.zeros((3 * 9, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="27 rows"):
        engine.conv2d(Tensor(x), Tensor(w), Tensor(b), kernel=3, padding=1)


# ------------------------------------------------------------ fused ReLU ops

def assert_special_pre_activations(z):
    """z holds NaN, both signed zeros, negatives and positives."""
    zero = z == 0
    assert np.isnan(z).any() and (z < 0).any() and (z > 0).any()
    assert (zero & np.signbit(z)).any() and (zero & ~np.signbit(z)).any()


def fused_and_composed(fused, composed, arrays, head):
    """Forward bytes and every gradient's bytes of both graphs."""
    results = []
    for build in (fused, composed):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*leaves)
        engine.mean_all(engine.mul(out, Tensor(head))).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    return results


def test_dense_relu_is_bitwise_relu_of_add_matmul():
    r = rng(14)
    x = r.standard_normal((6, 4))
    x[0] = np.nan
    x[1] = -1e-200  # products with the tiny column underflow to -0.0
    x[2] = 0.0
    w = r.standard_normal((4, 5))
    w[:, 0] = 1e-200
    b = r.standard_normal(5)
    b[0], b[1] = -0.0, 0.0
    assert_special_pre_activations(x @ w + b)
    head = r.standard_normal((6, 5))
    fused, composed = fused_and_composed(
        lambda xx, ww, bb: engine.dense(xx, ww, bb, True),
        lambda xx, ww, bb: engine.relu(engine.add(engine.matmul(xx, ww), bb)),
        [x, w, b], head,
    )
    assert fused == composed
    fused, composed = fused_and_composed(
        lambda xx, ww, bb: engine.dense(xx, ww, bb, False),
        lambda xx, ww, bb: engine.add(engine.matmul(xx, ww), bb),
        [x, w, b], head,
    )
    assert fused == composed


@pytest.mark.parametrize("kernel, padding, channels", [(3, 1, 1), (1, 0, 4)])
def test_conv2d_relu_is_bitwise_relu_of_conv2d(kernel, padding, channels):
    r = rng(15)
    x = r.standard_normal((3, 4, 5, channels))
    x[0] = -1e-200
    x[1, 1, 2, 0] = np.nan
    x[2, :2] = 0.0
    w = r.standard_normal((channels * kernel * kernel, 3))
    w[:, 0] = 1e-200
    b = r.standard_normal(3)
    b[0], b[1] = -0.0, 0.0
    plain = engine.conv2d(Tensor(x), Tensor(w), Tensor(b), kernel, padding)
    assert_special_pre_activations(plain.data)
    fused, composed = fused_and_composed(
        lambda xx, ww, bb: engine.conv2d(xx, ww, bb, kernel, padding, relu=True),
        lambda xx, ww, bb: engine.relu(engine.conv2d(xx, ww, bb, kernel, padding)),
        [x, w, b], r.standard_normal(plain.data.shape),
    )
    assert fused == composed


@pytest.mark.parametrize("shape", [(0,), (7,), (engine.RELU_CHUNK,),
                                   (2 * engine.RELU_CHUNK + 3,), (3, 4, 5, 2)])
def test_in_place_relu_has_the_bits_of_where(shape):
    # the branch-free ReLU ANDs bits chunk by chunk; the special values are
    # spread so that some fall on both sides of every chunk boundary
    specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                2.2e-308, -2.2e-308, 1.0, -1.0, 1e308, -1e308]
    z = rng(16).standard_normal(shape)
    flat = z.reshape(-1)
    flat[::5] = np.resize(specials, len(flat[::5]))
    flat[-len(specials):] = specials[: len(flat)]
    want = np.where(z > 0, z, 0.0)
    want_mask = z > 0
    mask = engine._relu_(z)
    assert z.tobytes() == want.tobytes()
    assert np.array_equal(mask, want_mask)


@pytest.mark.parametrize("batch", [1, 37, 128])
def test_mse_has_the_bits_of_mean_square_sub(batch):
    r = rng(17)
    pred, target = r.standard_normal((batch, 5)), r.standard_normal((batch, 5))
    results = []
    for build in (engine.mse,
                  lambda p, t: engine.mean_all(engine.square(engine.sub(p, t)))):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (pred, target)]
        loss = build(*leaves)
        loss.backward()
        results.append([loss.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert results[0] == results[1]
    check_grads(engine.mse, [pred[:2], target[:2]])


def test_diamond_graph_accumulates():
    # y = a*a + a*a: gradient must sum both paths, d/da = 4a
    a = Tensor(np.array([[2.0, -1.5]]), requires_grad=True)
    y = engine.mean_all(engine.add(engine.mul(a, a), engine.mul(a, a)))
    y.backward()
    assert np.allclose(a.grad, 4 * a.data / a.data.size)


def test_constants_get_no_grad():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    c = Tensor(np.full((2, 2), 3.0))
    out = engine.mean_all(engine.mul(a, c))
    out.backward()
    assert c.grad is None
    assert a.grad is not None


def test_deep_chain_no_recursion_limit():
    a = Tensor(np.array([[0.5]]), requires_grad=True)
    t = a
    for _ in range(3000):
        t = engine.add(t, a)
    engine.mean_all(t).backward()
    assert a.grad[0, 0] == pytest.approx(3001.0)


def test_backward_requires_scalar_like_start():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    out = engine.mean_all(engine.square(a))
    out.backward()
    # mean of squares: d/dx = 2x / n
    assert np.allclose(a.grad, 2.0 * a.data / 4.0)


# ------------------------------------------------ fused recurrent layer ops

def tape_recurrent(cell, x, w_x, w_h, b):
    """The per-timestep gate graph the models built before the fused op."""
    eg = engine
    batch, steps, n_in = x.data.shape
    units = w_h.data.shape[0]

    def block(a, k, n=1):  # gate columns [k*units, (k+n)*units)
        return eg.narrow(a, a.data.ndim - 1, k * units, n * units)

    h = Tensor(np.zeros((batch, units)))
    c = Tensor(np.zeros((batch, units)))
    one = Tensor(np.float64(1.0))
    for t in range(steps):
        step = eg.reshape(eg.narrow(x, 1, t, 1), (batch, n_in))
        if cell == "gru":
            x_ru, h_ru = eg.matmul(step, block(w_x, 0, 2)), eg.matmul(h, block(w_h, 0, 2))
            ru = eg.sigmoid(eg.add(eg.add(x_ru, h_ru), block(b, 0, 2)))
            r, u = block(ru, 0), block(ru, 1)
            x_n, h_n = eg.matmul(step, block(w_x, 2)), eg.matmul(eg.mul(r, h), block(w_h, 2))
            n = eg.tanh(eg.add(eg.add(x_n, h_n), block(b, 2)))
            h = eg.add(eg.mul(eg.sub(one, u), h), eg.mul(u, n))
            continue
        z = eg.add(eg.add(eg.matmul(step, w_x), eg.matmul(h, w_h)), b)
        if cell == "rnn":
            h = eg.tanh(z)
        else:
            i, f = eg.sigmoid(block(z, 0)), eg.sigmoid(block(z, 1))
            g, o = eg.tanh(block(z, 2)), eg.sigmoid(block(z, 3))
            c = eg.add(eg.mul(f, c), eg.mul(i, g))
            h = eg.mul(o, eg.tanh(c))
    return h


GATES = {"rnn": 1, "lstm": 4, "gru": 3}


def recurrent_arrays(cell, batch, steps, n_in, units, seed):
    r = rng(seed)
    width = GATES[cell] * units
    return [
        r.uniform(-1, 1, (batch, steps, n_in)),
        r.uniform(-1, 1, (n_in, width)) / np.sqrt(n_in),
        r.uniform(-1, 1, (units, width)) / np.sqrt(units),
        r.uniform(-0.5, 0.5, width),
    ]


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale)


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
@pytest.mark.parametrize(
    "batch,steps,n_in,units",
    [(1, 4, 3, 5), (6, 1, 3, 5), (2, 3, 1, 1), (128, 10, 11, 128)],
)
def test_recurrent_matches_per_timestep_tape(cell, batch, steps, n_in, units):
    arrays = recurrent_arrays(cell, batch, steps, n_in, units, seed=11)
    head = rng(12).standard_normal((batch, units))

    def run(op):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        h = op(cell, *leaves)
        engine.mean_all(engine.mul(engine.tanh(h), Tensor(head))).backward()
        return h.data, [t.grad for t in leaves]

    h, grads = run(engine.recurrent)
    h_ref, grads_ref = run(tape_recurrent)
    assert_rel_close(h, h_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert_rel_close(g, g_ref)


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_recurrent_grads(cell):
    arrays = recurrent_arrays(cell, batch=2, steps=3, n_in=3, units=2, seed=13)
    check_grads(
        lambda *t: engine.mean_all(engine.square(engine.recurrent(cell, *t))), arrays
    )


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_recurrent_backward_refuses_a_second_run(cell):
    # the first backward pass overwrites the gate activations with their
    # gradients, so a second would read gradients as gates
    arrays = recurrent_arrays(cell, batch=3, steps=4, n_in=2, units=5, seed=17)
    h = engine.recurrent(cell, *(Tensor(a, requires_grad=True) for a in arrays))
    loss = engine.mean_all(engine.square(h))
    loss.backward()
    with pytest.raises(RuntimeError, match="recurrent: backward can run only once"):
        loss.backward()


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
@pytest.mark.parametrize("batch", [1, 37, 127])
@pytest.mark.parametrize("steps", [1, 3, 10])
def test_recurrent_without_grad_matches_the_grad_forward_bitwise(cell, batch, steps):
    # no input requires a gradient: the step loop runs on rings of one
    # activation slot and two state slots and keeps no backward closure
    arrays = recurrent_arrays(cell, batch, steps, n_in=11, units=128, seed=16)
    with_grad = engine.recurrent(cell, *(Tensor(a, requires_grad=True) for a in arrays))
    without = engine.recurrent(cell, *(Tensor(a) for a in arrays))
    assert without._backward is None and not without.requires_grad
    assert without.data.tobytes() == with_grad.data.tobytes()
