"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and, when any input requires gradients, a closure
that scatters the output gradient back to its parents. backward() walks the
graph once in reverse topological order. Everything is float64; graphs are
built per call and garbage-collected afterwards, so no global state exists
and identical inputs produce bit-identical gradients.

Each op keeps only what its backward pass reads, and with no input
requiring a gradient its output carries no closure, so nothing is kept.
Most ops are small and close over their inputs. Three are layer-sized:

- dense is one GEMM with the bias and ReLU applied in place; it keeps the
  ReLU mask. The in-place ReLU is branch-free: it ANDs the value bits with
  the sign-extended mask -(z > 0), in cache-sized chunks.
- conv2d runs channels-last, (B, H, W, C), as im2col GEMMs over blocks of
  a few images, each padded on its own, so no padded copy and no patch
  matrix of the whole batch exists. It applies bias and ReLU in place and
  keeps only the ReLU mask beside its input, from which the GEMM-only
  backward pass rebuilds the patches.
- recurrent runs a whole RNN, LSTM or GRU layer and writes the gradients
  of its four inputs in one backward call. It keeps the gate activations
  and states of every step for the backward pass through time; in no-grad
  mode (as in predict) the same step loop runs on ring buffers instead.
  The backward pass walks the steps from last to first. It overwrites each
  step's activation slot with that step's gate gradients and adds them to
  the weight gradients at once, so it allocates no gradient stack of all
  steps, and each weight-gradient GEMM sums over the batch of one step.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    # Never mutate in place: g may be shared with another node's gradient.
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def square(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        _accum(a, g * (2.0 * a.data))

    return _make(a.data * a.data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return _make(y, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * (y * (1.0 - y)))

    return _make(y, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


# Elements per pass of _relu_: its int8 scratch and the float64 chunk it
# masks (32 kB and 256 kB) stay in cache between the two passes.
RELU_CHUNK = 1 << 15


def _relu_(z: np.ndarray) -> np.ndarray:
    """ReLU on z (C-contiguous, as dense and conv2d make it) in place;
    returns the mask z > 0 for the backward pass.

    Branch-free: each chunk of RELU_CHUNK elements is ANDed bitwise with the
    sign-extended -(z > 0), all ones where z > 0 and zero elsewhere, where a
    masked copy would branch on every sign change. Gives the bits of relu:
    NaN and -0.0 become +0.0, as in np.where.
    """
    mask = z > 0
    bits = z.reshape(-1).view(np.int64)
    signs = mask.reshape(-1).view(np.int8)  # 0 or 1
    scratch = np.empty(min(RELU_CHUNK, bits.size), dtype=np.int8)
    for lo in range(0, bits.size, RELU_CHUNK):
        chunk = bits[lo : lo + RELU_CHUNK]
        keep = scratch[: len(chunk)]
        np.negative(signs[lo : lo + RELU_CHUNK], out=keep)  # 0 or -1
        np.bitwise_and(chunk, keep, out=chunk)
    return mask


def dense(x, w, b, relu: bool) -> Tensor:
    """One dense layer, x @ w + b, then ReLU when relu is set.

    The bias and ReLU are applied in place on the GEMM's output, so the
    layer allocates one activation where matmul, add and relu allocate
    three. Kept for the backward pass: x, w and, with relu, the ReLU mask.
    Forward and gradients have the bits of relu(add(matmul(x, w), b)).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    z = x.data @ w.data
    z += b.data
    mask = _relu_(z) if relu else None

    def backward(g):
        if relu:
            g = g * mask
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _make(z, (x, w, b), backward)


def narrow(a, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice [start, start+size) along one axis."""
    a = _as_tensor(a)
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + size)
    index = tuple(index)

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accum(a, full)

    return _make(a.data[index], (a,), backward)


def reshape(a, shape: Iterable[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def mse(pred, target) -> Tensor:
    """Mean squared error, mean_all(square(sub(pred, target))) as one op.

    Keeps only the difference for the backward pass, where the three ops
    keep it and its square, and gives their forward and gradient bits.
    """
    pred, target = _as_tensor(pred), _as_tensor(target)
    diff = pred.data - target.data

    def backward(g):
        g_diff = np.full(diff.shape, float(g) / diff.size) * (2.0 * diff)
        if pred.requires_grad:
            _accum(pred, _unbroadcast(g_diff, pred.data.shape))
        if target.requires_grad:
            _accum(target, _unbroadcast(-g_diff, target.data.shape))

    return _make(np.asarray((diff * diff).mean()), (pred, target), backward)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    size = a.data.size

    def backward(g):
        _accum(a, np.full(a.data.shape, float(g) / size))

    return _make(np.asarray(a.data.mean()), (a,), backward)


def spatial_mean(a) -> Tensor:
    """Global average pooling over the channels-last grid: (B, H, W, C) -> (B, C)."""
    a = _as_tensor(a)
    _, h, w, _ = a.data.shape
    denom = h * w

    def backward(g):
        # a read-only view: conv2d's backward and _accum only read it
        _accum(a, np.broadcast_to(g[:, None, None, :] / denom, a.data.shape))

    # einsum sums the (H, W) grid in half the time of mean(axis=(1, 2)) at
    # (512, 10, 11, 32), and to the same bits on the reference shapes
    return _make(np.einsum("bhwc->bc", a.data) / denom, (a,), backward)


# Images per block of conv2d's im2col GEMMs. A block of the widest reference
# layer (110 patch rows of 288 columns per image) is 0.5 MB, so its patch
# buffer stays in cache between the copy that fills it and the GEMM that
# reads it; the whole batch's patch matrix (32 MB at batch 128) does not.
# Chosen by a sweep over 1, 2, 4, 8, 16 and 32 images (see CHANGES.md).
CONV_BLOCK = 2


def _patch_blocks(x: np.ndarray, kernel: int, padding: int):
    """Yield (lo, hi, patches) over blocks of CONV_BLOCK images of x.

    patches is the im2col matrix of images lo..hi-1, zero-padded by padding,
    ((hi-lo) * H' * W', kernel^2 * C) with columns (ki, kj, c). Each block is
    copied into the interior of one small padded buffer whose border stays
    zero, so no padded copy of the whole batch exists. The padded and patch
    buffers are refilled for every block, so patches is valid only until the
    next step of the iteration.
    """
    batch, height, width, channels = x.shape
    padded = np.zeros((min(CONV_BLOCK, batch), height + 2 * padding,
                       width + 2 * padding, channels))
    interior = padded[:, padding : padding + height, padding : padding + width]
    # (B, H', W', C, k, k) -> (B, H', W', k, k, C): one ordered copy of this
    # view fills a block about 3x faster than k^2 strided slice copies.
    view = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), (1, 2))
    view = view.transpose(0, 1, 2, 4, 5, 3)
    buf = np.empty(view.shape)
    for lo in range(0, batch, CONV_BLOCK):
        hi = min(lo + CONV_BLOCK, batch)
        interior[: hi - lo] = x[lo:hi]
        block = buf[: hi - lo]
        np.copyto(block, view[: hi - lo])
        yield lo, hi, block.reshape(-1, kernel * kernel * channels)


def _conv_gemm(x: np.ndarray, w_mat: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """Convolution of x, zero-padded by padding, with w_mat, rows (ki, kj, c).

    Returns (B, H', W', F), H' = H + 2 padding - kernel + 1.
    """
    batch, height, width, _ = x.shape
    grow = 2 * padding - kernel + 1
    out = np.empty((batch, height + grow, width + grow, w_mat.shape[1]))
    for lo, hi, patches in _patch_blocks(x, kernel, padding):
        np.matmul(patches, w_mat, out=out[lo:hi].reshape(len(patches), -1))
    return out


def conv2d(x, w, b, kernel: int, padding: int, relu: bool = False) -> Tensor:
    """Square-kernel 2-D convolution with stride 1, channels-last, then ReLU
    when relu is set.

    x: (B, H, W, C); w: (C * kernel^2, F) with rows ordered (c, ki, kj);
    b: (F,). Output (B, H', W', F) where H' = H + 2 padding - kernel + 1;
    0 <= padding < kernel. Each block of CONV_BLOCK images is padded into a
    small buffer, lowered to its im2col patches and multiplied by w, with
    its rows permuted to the patch order (ki, kj, c), straight into its
    rows of the output. No padded copy and no patch matrix of the whole
    batch is built. The bias and ReLU are applied in place on the output.
    Kept for the backward pass: x itself and, with relu, the ReLU mask.
    The backward pass masks the output gradient, rebuilds each block's
    patches from x to accumulate dW = patches^T g, and computes the input
    gradient as the same blocked convolution of g, padded by
    kernel - 1 - padding, with the flipped kernel.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    channels = x.data.shape[3]
    if not 0 <= padding < kernel:
        raise ValueError(f"padding {padding} is outside [0, kernel - 1 = {kernel - 1}]")
    rows, filters = w.data.shape
    if rows != channels * kernel * kernel:
        raise ValueError(f"w has {rows} rows, not C*kernel^2 = {channels * kernel**2}")
    # w as (c, ki, kj, f) blocks: the checkpoint keeps its (c, ki, kj) rows
    w4 = w.data.reshape(channels, kernel, kernel, filters)
    w_mat = w4.transpose(1, 2, 0, 3).reshape(rows, filters)
    out = _conv_gemm(x.data, w_mat, kernel, padding)
    out += b.data
    mask = _relu_(out) if relu else None

    def backward(g):
        if relu:
            g = g * mask
        g_w = np.zeros((rows, filters))
        for lo, hi, patches in _patch_blocks(x.data, kernel, padding):
            g_w += patches.T @ g[lo:hi].reshape(len(patches), filters)
        g_w = g_w.reshape(kernel, kernel, channels, filters)
        _accum(w, g_w.transpose(2, 0, 1, 3).reshape(rows, filters))
        _accum(b, g.reshape(-1, filters).sum(axis=0))
        if x.requires_grad:
            # flipped kernel with rows (ki, kj, f) and one column per channel
            w_flip = w4[:, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(-1, channels)
            _accum(x, _conv_gemm(g, w_flip, kernel, kernel - 1 - padding))

    return _make(out, (x, w, b), backward)


def recurrent(cell: str, x, w_x, w_h, b) -> Tensor:
    """One recurrent layer over a (B, T, d) window; returns the last (B, U) state.

    cell is "rnn" (h = tanh(z)), "lstm" (gates input, forget, cell, output)
    or "gru" (reset, update, candidate; the reset gate scales h before its
    w_h block), with z = x_t @ w_x + b + h @ w_h. w_x: (d, G*U),
    w_h: (U, G*U), b: (G*U,); the initial states are zero.

    Steps are feature-major, (features, B), so every gate is a contiguous
    block of rows. Each step computes its input projection (with the bias
    through a row of ones) into its slot of the (slots, G*U, B) activation
    buffer, adds one recurrent GEMM and overwrites the slot with the fused
    gate math. When an input requires a gradient, every step keeps its
    slot: the gate activations of all T steps and the T + 1 states (and the
    LSTM's cell states and tanh(c), the GRU's r*h) stay for the backward
    pass through time. That pass runs from step T-1 down to 0. It writes
    step t's pre-activation gradient dz_t over the step's own (G*U, B)
    slot, then at once adds the step's terms h_t @ dz_t^T and
    [x_t; 1] @ dz_t^T to the w_h and [w_x; b] gradients. So no (G*U, T*B)
    gradient stack is allocated, and each weight-gradient GEMM sums over
    the B rows of one step, whose terms join in a fixed order; OpenBLAS
    gives them the same bits at one and two threads up to B = 256.
    Having consumed the activations, the backward closure raises
    RuntimeError if it is called again. Without a gradient to form (the
    no-grad mode of predict), the same loop runs over rings of one
    activation slot and two state slots, so nothing of past steps is kept.
    """
    x, w_x, w_h, b = (_as_tensor(a) for a in (x, w_x, w_h, b))
    cell_forward, cell_backward = _CELLS[cell]
    batch, steps, n_in = x.data.shape
    units, width = w_h.data.shape
    # Stacks are (features, T, B); step t is the (features, B) slice [:, t].
    # A row of ones after the d features carries the bias through the input
    # GEMM, and its gradient through the weight gradient's.
    xs = np.ones((n_in + 1, steps, batch))
    xs[:n_in] = x.data.transpose(2, 1, 0)
    w_xb = np.vstack([w_x.data, b.data]).T
    slots = steps if any(a.requires_grad for a in (x, w_x, w_h, b)) else 1
    acts = np.empty((slots, width, batch))
    hs = np.zeros((units, slots + 1, batch))  # with T slots, hs[:, t] enters step t
    saved = cell_forward(_steps(xs, w_xb, acts), acts, hs, w_h.data)

    def backward(g):
        nonlocal acts
        if acts is None:
            raise RuntimeError("recurrent: backward can run only once; the first run "
                               "overwrote the gate activations with gradients")
        dz, acts = acts, None
        g_w_h = np.zeros((units, width))
        g_w_xb = np.zeros((n_in + 1, width))
        g_x = np.empty((n_in, steps, batch)) if x.requires_grad else None
        for t in cell_backward(np.ascontiguousarray(g.T), dz, hs, w_h.data, saved, g_w_h):
            g_w_xb += xs[:, t] @ dz[t].T
            if g_x is not None:
                np.matmul(w_x.data, dz[t], out=g_x[:, t])
        _accum(w_x, g_w_xb[:n_in])
        _accum(w_h, g_w_h)
        _accum(b, g_w_xb[n_in])
        if g_x is not None:
            _accum(x, g_x.transpose(2, 1, 0))

    last = np.ascontiguousarray(hs[:, steps % (slots + 1)].T)
    return _make(last, (x, w_x, w_h, b), backward)


def _sigmoid_(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)), in place."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _blocks(a: np.ndarray, n: int) -> list[np.ndarray]:
    """The n equal row blocks of a, as views: np.split's result, cheaper."""
    size = len(a) // n
    return [a[k * size : (k + 1) * size] for k in range(n)]


def _steps(xs, w_xb, acts):
    """Walk the T steps over acts' slots and the len(acts) + 1 state slots.

    For step t it writes the input projection w_xb @ xs[:, t] into acts'
    slot a of step t and yields (a, s, s_out): state slot s enters step t
    and s_out receives its result. With T activation slots these are
    (t, t, t + 1); with one they form a ring.
    """
    slots = len(acts)
    for t in range(xs.shape[1]):
        a = t % slots
        np.matmul(w_xb, xs[:, t], out=acts[a])
        yield a, t % (slots + 1), (t + 1) % (slots + 1)


# A cell's forward pass walks _steps: it adds the recurrent GEMM to the
# projection in acts[a], overwrites it with the gate activations and writes
# the state into hs[:, s_out]. It returns what else its backward pass needs.
# The backward pass (T slots only) is a generator that starts from dL/dh_T
# (U, B) and walks the steps from T-1 down to 0. At step t it overwrites
# acts[t] with dz_t, the gradient of the pre-activations z of step t,
# reading each gate before it overwrites it, adds that step's terms to the
# gradient of w_h in g_w_h, and yields t; acts[t] is not read as gate
# activations again.

def _rnn_forward(steps, acts, hs, w_h):
    for a, s, s_out in steps:
        z = acts[a]
        z += w_h.T @ hs[:, s]
        np.tanh(z, out=z)
        hs[:, s_out] = z


def _rnn_backward(dh, acts, hs, w_h, saved, g_w_h):
    for t in reversed(range(len(acts))):
        dz = acts[t]  # tanh(z) until this line overwrites it
        np.multiply(dh, 1.0 - dz * dz, out=dz)
        g_w_h += hs[:, t] @ dz.T
        yield t
        if t:
            dh = w_h @ dz


def _lstm_forward(steps, acts, hs, w_h):
    units, states, batch = hs.shape
    cs = np.zeros((states, units, batch))  # cs[s]: the cell state in slot s
    tanh_cs = np.empty((len(acts), units, batch))
    for a, s, s_out in steps:
        z = acts[a]
        z += w_h.T @ hs[:, s]
        _sigmoid_(z[: 2 * units])
        i, f, g, o = _blocks(z, 4)
        np.tanh(g, out=g)
        _sigmoid_(o)
        np.multiply(f, cs[s], out=cs[s_out])
        cs[s_out] += i * g
        np.tanh(cs[s_out], out=tanh_cs[a])
        np.multiply(o, tanh_cs[a], out=hs[:, s_out])
    return cs, tanh_cs


def _lstm_backward(dh, acts, hs, w_h, saved, g_w_h):
    cs, tanh_cs = saved
    dc = 0.0
    for t in reversed(range(len(acts))):
        i, f, g, o = _blocks(acts[t], 4)
        tc = tanh_cs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        dc_i, dc_f = dc * i, dc * f
        np.multiply(dc * g, i * (1.0 - i), out=i)
        np.multiply(dc_i, 1.0 - g * g, out=g)
        np.multiply(dc * cs[t], f * (1.0 - f), out=f)
        np.multiply(dh * tc, o * (1.0 - o), out=o)
        g_w_h += hs[:, t] @ acts[t].T
        yield t
        if t:
            dc = dc_f
            dh = w_h @ acts[t]


def _gru_forward(steps, acts, hs, w_h):
    units, _, batch = hs.shape
    w_ru, w_n = w_h[:, : 2 * units], w_h[:, 2 * units :]
    rhs = np.empty((units, len(acts), batch))  # r * h: the input of the w_n GEMM
    for a, s, s_out in steps:
        h = hs[:, s]
        ru, n = acts[a, : 2 * units], acts[a, 2 * units :]
        ru += w_ru.T @ h
        _sigmoid_(ru)
        r, u = _blocks(ru, 2)
        np.multiply(r, h, out=rhs[:, a])
        n += w_n.T @ rhs[:, a]
        np.tanh(n, out=n)
        hs[:, s_out] = (1.0 - u) * h + u * n
    return rhs


def _gru_backward(dh, acts, hs, w_h, rhs, g_w_h):
    units = len(hs)
    w_ru, w_n = w_h[:, : 2 * units], w_h[:, 2 * units :]
    g_ru, g_n = g_w_h[:, : 2 * units], g_w_h[:, 2 * units :]
    for t in reversed(range(len(acts))):
        h, dru = hs[:, t], acts[t, : 2 * units]
        r, u, n = _blocks(acts[t], 3)
        dh_u, carry = dh * u, dh * (1.0 - u)
        np.multiply(dh * (n - h), u * (1.0 - u), out=u)
        np.multiply(dh_u, 1.0 - n * n, out=n)
        d_rh = w_n @ n
        d_rh_r = d_rh * r
        np.multiply(d_rh * h, r * (1.0 - r), out=r)
        g_ru += h @ dru.T
        g_n += rhs[:, t] @ n.T
        yield t
        if t:
            dh = carry + d_rh_r + w_ru @ dru


_CELLS = {
    "rnn": (_rnn_forward, _rnn_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "gru": (_gru_forward, _gru_backward),
}
