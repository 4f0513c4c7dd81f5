"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and, when any input requires gradients, a closure
that scatters the output gradient back to its parents. backward() walks the
graph once in reverse topological order. Everything is float64; graphs are
built per call and garbage-collected afterwards, so no global state exists
and identical inputs produce bit-identical gradients.

Most ops are small and close over their inputs. recurrent is the exception:
one op runs a whole RNN, LSTM or GRU layer, saves its own buffers for the
backward pass through time (the gate activations, the cell states and the
stacked hidden states of every step) and writes the gradients of its four
inputs in one backward call.
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
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
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
        _accum(a, g @ b.data.T)
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


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    size = a.data.size

    def backward(g):
        _accum(a, np.full(a.data.shape, float(g) / size))

    return _make(np.asarray(a.data.mean()), (a,), backward)


def spatial_mean(a) -> Tensor:
    """Global average pooling: (B, C, H, W) -> (B, C)."""
    a = _as_tensor(a)
    _, _, h, w = a.data.shape
    denom = h * w

    def backward(g):
        _accum(a, np.broadcast_to(g[:, :, None, None] / denom, a.data.shape).copy())

    return _make(a.data.mean(axis=(2, 3)), (a,), backward)


def conv2d(x, w, b, kernel: int, padding: int) -> Tensor:
    """Square-kernel 2-D convolution with stride 1.

    x: (B, C, H, W); w: (C * kernel^2, F) with rows ordered (c, ki, kj);
    b: (F,). Output (B, F, H', W') where H' = H + 2 padding - kernel + 1.
    Implemented as im2col + one GEMM per call.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    batch, channels, height, width = x.data.shape
    padded = np.pad(
        x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )
    out_h = height + 2 * padding - kernel + 1
    out_w = width + 2 * padding - kernel + 1
    view = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), (2, 3))
    # view: (B, C, out_h, out_w, k, k) -> col: (B * out_h * out_w, C * k * k)
    col = (
        view.transpose(0, 2, 3, 1, 4, 5)
        .reshape(batch * out_h * out_w, channels * kernel * kernel)
        .copy()
    )
    out_mat = col @ w.data + b.data
    out = (
        out_mat.reshape(batch, out_h, out_w, -1).transpose(0, 3, 1, 2).copy()
    )

    def backward(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        _accum(w, col.T @ g_mat)
        _accum(b, g_mat.sum(axis=0))
        if x.requires_grad:
            g_col = g_mat @ w.data.T
            g_col = g_col.reshape(batch, out_h, out_w, channels, kernel, kernel)
            g_padded = np.zeros_like(padded)
            for ki in range(kernel):
                for kj in range(kernel):
                    g_padded[:, :, ki : ki + out_h, kj : kj + out_w] += (
                        g_col[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
                    )
            g_x = g_padded[:, :, padding : padding + height, padding : padding + width]
            _accum(x, g_x.copy())

    return _make(out, (x, w, b), backward)


def recurrent(cell: str, x, w_x, w_h, b) -> Tensor:
    """One recurrent layer over a (B, T, d) window; returns the last (B, U) state.

    cell is "rnn" (h = tanh(z)), "lstm" (gates input, forget, cell, output)
    or "gru" (reset, update, candidate; the reset gate scales h before its
    w_h block), with z = x_t @ w_x + b + h @ w_h. w_x: (d, G*U),
    w_h: (U, G*U), b: (G*U,); the initial states are zero.

    Following Appleyard et al. (arXiv:1604.01946), the input projection of
    all T steps is computed before the recurrence, leaving one recurrent
    GEMM and the fused gate math per step. Steps are feature-major,
    (features, B), so every gate is a contiguous block of rows. The
    (T, G*U, B) projection buffer is overwritten step by step with the gate
    activations. The backward pass through time reads them with the saved
    states, then forms each weight gradient with one GEMM over the stacked
    (features, T*B) arrays.
    """
    x, w_x, w_h, b = (_as_tensor(a) for a in (x, w_x, w_h, b))
    cell_forward, cell_backward = _CELLS[cell]
    batch, steps, n_in = x.data.shape
    units = w_h.data.shape[0]
    # Stacks are (features, T, B), so each is a (features, T*B) matrix
    # without a copy. A row of ones after the d features carries the bias
    # through the input GEMM, and its gradient through the weight GEMM.
    xs = np.ones((n_in + 1, steps, batch))
    xs[:n_in] = x.data.transpose(2, 1, 0)
    acts = np.matmul(np.vstack([w_x.data, b.data]).T, xs.transpose(1, 0, 2))
    hs = np.zeros((units, steps + 1, batch))  # hs[:, t]: the state entering step t
    saved = cell_forward(acts, hs, w_h.data)

    def backward(g):
        dz = np.empty((acts.shape[1], steps, batch))
        g_w_h = cell_backward(np.ascontiguousarray(g.T), acts, hs, w_h.data, saved, dz)
        dz = _flat(dz)
        g_w_xb = _flat(xs) @ dz.T
        _accum(w_x, g_w_xb[:n_in])
        _accum(w_h, g_w_h)
        _accum(b, g_w_xb[n_in])
        if x.requires_grad:
            _accum(x, (w_x.data @ dz).reshape(n_in, steps, batch).transpose(2, 1, 0))

    return _make(np.ascontiguousarray(hs[:, -1].T), (x, w_x, w_h, b), backward)


def _sigmoid_(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)), in place."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _flat(stack: np.ndarray) -> np.ndarray:
    """A (features, T, B) stack as one (features, T*B) matrix."""
    return stack.reshape(len(stack), -1)


# A cell's forward pass fills acts[t] with the gate activations and
# hs[:, t + 1] with the states, and returns what else its backward pass
# needs. The backward pass starts from dL/dh_T (U, B), fills dz[:, t] with
# the gradient of the pre-activations z of step t and returns the gradient
# of w_h.

def _rnn_forward(acts, hs, w_h):
    for t in range(len(acts)):
        z = acts[t]
        z += w_h.T @ hs[:, t]
        np.tanh(z, out=z)
        hs[:, t + 1] = z


def _rnn_backward(dh, acts, hs, w_h, saved, dz):
    for t in reversed(range(len(acts))):
        np.multiply(dh, 1.0 - acts[t] * acts[t], out=dz[:, t])
        dh = w_h @ dz[:, t]
    return _flat(hs[:, :-1]) @ _flat(dz).T


def _lstm_forward(acts, hs, w_h):
    units = len(hs)
    cs = np.zeros((len(acts) + 1, units, hs.shape[2]))  # cs[t]: entering step t
    tanh_cs = np.empty_like(cs[1:])
    for t in range(len(acts)):
        z = acts[t]
        z += w_h.T @ hs[:, t]
        _sigmoid_(z[: 2 * units])
        i, f, g, o = np.split(z, 4)
        np.tanh(g, out=g)
        _sigmoid_(o)
        np.multiply(f, cs[t], out=cs[t + 1])
        cs[t + 1] += i * g
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(o, tanh_cs[t], out=hs[:, t + 1])
    return cs, tanh_cs


def _lstm_backward(dh, acts, hs, w_h, saved, dz):
    cs, tanh_cs = saved
    dc = 0.0
    for t in reversed(range(len(acts))):
        i, f, g, o = np.split(acts[t], 4)
        di, df, dg, do = np.split(dz[:, t], 4)
        tc = tanh_cs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        np.multiply(dc * g, i * (1.0 - i), out=di)
        np.multiply(dc * cs[t], f * (1.0 - f), out=df)
        np.multiply(dc * i, 1.0 - g * g, out=dg)
        np.multiply(dh * tc, o * (1.0 - o), out=do)
        dc = dc * f
        dh = w_h @ dz[:, t]
    return _flat(hs[:, :-1]) @ _flat(dz).T


def _gru_forward(acts, hs, w_h):
    units = len(hs)
    w_ru, w_n = w_h[:, : 2 * units], w_h[:, 2 * units :]
    rhs = np.empty_like(hs[:, 1:])  # r * h per step: the input of the w_n GEMM
    for t in range(len(acts)):
        h = hs[:, t]
        ru, n = acts[t, : 2 * units], acts[t, 2 * units :]
        ru += w_ru.T @ h
        _sigmoid_(ru)
        r, u = np.split(ru, 2)
        np.multiply(r, h, out=rhs[:, t])
        n += w_n.T @ rhs[:, t]
        np.tanh(n, out=n)
        hs[:, t + 1] = (1.0 - u) * h + u * n
    return rhs


def _gru_backward(dh, acts, hs, w_h, rhs, dz):
    units = len(hs)
    w_ru, w_n = w_h[:, : 2 * units], w_h[:, 2 * units :]
    for t in reversed(range(len(acts))):
        h = hs[:, t]
        r, u, n = np.split(acts[t], 3)
        dr, du, dn = np.split(dz[:, t], 3)
        np.multiply(dh * u, 1.0 - n * n, out=dn)
        np.multiply(dh * (n - h), u * (1.0 - u), out=du)
        d_rh = w_n @ dn
        np.multiply(d_rh * h, r * (1.0 - r), out=dr)
        dh = dh * (1.0 - u) + d_rh * r + w_ru @ dz[: 2 * units, t]
    g_w_h = np.empty_like(w_h)
    g_w_h[:, : 2 * units] = _flat(hs[:, :-1]) @ _flat(dz[: 2 * units]).T
    g_w_h[:, 2 * units :] = _flat(rhs) @ _flat(dz[2 * units :]).T
    return g_w_h


_CELLS = {
    "rnn": (_rnn_forward, _rnn_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "gru": (_gru_forward, _gru_backward),
}
