"""Reverse-mode automatic differentiation over dense numpy arrays.

The primitive set is closed, 17 in all: add, sub, mul, div, matmul,
linear (a stacked input times one matrix plus an optional bias, as one GEMM),
transpose, reshape, concat, normalize (zero mean, unit variance over the last
axis, with an optional affine gain and shift), relu, leaky_relu, attention
(multi-head attention whose softmax is reweighted by a constant decay array),
edge_softmax (graph attention over the kept edges of a constant neighbour
mask), sum, mean and masked_select.
Every primitive has an exact vector-Jacobian product, so any composition of
them has exact gradients; the finite-difference checker in gradcheck.py
verifies this.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import memory


class ShapeError(ValueError):
    """Operand shapes incompatible; message names the offending operation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")


_grad_enabled = True


class no_grad:
    """Context that skips graph construction (forward values only)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A dense real tensor plus the backward edges that produced it.

    Values are immutable once they participate in a computation; backward()
    walks the graph once and accumulates gradients in a deterministic order.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_nbytes")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
        memory.note_alloc(arr.nbytes)
        self._nbytes = arr.nbytes

    def __del__(self):
        try:
            memory.note_free(self._nbytes)
        except AttributeError:  # construction failed before the buffer was counted
            pass

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # backward -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar. Adds into .grad on every leaf (a
        requires_grad tensor with no parents) reachable from this node.
        Intermediate gradients are released as soon as they have been
        propagated, so they are None afterwards and a second call adds the
        same gradients onto the leaves again."""
        if self.data.size != 1:
            raise ShapeError("backward", f"loss must be scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.requires_grad:
                    continue
                contrib = vjp(g)
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib
            if node._parents:
                node.grad = None


def _result(data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjps = ()
    memory.note_alloc(data.nbytes)
    out._nbytes = data.nbytes
    return out


def _coerce(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to an operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# binary arithmetic ---------------------------------------------------------


def _binary(op: str, ufunc, a, b, grad_a, grad_b) -> Tensor:
    """Broadcasting ufunc(a, b); grad_a and grad_b map (g, a, b) arrays to
    each operand's local gradient before it is reduced to that operand's shape."""
    a = _coerce(a)
    b = _coerce(b, like=a)
    try:
        data = ufunc(a.data, b.data)
    except ValueError as e:
        raise ShapeError(op, str(e)) from None
    return _result(data, (a, b), (
        lambda g: _unbroadcast(grad_a(g, a.data, b.data), a.data.shape),
        lambda g: _unbroadcast(grad_b(g, a.data, b.data), b.data.shape),
    ))


def add(a, b) -> Tensor:
    return _binary("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", np.divide, a, b, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b) -> Tensor:
    """Matrix product with stacked (batched) leading dimensions. A stacked `a`
    times one matrix `b` is `linear(a, b)`, one GEMM forward and backward."""
    a = _coerce(a)
    b = _coerce(b, like=a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul", f"operands need ndim >= 2, got {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2 and a.data.ndim > 2:
        return linear(a, b)
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError("matmul", str(e)) from None

    def grad_a(g):
        return _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)

    def grad_b(g):
        return _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)

    return _result(data, (a, b), (grad_a, grad_b))


def linear(x, w, b=None) -> Tensor:
    """x @ w + b, bit-identically, for a stacked x (..., d), one (d, k) matrix
    and an optional (k,) bias: one (rows, d) @ (d, k) GEMM with the bias
    added in place. w's gradient copies a non-contiguous x, not kept alive."""
    x = _coerce(x)
    w = _coerce(w, like=x)
    if x.data.ndim < 1 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError("linear", f"need (..., d) @ (d, k), got {x.data.shape} @ {w.data.shape}")
    d, k = w.data.shape
    out = x.data.reshape(-1, d) @ w.data
    parents, vjps = (x, w), (lambda g: (g.reshape(-1, k) @ w.data.T).reshape(x.data.shape),
                             lambda g: x.data.reshape(-1, d).T @ g.reshape(-1, k))
    if b is not None:
        b = _coerce(b, like=x)
        if b.data.shape != (k,):
            raise ShapeError("linear", f"bias shape {b.data.shape} != ({k},)")
        out += b.data
        parents, vjps = parents + (b,), vjps + (lambda g: g.reshape(-1, k).sum(axis=0),)
    return _result(out.reshape(x.data.shape[:-1] + (k,)), parents, vjps)


# shape manipulation --------------------------------------------------------


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _coerce(a)
    inv = tuple(np.argsort(axes))
    return _result(np.transpose(a.data, axes), (a,), (lambda g: np.transpose(g, inv),))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _coerce(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError("reshape", str(e)) from None
    return _result(data, (a,), (lambda g: g.reshape(a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError("concat", str(e)) from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _result(data, tuple(tensors), tuple(make_vjp(i) for i in range(len(tensors))))


# elementwise ---------------------------------------------------------------


def normalize(a, eps: float, gamma=None, beta=None) -> Tensor:
    """y = (a - mean) / sqrt(var + eps) over the last axis, with the population
    variance, then `* gamma + beta` in place if given: a layer norm,
    bit-identical to that composition. The backward is the closed form
    (g' - mean(g') - y mean(g' y)) / std with g' = g * gamma. No (..., d)
    array is kept besides the output: y is recomputed from the input."""
    a = _coerce(a)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    out = x - mu
    std = np.sqrt((out * out).mean(axis=-1, keepdims=True) + np.asarray(eps, dtype=x.dtype))
    out /= std
    if gamma is not None:
        gamma, beta = _coerce(gamma, like=a), _coerce(beta, like=a)
        out *= gamma.data
        out += beta.data
    parents = (a,) if gamma is None else (a, gamma, beta)
    held = []  # y recomputed by the input's vjp, handed on to gamma's

    def rows():
        return out if gamma is None else held.pop() if held else (x - mu) / std

    def grad_a(g):
        y = rows()
        if gamma is not None:
            g = g * gamma.data
            if gamma.requires_grad:
                held.append(y)
        return (g - g.mean(axis=-1, keepdims=True) - y * (g * y).mean(axis=-1, keepdims=True)) / std

    return _result(out, parents, (grad_a, lambda g: _unbroadcast(g * rows(), gamma.data.shape),
                                  lambda g: _unbroadcast(g, beta.data.shape))[:len(parents)])


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0
    return _result(a.data * mask, (a,), (lambda g: g * mask,))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _coerce(a)
    pos = a.data > 0
    slope = a.data.dtype.type(slope)
    return _result(np.where(pos, a.data, a.data * slope), (a,), (lambda g: np.where(pos, g, g * slope),))


def attention(q, k, v, decay: np.ndarray, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head attention under a non-negative constant decay, as one node.

    q is (N, S, d) and k, v are (N, T, d). Each is split into `heads` heads
    of width dk = d / heads; the scores q kᵀ / sqrt(dk) go through the decay
    softmax y_j = decay_j exp(s_j) / sum_i decay_i exp(s_i) over the T keys,
    the weights mix the values, and the heads merge back into (N, S, d).
    `decay` broadcasts to (N, heads, S, T). Zero-weight keys see -inf before
    the row max, so changing their scores cannot move the surviving weights
    even at the bit level, and they get exactly zero weight and zero
    gradient. Each row needs one positive weight, or it comes out NaN.

    Returns the merged output and the (N, heads, S, T) weights, a constant
    tensor and the only array the node keeps for backward. The scores
    gradient is computed once, for the q and k vjps. The arithmetic is that
    of the head-split, matmul, scale, softmax, matmul and merge composition,
    on the same view layouts and in the same order, so results are bitwise
    equal to it.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if (q.data.ndim != 3 or k.data.shape != v.data.shape or k.data.shape[::2] != q.data.shape[::2]
            or q.data.shape[2] % heads):
        raise ShapeError("attention", f"need q (N, S, d) and k, v (N, T, d) with d divisible by "
                         f"{heads} heads, got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    n, s, d = q.data.shape
    t = k.data.shape[1]
    dk = d // heads
    dtype = q.data.dtype
    scale = np.asarray(1.0 / math.sqrt(dk), dtype=dtype)

    def split(a, rows):  # (N, rows, d) -> (N, H, rows, dk) view
        return a.reshape(n, rows, heads, dk).transpose(0, 2, 1, 3)

    def merge(a, rows):  # (N, H, rows, dk) -> (N, rows, d) copy
        return a.transpose(0, 2, 1, 3).reshape(n, rows, d)

    q4, k4, v4 = split(q.data, s), split(k.data, t), split(v.data, t)
    decay = np.asarray(decay)
    scores = q4 @ k4.transpose(0, 1, 3, 2)
    scores *= scale
    try:
        y = np.where(decay > 0, scores, dtype.type(-np.inf))
    except ValueError as e:
        raise ShapeError("attention", str(e)) from None
    del scores
    if y.shape != (n, heads, s, t):
        raise ShapeError("attention", f"decay {decay.shape} does not broadcast to {(n, heads, s, t)}")
    y -= np.max(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y *= decay.astype(dtype)
    y /= y.sum(axis=-1, keepdims=True)
    out = merge(y @ v4, s)
    weights = Tensor(y)  # the vjps read y through `weights`, which keeps it counted
    held = []  # the scores gradient, from the q vjp to the k vjp

    def scores_grad(g):
        if held:
            return held.pop()
        ds = split(g, s) @ v4.swapaxes(-1, -2)
        ds -= (ds * weights.data).sum(axis=-1, keepdims=True)
        ds *= weights.data
        ds *= scale
        return ds

    def grad_q(g):
        ds = scores_grad(g)
        if k.requires_grad:
            held.append(ds)
        return merge(ds @ k4, s)

    def grad_k(g):
        return merge(np.transpose(q4.swapaxes(-1, -2) @ scores_grad(g), (0, 1, 3, 2)), t)

    def grad_v(g):
        return merge(weights.data.swapaxes(-1, -2) @ split(g, s), t)

    return _result(out, (q, k, v), (grad_q, grad_k, grad_v)), weights


def edge_softmax(e, keep: np.ndarray, slope: float) -> Tensor:
    """Graph-attention weights computed on the kept edges only.

    `e` is (T, N, 2): column 0 holds each node's score as the attending row,
    column 1 its score as an attended column. For every kept edge (i, j) of
    the constant (N, N) boolean mask the logit is
    leaky_relu(e[t, i, 0] + e[t, j, 1], slope), and each row is softmaxed
    over its kept edges. Returns the dense (T, N, N) weights, exactly zero
    off the kept edges. Every row needs a kept entry.

    Edges are taken in row-major order, so each row's edges are one segment
    and the row max and sum are segment reductions; the backward is the
    closed form y (g - sum_row g y) through the leaky slope, summed per row
    into column 0 and per column into column 1.
    """
    e = _coerce(e)
    keep = np.asarray(keep, dtype=bool)
    t, n = e.data.shape[:2]
    if e.data.shape != (t, n, 2) or keep.shape != (n, n):
        raise ShapeError("edge_softmax",
                         f"need scores (T, N, 2) and keep (N, N), got {e.data.shape} and {keep.shape}")
    row_counts = keep.sum(axis=1)
    if not row_counts.all():
        raise ValueError(f"edge_softmax: row {int(np.argmin(row_counts))} of keep has no kept entry")
    flat = np.flatnonzero(keep)
    rows, cols = np.divmod(flat, n)
    starts = np.cumsum(row_counts) - row_counts  # first edge of each row
    slope = e.data.dtype.type(slope)
    s = e.data[:, rows, 0] + e.data[:, cols, 1]  # (T, E) logits
    pos = s > 0
    s = np.where(pos, s, s * slope)
    s -= np.repeat(np.maximum.reduceat(s, starts, axis=1), row_counts, axis=1)
    np.exp(s, out=s)
    s /= np.repeat(np.add.reduceat(s, starts, axis=1), row_counts, axis=1)
    y = np.zeros((t, n * n), dtype=e.data.dtype)
    y[:, flat] = s

    def vjp(g):
        g_e = g[:, rows, cols]
        ds = s * (g_e - np.repeat(np.add.reduceat(g_e * s, starts, axis=1), row_counts, axis=1))
        ds = np.where(pos, ds, ds * slope)
        by_col = np.argsort(cols, kind="stable")  # each column's edges as one segment
        col_counts = np.bincount(cols, minlength=n)
        used = col_counts > 0  # a column may have no kept entry
        out = np.zeros((t, n, 2), dtype=e.data.dtype)
        out[:, :, 0] = np.add.reduceat(ds, starts, axis=1)
        out[:, used, 1] = np.add.reduceat(ds[:, by_col], (np.cumsum(col_counts) - col_counts)[used], axis=1)
        return out

    return _result(y.reshape(t, n, n), (e,), (vjp,))


# reductions ----------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> np.ndarray:
    if not keepdims:
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - matches numpy naming
    a = _coerce(a)
    axes = _norm_axes(axis, a.data.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape
    return _result(np.asarray(data), (a,), (lambda g: _expand_reduced(g, shape, axes, keepdims).astype(a.data.dtype, copy=False),))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    data = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.data.shape
    inv = a.data.dtype.type(1.0 / count)
    return _result(np.asarray(data), (a,), (lambda g: _expand_reduced(g * inv, shape, axes, keepdims).astype(a.data.dtype, copy=False),))


# masked selection ----------------------------------------------------------


def masked_select(a, mask: np.ndarray) -> Tensor:
    """Gather entries where the constant mask is true, as a 1-D tensor."""
    a = _coerce(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        mask = np.broadcast_to(mask, a.data.shape)
    data = a.data[mask]

    def vjp(g):
        out = np.zeros(a.data.shape, dtype=a.data.dtype)
        out[mask] = g
        return out

    return _result(data, (a,), (vjp,))

