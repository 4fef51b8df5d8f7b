"""Reverse-mode automatic differentiation over dense numpy arrays.

The primitive set is closed, 16 in all: add, sub, mul, div, neg, matmul,
transpose, reshape, concat, sqrt, relu, leaky_relu, decay_softmax (attention
normalisation under a constant weight array), sum, mean and masked_select.
Every primitive has an exact vector-Jacobian product, so any composition of
them has exact gradients; the finite-difference checker in gradcheck.py
verifies this.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import memory


class ShapeError(ValueError):
    """Operand shapes incompatible; message names the offending operation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # backward -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar. Populates .grad on every
        requires_grad tensor reachable from this node."""
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


def add(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, like=a)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError("add", str(e)) from None
    return _result(data, (a, b), (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(g, b.data.shape),
    ))


def sub(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, like=a)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError("sub", str(e)) from None
    return _result(data, (a, b), (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(-g, b.data.shape),
    ))


def mul(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, like=a)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError("mul", str(e)) from None
    return _result(data, (a, b), (
        lambda g: _unbroadcast(g * b.data, a.data.shape),
        lambda g: _unbroadcast(g * a.data, b.data.shape),
    ))


def div(a, b) -> Tensor:
    a = _coerce(a)
    b = _coerce(b, like=a)
    try:
        data = a.data / b.data
    except ValueError as e:
        raise ShapeError("div", str(e)) from None
    return _result(data, (a, b), (
        lambda g: _unbroadcast(g / b.data, a.data.shape),
        lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
    ))


def neg(a) -> Tensor:
    a = _coerce(a)
    return _result(-a.data, (a,), (lambda g: -g,))


def matmul(a, b) -> Tensor:
    """Matrix product with stacked (batched) leading dimensions."""
    a = _coerce(a)
    b = _coerce(b, like=a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul", f"operands need ndim >= 2, got {a.data.shape} @ {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError("matmul", str(e)) from None

    def grad_a(g):
        return _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)

    def grad_b(g):
        return _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)

    return _result(data, (a, b), (grad_a, grad_b))


# shape manipulation --------------------------------------------------------


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _coerce(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _result(data, (a,), (lambda g: np.transpose(g, inv),))


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


def sqrt(a) -> Tensor:
    a = _coerce(a)
    y = np.sqrt(a.data)
    return _result(y, (a,), (lambda g: g * (0.5 / y),))


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0
    return _result(a.data * mask, (a,), (lambda g: g * mask,))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _coerce(a)
    pos = a.data > 0
    factor = np.where(pos, a.data.dtype.type(1), a.data.dtype.type(slope))
    return _result(a.data * factor, (a,), (lambda g: g * factor,))


def decay_softmax(a, decay: np.ndarray) -> Tensor:
    """Softmax over the last axis reweighted by a non-negative constant
    array: y_i = decay_i exp(a_i) / sum_j decay_j exp(a_j).

    `decay` broadcasts against `a`; a boolean mask gives the plain masked
    softmax. Zero-weight entries see -inf before the row max, so changing
    their scores cannot move the surviving weights even at the bit level,
    and they get exactly zero weight and zero gradient. Each row needs one
    positive weight, or it comes out NaN.
    """
    a = _coerce(a)
    decay = np.asarray(decay)
    dtype = a.data.dtype
    try:
        y = np.where(decay > 0, a.data, dtype.type(-np.inf))
    except ValueError as e:
        raise ShapeError("decay_softmax", str(e)) from None
    y -= np.max(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y *= decay.astype(dtype)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        return _unbroadcast(y * (g - (g * y).sum(axis=-1, keepdims=True)), a.data.shape)

    return _result(y, (a,), (vjp,))


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

