"""Reverse-mode automatic differentiation over dense numpy arrays.

The primitive set is closed, 15 in all: add, sub, mul, div, matmul,
linear (a stacked input times one matrix plus an optional bias, as one GEMM),
feed_forward (linear, ReLU and linear as one node), transpose, reshape,
normalize (zero mean, unit variance over the last axis, with an optional
affine gain and shift), attention (multi-head attention with its query, key
and value projections, whose softmax is reweighted by a constant decay
array), graph_attention (a multi-head GAT layer, LeakyReLU included, over the
kept edges of a constant neighbour mask), sum, mean and masked_select. Every
primitive has an exact vector-Jacobian product, so any composition of them
has exact gradients; the finite-difference checker in gradcheck.py verifies
this.

The backward graph is made of nodes, not of tensors. A result with an input
that needs a gradient gets a `_Node` holding, per such input, that input's
node (a leaf tensor is its own node) and the vjp that maps the result's
gradient to it; any other result, and every result made under no_grad, gets
no node. A vjp keeps only what it reads: a shape, a dtype or a mask, the
input Tensors whose data its formula uses, or what the node made for its
vjps, held as a Tensor (attention's row max and sum, graph_attention's edge
weights). What one product of kept inputs gives back is rebuilt rather than
kept: once per backward, a node's first vjps rebuild attention's q, k, v and
weights and feed_forward's hidden layer by the forward's own arithmetic,
hold them as Tensors while its vjps read them and then drop them. So a
Tensor's buffer lives while the caller or some vjp holds that Tensor, and no
longer: the output of a layer that only feeds a residual add is freed once
the caller drops it. No vjp holds its own output or a bare view of a
Tensor's buffer, so every live buffer stays counted in memory.py and is
freed without the cyclic garbage collector.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import memory


class ShapeError(ValueError):
    """Operand shapes incompatible; message names the offending operation."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")


_grad_enabled = True
_DENSE_SLICE_BYTES = 1 << 20  # graph_attention's dense scratch per time slice


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


class _Node:
    """The backward edges of one result: (input node, vjp) pairs for the
    inputs that need a gradient, and the result's gradient while backward()
    runs. It holds no result data."""

    __slots__ = ("_edges", "grad")

    def __init__(self, edges):
        self._edges = edges
        self.grad = None


class Tensor:
    """A dense real tensor and, if it was computed with a gradient, its node.

    Values are immutable once they participate in a computation; backward()
    walks the nodes once and accumulates gradients in a deterministic order.
    A leaf (requires_grad, not computed) is its own node: its gradient adds
    into `.grad`. A computed tensor's `.grad` stays None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_nbytes")
    _edges = ()  # a leaf, as a node, has no inputs

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
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
        """Backpropagate from a scalar. Adds into .grad on every leaf
        reachable from this tensor. Intermediate gradients are released as
        soon as they have been propagated, and the graph is kept, so a second
        call adds the same gradients onto the leaves again."""
        if self.data.size != 1:
            raise ShapeError("backward", f"loss must be scalar, got shape {self.data.shape}")
        root = self._node or self
        topo: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, _ in node._edges:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._edges:
                contrib = vjp(g)
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib
            if node._edges:
                node.grad = None


def _result(data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    """Wrap a primitive's output. Under grad mode, the inputs that need a
    gradient get an edge with their vjp; the other vjps are dropped, and with
    them whatever they held."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._node = None
    out.requires_grad = False
    if _grad_enabled:
        edges = tuple([(p._node or p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad])
        if edges:
            out.requires_grad = True
            out._node = _Node(edges)
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


def _operands(a, b) -> tuple[Tensor, Tensor]:
    a = _coerce(a)
    return a, _coerce(b, like=a)


def _binary(op: str, ufunc, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Broadcasting ufunc(a, b); grad_a and grad_b map the result's gradient
    to each operand's local gradient, before it is reduced to that operand's
    shape. Each closes over only the operands it reads."""
    try:
        data = ufunc(a.data, b.data)
    except ValueError as e:
        raise ShapeError(op, str(e)) from None
    shape_a, shape_b = a.data.shape, b.data.shape
    return _result(data, (a, b), (lambda g: _unbroadcast(grad_a(g), shape_a),
                                  lambda g: _unbroadcast(grad_b(g), shape_b)))


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary("add", np.add, a, b, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary("sub", np.subtract, a, b, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary("mul", np.multiply, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary("div", np.divide, a, b, lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def matmul(a, b) -> Tensor:
    """Matrix product with stacked (batched) leading dimensions. A stacked `a`
    times one matrix `b` is `linear(a, b)`, one GEMM forward and backward."""
    a, b = _operands(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul", f"operands need ndim >= 2, got {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2 and a.data.ndim > 2:
        return linear(a, b)
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError("matmul", str(e)) from None
    shape_a, shape_b = a.data.shape, b.data.shape
    return _result(data, (a, b), (lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), shape_a),
                                  lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, shape_b)))


def linear(x, w, b=None) -> Tensor:
    """x @ w + b, bit-identically, for a stacked x (..., d), one (d, k) matrix
    and an optional (k,) bias: one (rows, d) @ (d, k) GEMM with the bias
    added in place. w's gradient copies a non-contiguous x, not kept alive."""
    x, w = _operands(x, w)
    if x.data.ndim < 1 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError("linear", f"need (..., d) @ (d, k), got {x.data.shape} @ {w.data.shape}")
    d, k = w.data.shape
    shape = x.data.shape
    out = x.data.reshape(-1, d) @ w.data
    parents, vjps = (x, w), (lambda g: (g.reshape(-1, k) @ w.data.T).reshape(shape),
                             lambda g: x.data.reshape(-1, d).T @ g.reshape(-1, k))
    if b is not None:
        b = _coerce(b, like=x)
        if b.data.shape != (k,):
            raise ShapeError("linear", f"bias shape {b.data.shape} != ({k},)")
        out += b.data
        parents, vjps = parents + (b,), vjps + (lambda g: g.reshape(-1, k).sum(axis=0),)
    return _result(out.reshape(shape[:-1] + (k,)), parents, vjps)


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 for a stacked x (..., d), a (d, h) and an
    (h, k) matrix and their biases, as one node with the arithmetic of
    linear, relu (a product by the sign mask) and linear, so it equals that
    chain bitwise. The forward's (rows, h) hidden layer is scratch, counted
    while it lives. The vjps keep x and the weights, not the hidden layer or
    its mask: the first of a backward rebuilds the hidden layer by the
    forward's product as a counted Tensor, takes w2's gradient and the hidden
    gradient from it and drops it. The hidden gradient, which the vjps of x,
    w1 and b1 read, is a Tensor freed after the last."""
    x = _coerce(x)
    w1, b1, w2, b2 = (_coerce(p, like=x) for p in (w1, b1, w2, b2))
    shape = x.data.shape
    if (x.data.ndim < 1 or w1.data.ndim != 2 or w2.data.ndim != 2 or shape[-1] != w1.data.shape[0]
            or w2.data.shape[0] != w1.data.shape[1] or b1.data.shape != w1.data.shape[1:]
            or b2.data.shape != w2.data.shape[1:]):
        raise ShapeError("feed_forward", "need x (..., d), w1 (d, h), b1 (h,), w2 (h, k) and b2 (k,), got "
                         f"{[p.data.shape for p in (x, w1, b1, w2, b2)]}")
    d, k = shape[-1], w2.data.shape[1]

    def hidden():  # relu(x w1 + b1) as (rows, h): linear's product and in-place bias, relu's product by the mask
        z = x.data.reshape(-1, d) @ w1.data
        z += b1.data
        z *= z > 0
        return z

    z = hidden()
    memory.note_alloc(z.nbytes)
    out = z @ w2.data
    out += b2.data
    memory.note_free(z.nbytes)
    del z
    below = [p.requires_grad for p in (x, w1, b1)]  # the vjps that read the hidden gradient
    users = _grad_enabled and np.count_nonzero(below + [w2.requires_grad])  # vjps that read the rebuild
    pending = []  # w2's gradient and the hidden gradient as a counted Tensor, one pair per vjp to run

    def rebuilt(g):
        if not pending:
            z = Tensor(hidden())
            g_w2 = z.data.T @ g.reshape(-1, k) if w2.requires_grad else None
            g_z = None
            if any(below):  # linear's vjp, then relu's: a product by the sign mask, which z > 0 recovers
                g_z = g.reshape(-1, k) @ w2.data.T
                g_z *= z.data > 0
            del z
            pending.extend([(g_w2, None if g_z is None else Tensor(g_z))] * users)
        return pending.pop()

    return _result(out.reshape(shape[:-1] + (k,)), (x, w1, b1, w2, b2), (
        lambda g: (rebuilt(g)[1].data @ w1.data.T).reshape(shape),
        lambda g: x.data.reshape(-1, d).T @ rebuilt(g)[1].data,
        lambda g: rebuilt(g)[1].data.sum(axis=0),
        lambda g: rebuilt(g)[0],
        lambda g: g.reshape(-1, k).sum(axis=0)))


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
    old = a.data.shape
    return _result(data, (a,), (lambda g: g.reshape(old),))


# elementwise ---------------------------------------------------------------


def normalize(a, eps: float, gamma=None, beta=None) -> Tensor:
    """y = (a - mean) / sqrt(var + eps) over the last axis, with the population
    variance, then `* gamma + beta` in place if given: a layer norm,
    bit-identical to that composition. The backward is the closed form
    (g' - mean(g') - y mean(g' y)) / std with g' = g * gamma. The vjps keep
    the input Tensor and the row statistics, and recompute y from them."""
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
        return held.pop() if held else (a.data - mu) / std

    def grad_a(g):
        y = rows()
        if gamma is not None:
            g = g * gamma.data
            if gamma.requires_grad:
                held.append(y)
        return (g - g.mean(axis=-1, keepdims=True) - y * (g * y).mean(axis=-1, keepdims=True)) / std

    return _result(out, parents, (grad_a, lambda g: _unbroadcast(g * rows(), gamma.data.shape),
                                  lambda g: _unbroadcast(g, beta.data.shape))[:len(parents)])


def _row_max(a: np.ndarray) -> np.ndarray:
    """np.max(a, axis=-1, keepdims=True), exactly, by halving passes: a max
    does not depend on order, and over rows as short as a window a few
    elementwise maxima run faster than the row reduction."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        m = np.maximum(a[..., :half], a[..., half:2 * half])
        if a.shape[-1] % 2:
            np.maximum(m[..., :1], a[..., -1:], out=m[..., :1])
        a = m
    return a


def attention(q_in, x, wq, bq, wk, wv, bv, decay: np.ndarray, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head attention with its projections, under a non-negative constant decay, as one node.

    The queries q = linear(q_in, wq, bq) are (N, S, d), the keys
    k = linear(x, wk) and values v = linear(x, wv, bv) are (N, T, d); either
    bias may be None. Each is split into `heads` heads of width
    dk = d / heads; the scores q kᵀ / sqrt(dk) go through the decay softmax
    y_j = decay_j exp(s_j) / sum_i decay_i exp(s_i) over the T keys, the
    weights mix the values, and the heads merge back into (N, S, d).
    `decay` broadcasts to (N, heads, S, T). Zero-weight keys see -inf before
    the row max, so changing their scores cannot move the surviving weights
    even at the bit level, and they get exactly zero weight and zero
    gradient. Each row needs one positive weight, or it comes out NaN.

    Returns the merged output and the (N, heads, S, T) weights, a constant
    tensor. The three projections are `linear` nodes of the graph, so their
    gradients reach q_in, x and the weights as if the caller had made them;
    q, k and v themselves are freed when the node returns. The softmax runs
    in place in the scores buffer, which becomes the weights, so the forward
    holds one (N, heads, S, T) array; the head-mixing products write straight
    into merged (N, rows, d) arrays. The vjps keep the projection inputs and
    each row's max and sum, (N, heads, S, 2). The first of a backward rebuilds
    q and k by the forward's products and the weights by its softmax, as
    Tensors freed after the last. The first of the q and k vjps rebuilds v
    for the (N, heads, S, T) scores gradient, drops it, and hands the
    gradient to the second as a Tensor. Its arithmetic is that of the three
    linears and the head-split, matmul, scale, softmax, matmul and merge
    composition, on the same view layouts and in the same order, so results
    equal it bitwise.
    """
    q_in, x = _coerce(q_in), _coerce(x)

    def queries_keys():  # q and k by the forward's linear products; v is linear(x, wv, bv)
        return linear(q_in, wq, bq), linear(x, wk)

    q, k = queries_keys()
    v = linear(x, wv, bv)
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

    def merged(a, b, rows):  # a @ b (N, H, rows, dk), written through a split view of a new (N, rows, d)
        out = np.empty((n, rows, d), dtype=np.result_type(a, b))
        np.matmul(a, b, out=split(out, rows))
        return out

    decay = np.asarray(decay)
    hand_on = k.requires_grad  # the q vjp hands its scores gradient on to the k vjp
    users = _grad_enabled and np.count_nonzero([p.requires_grad for p in (q, k, v)])  # vjps backward calls
    stats = Tensor(np.empty((n, heads, s, 2), dtype)) if users else None  # each row's max and sum

    def softmax(qd, kd, fill):  # the weights in a new scores buffer; kept stats get (fill) or give row max and sum
        y = split(qd, s) @ split(kd, t).transpose(0, 1, 3, 2)
        y *= scale
        np.copyto(y, dtype.type(-np.inf), where=~(decay > 0))
        if fill:
            stats.data[..., :1] = _row_max(y)
        y -= _row_max(y) if stats is None else stats.data[..., :1]
        np.exp(y, out=y)
        y *= decay.astype(dtype, copy=False)
        if fill:
            stats.data[..., 1:] = y.sum(axis=-1, keepdims=True)
        y /= y.sum(axis=-1, keepdims=True) if stats is None else stats.data[..., 1:]
        return y

    try:
        y = softmax(q.data, k.data, fill=stats is not None)
    except ValueError:
        raise ShapeError("attention", f"decay {decay.shape} does not broadcast to "
                                      f"{(n, heads, s, t)}") from None
    out = merged(y, split(v.data, t), s)
    pending = []  # rebuilt (q, k, weights) as counted Tensors, one reference per vjp still to run
    held = []  # the scores gradient as a Tensor, from the q vjp to the k vjp

    def rebuilt():  # the vjps read these, never the forward's q, k and v, which go when the node returns
        if not pending:
            with no_grad():
                q_, k_ = queries_keys()
            pending.extend([(q_, k_, Tensor(softmax(q_.data, k_.data, fill=False)))] * users)
        return pending.pop()

    def scores_grad(g, weights):  # v is rebuilt only here, and dropped before ds is kept
        if held:
            return held.pop()
        with no_grad():
            values = linear(x, wv, bv)
        ds = split(g, s) @ split(values.data, t).swapaxes(-1, -2)
        del values
        ds -= (ds * weights.data).sum(axis=-1, keepdims=True)
        ds *= weights.data
        ds *= scale
        return Tensor(ds)

    def grad_q(g):
        _, k_, weights = rebuilt()
        ds = scores_grad(g, weights)
        if hand_on:
            held.append(ds)
        return merged(ds.data, split(k_.data, t), s)

    def grad_k(g):  # (N, H, dk, T) -> (N, T, d)
        q_, _, weights = rebuilt()
        ds = scores_grad(g, weights)
        return np.transpose(split(q_.data, s).swapaxes(-1, -2) @ ds.data, (0, 3, 1, 2)).reshape(n, t, d)

    def grad_v(g):
        return merged(rebuilt()[2].data.swapaxes(-1, -2), split(g, s), t)

    return _result(out, (q, k, v), (grad_q, grad_k, grad_v)), Tensor(y)


def graph_attention(hs: Sequence[Tensor], es: Sequence[Tensor], keep: np.ndarray, slope: float) -> Tensor:
    """A multi-head graph attention (GAT) layer over the kept edges of a constant mask, as one node.

    Head k has features hs[k] (T, N, g) and scores es[k] (T, N, 2): column 0
    holds each node's score as the attending row, column 1 as an attended
    column. Each kept edge (i, j) of the (N, N) boolean mask has the logit
    LeakyReLU(e[t, i, 0] + e[t, j, 1], slope), 0 < slope <= 1; each row is
    softmaxed over its kept edges, which must include one, and the weights
    mix that head's features. Returns the LeakyReLU of the heads side by
    side, node-major (N, T, H g).

    Edges are taken in row-major order, so the row max and sum are segment
    reductions. Dense (N, N) weights exist one time slice of at most
    _DENSE_SLICE_BYTES (or one step) at a time, each slice's batched product
    written into place: every step is the whole window's (N, N) @ (N, g)
    GEMM. The vjps (none under no_grad) keep the inputs, the output's sign
    mask and the (T, H, E) edge weights as a Tensor, share one time-major
    pre-activation gradient per backward, rebuild dense slices by the same
    scatter and recompute the logits' sign, so results equal a per-head edge
    softmax, dense matmul, concat, LeakyReLU (here max(x, x slope)) and
    node-major transpose bit for bit.
    """
    hs, es = [_coerce(h) for h in hs], [_coerce(e) for e in es]
    keep = np.asarray(keep, dtype=bool)
    shape = hs[0].data.shape if hs else ()
    if (len(shape) != 3 or len(es) != len(hs) or keep.shape != shape[1:2] * 2
            or any(h.data.shape != shape for h in hs) or any(e.data.shape != shape[:2] + (2,) for e in es)):
        raise ShapeError("graph_attention", "need per-head features (T, N, g), scores (T, N, 2) and keep "
                         f"(N, N), got {[h.data.shape for h in hs]}, {[e.data.shape for e in es]} "
                         f"and {keep.shape}")
    if not 0 < slope <= 1:
        raise ValueError(f"graph_attention: slope must be in (0, 1], got {slope}")
    t, n, width = shape
    row_counts = keep.sum(axis=1)
    if not row_counts.all():
        raise ValueError(f"graph_attention: row {int(np.argmin(row_counts))} of keep has no kept entry")
    flat = np.flatnonzero(keep)
    rows, cols = np.divmod(flat, n)
    starts = np.cumsum(row_counts) - row_counts  # first edge of each row
    by_col = np.argsort(cols, kind="stable")  # each column's edges as one segment
    kept_cols, col_starts = np.unique(cols[by_col], return_index=True)  # a column may have none
    dtype = hs[0].data.dtype
    slope = dtype.type(slope)
    users = _grad_enabled and np.count_nonzero([p.requires_grad for p in (*hs, *es)])  # vjps backward calls
    span = max(1, _DENSE_SLICE_BYTES // (n * n * dtype.itemsize))  # time steps per dense slice
    cuts = [slice(lo, lo + span) for lo in range(0, t, span)]

    def dense(s):  # per cut, one head's (steps, N, N) weights, exactly zero off the kept edges
        buf = np.zeros((min(span, t), n * n), dtype=dtype)
        for sl in cuts:
            y = buf[:len(s[sl])]
            y[:, flat] = s[sl]
            yield sl, y.reshape(-1, n, n)

    out = np.empty((n, t, len(hs) * width), dtype=dtype)
    z = np.empty((t, n, width), dtype=dtype)  # one head's pre-activations
    pos = np.empty((t, n, len(hs) * width), dtype=bool) if users else None  # their signs, time-major
    weights = Tensor(np.empty((t, len(hs), flat.size), dtype=dtype)) if users else None  # the vjps read it
    scratch = min(span, t) * n * n * dtype.itemsize  # each head's, counted in the forward as a Tensor is
    for k, (h, e) in enumerate(zip(hs, es)):
        s = e.data[:, rows, 0] + e.data[:, cols, 1]  # (T, E) logits
        np.maximum(s, s * slope, out=s)
        s -= np.repeat(np.maximum.reduceat(s, starts, axis=1), row_counts, axis=1)
        np.exp(s, out=s)
        s /= np.repeat(np.add.reduceat(s, starts, axis=1), row_counts, axis=1)
        memory.note_alloc(scratch)
        for sl, y in dense(s):
            np.matmul(y, h.data[sl], out=z[sl])
        memory.note_free(scratch)
        head = np.s_[:, :, k * width:(k + 1) * width]
        if users:
            weights.data[:, k], pos[head] = s, z > 0
        np.maximum(z, z * slope, out=out.transpose(1, 0, 2)[head])
    pending = []  # the pre-activation gradient, one reference per vjp still to run
    leaky = np.array([slope, 1], dtype=dtype)  # LeakyReLU's derivative, by sign: a product by it is exact

    def grad_z(k, g):  # head k's columns of gᵀ (slope where not pos), derived once per backward
        if not pending:
            pending.extend([g.transpose(1, 0, 2) * leaky[pos.view(np.int8)]] * users)
        return pending.pop()[:, :, k * width:(k + 1) * width]

    def grad_h(k, g):
        g_z = grad_z(k, g)
        grad = np.empty(g_z.shape, np.result_type(dtype, g_z))
        for sl, y in dense(weights.data[:, k]):
            np.matmul(y.swapaxes(-1, -2), g_z[sl], out=grad[sl])
        return grad

    def grad_e(k, g):
        s, e, g_z = weights.data[:, k], es[k].data, grad_z(k, g)
        g_e = np.concatenate([(g_z[sl] @ hs[k].data[sl].swapaxes(-1, -2)).reshape(-1, n * n)[:, flat]
                              for sl in cuts])  # (T, E), one dense slice at a time
        ds = s * (g_e - np.repeat(np.add.reduceat(g_e * s, starts, axis=1), row_counts, axis=1))
        ds *= leaky[(e[:, rows, 0] + e[:, cols, 1] > 0).view(np.int8)]
        grad = np.zeros((t, n, 2), dtype=dtype)
        grad[:, :, 0] = np.add.reduceat(ds, starts, axis=1)
        grad[:, kept_cols, 1] = np.add.reduceat(ds[:, by_col], col_starts, axis=1)
        return grad

    vjps = [functools.partial(grad, k) for grad in (grad_h, grad_e) for k in range(len(hs))]
    return _result(out, (*hs, *es), vjps)


# reductions ----------------------------------------------------------------


def _reduce(reduction, a, axis, keepdims: bool) -> Tensor:
    """np.sum or np.mean over axis. The vjp broadcasts the gradient back over
    the reduced axes, times 1 / count for a mean."""
    a = _coerce(a)
    axes = _norm_axes(axis, a.data.ndim)
    shape, dtype = a.data.shape, a.data.dtype
    inv = dtype.type(1.0 / math.prod(shape[ax] for ax in axes)) if reduction is np.mean else None

    def vjp(g):
        g = g if inv is None else g * inv
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axes), shape).astype(dtype, copy=False)

    return _result(np.asarray(reduction(a.data, axis=axes, keepdims=keepdims)), (a,), (vjp,))


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - matches numpy naming
    return _reduce(np.sum, a, axis, keepdims)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    return _reduce(np.mean, a, axis, keepdims)


# masked selection ----------------------------------------------------------


def masked_select(a, mask: np.ndarray) -> Tensor:
    """Gather entries where the constant mask is true, as a 1-D tensor."""
    a = _coerce(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        mask = np.broadcast_to(mask, a.data.shape)
    data = a.data[mask]
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        out = np.zeros(shape, dtype=dtype)
        out[mask] = g
        return out

    return _result(data, (a,), (vjp,))

