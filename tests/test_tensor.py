"""Autodiff primitives: values, exact VJPs, shape errors."""

import math

import numpy as np
import pytest

from tcgpn import tensorcore as tc
from tcgpn.tensorcore import ParamStore, ShapeError, Tensor, forward_backward, memory
from tcgpn.tensorcore import tensor as tensor_mod


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle over a raw array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def analytic_grad(op, x: np.ndarray):
    t = Tensor(x.copy(), requires_grad=True)
    loss = op(t)
    loss.backward()
    return t.grad, float(loss.data)


def test_sum_of_params_grad_is_ones():
    p = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    tc.sum(p).backward()
    assert np.array_equal(p.grad, np.ones((2, 2)))


def test_square_grad_is_2x():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    tc.sum(p * p).backward()
    assert np.allclose(p.grad, [2.0, 4.0])


def test_non_scalar_loss_rejected():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (p * p).backward()


def test_shape_mismatch_names_op():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError, match="matmul"):
        tc.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        a + Tensor(np.ones((3, 4)))


@pytest.mark.parametrize("op,build", [
    ("normalize", lambda t: tc.sum(tc.normalize(t, 1e-5) * np.array([1.0, -2.0, 0.5]))),
    ("affine_normalize", lambda t: tc.sum(  # gamma and beta depend on t too, so all three vjps are probed
        tc.normalize(t, 1e-5, tc.mean(t, axis=0), tc.sum(t * t, axis=0)) * np.array([1.0, -2.0, 0.5]))),
    ("relu", lambda t: tc.sum(tc.relu(t) * tc.relu(t))),
    ("leaky", lambda t: tc.sum(tc.leaky_relu(t, 0.2) * t)),
    ("softmax", lambda t: tc.sum(_self_attention(t, np.ones((2, 2)), 1) * t)),
    ("attention", lambda t: tc.sum(_self_attention(t, np.array([[1.0, 0.0], [0.5, 1.0]]), 3) * t)),
    ("mean", lambda t: tc.mean(t * t)),
    ("div", lambda t: tc.sum(t / (t * t + 1.0))),
    ("transpose", lambda t: tc.sum(tc.transpose(t, (1, 0)) @ t)),
    ("reshape", lambda t: tc.sum(tc.reshape(t, (6,)) * tc.reshape(t, (6,)))),
    ("edge_softmax", lambda t: tc.sum(tc.edge_softmax(  # column 2 has no kept entry
        tc.reshape(t, (1, 3, 2)), np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0]], dtype=bool), 0.2)
        * np.arange(9.0).reshape(3, 3))),
])
def test_elementwise_vjps_match_finite_differences(op, build):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3)) + 0.1
    grad, _ = analytic_grad(build, x)

    def scalar_fn(arr):
        return float(build(Tensor(arr)).data)

    num = numeric_grad(scalar_fn, x.copy())
    assert np.allclose(grad, num, rtol=1e-5, atol=1e-7), op


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(2, 5))  # broadcast over the batch dims
    # stacked left operands: 3-D, 4-D, and a non-contiguous time-major view
    # of an (N, T, d) array (the GAT layout)
    for a in (rng.normal(size=(4, 3, 2)), rng.normal(size=(2, 3, 4, 2)),
              rng.normal(size=(3, 4, 2)).transpose(1, 0, 2)):
        upstream = rng.normal(size=a.shape[:-1] + (5,))

        def build(ta, tb):
            return tc.sum(tc.matmul(ta, tb) * 2.0 + tc.matmul(ta, tb) * upstream)

        num_a = numeric_grad(lambda arr: float(build(Tensor(arr), Tensor(b)).data), a.copy())
        num_b = numeric_grad(lambda arr: float(build(Tensor(a), Tensor(arr)).data), b.copy())
        for dtype, tol in ((np.float64, 1e-7), (np.float32, 1e-4)):
            ta = Tensor(a.astype(dtype, copy=False), requires_grad=True)
            tb = Tensor(b.astype(dtype), requires_grad=True)
            build(ta, tb).backward()
            for t, num in ((ta, num_a), (tb, num_b)):
                assert t.grad.shape == t.shape and t.grad.dtype == dtype
                assert np.allclose(t.grad, num, rtol=tol, atol=tol), (a.shape, dtype)


def test_matmul_weight_grad_allocates_no_per_row_stack():
    import tracemalloc
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(256, 2, 64)), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    loss = tc.sum(tc.matmul(a, w))
    stack_bytes = 256 * 64 * 64 * 8  # a (N, d, k) stack of per-row-block products
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == (64, 64)
    assert np.allclose(w.grad, a.data.reshape(-1, 64).sum(axis=0)[:, None])
    assert peak < stack_bytes / 4, peak


def _composed_linear(x: Tensor, w, b=None) -> Tensor:
    """Reference: x @ w + b through the plain 2-D matmul and separate nodes."""
    d, k = w.shape
    out = tc.reshape(tc.matmul(tc.reshape(x, (-1, d)), w), x.shape[:-1] + (k,))
    return out if b is None else out + b


def _linear_inputs(rng):
    """2-D and 3-D x, and the non-contiguous time-major view of an (N, T, d)
    array that the graph attention stage multiplies."""
    return (rng.normal(size=(5, 4)), rng.normal(size=(3, 5, 4)),
            rng.normal(size=(5, 3, 4)).transpose(1, 0, 2))


def test_linear_equals_matmul_plus_bias():
    rng = np.random.default_rng(9)
    w, b = rng.normal(size=(4, 6)), rng.normal(size=6)
    for x in _linear_inputs(rng):
        for dtype in (np.float32, np.float64):
            args = [Tensor(v.astype(dtype)) for v in (x, w, b)]
            for bias in (args[2], None):
                fused = tc.linear(args[0], args[1], bias).data
                assert fused.dtype == dtype and fused.shape == x.shape[:-1] + (6,)
                assert np.array_equal(fused, _composed_linear(args[0], args[1], bias).data)
        if x.ndim == 2:
            assert np.array_equal(tc.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                                  (tc.matmul(Tensor(x), Tensor(w)) + Tensor(b)).data)


def test_linear_grads_match_finite_differences():
    rng = np.random.default_rng(10)
    w, b = rng.normal(size=(4, 6)), rng.normal(size=6)
    for x in _linear_inputs(rng):
        upstream = rng.normal(size=x.shape[:-1] + (6,))
        arrays = [x.copy(), w, b]

        def loss(values):
            return float(tc.sum(tc.linear(*[Tensor(v) for v in values]) * upstream).data)

        tensors = [Tensor(v, requires_grad=True) for v in arrays]
        tc.sum(tc.linear(*tensors) * upstream).backward()
        for i, t in enumerate(tensors):
            def scalar_fn(arr, i=i):
                return loss(arrays[:i] + [arr] + arrays[i + 1:])
            num = numeric_grad(scalar_fn, arrays[i].copy())
            assert t.grad.shape == arrays[i].shape
            assert np.allclose(t.grad, num, rtol=1e-7, atol=1e-7), (x.shape, i)


def test_linear_rejects_mismatched_inner_dimension():
    with pytest.raises(ShapeError, match="linear"):
        tc.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 6))))
    with pytest.raises(ShapeError, match="linear"):
        tc.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 6))), Tensor(np.ones(5)))


def test_linear_allocates_one_tensor(monkeypatch):
    from tcgpn.tensorcore import memory
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    sizes = []
    note_alloc = memory.note_alloc
    monkeypatch.setattr(memory, "note_alloc", lambda nbytes: (sizes.append(nbytes), note_alloc(nbytes)))
    for bias in (b, None):
        sizes.clear()
        tc.linear(x, w, bias)
        assert sizes == [5 * 3 * 6 * 8]


def test_concat_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3))

    def build(t):
        c = tc.concat([t, t * 2.0], axis=1)
        return tc.sum(c * c)

    grad, _ = analytic_grad(build, x)
    num = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x.copy())
    assert np.allclose(grad, num, rtol=1e-5, atol=1e-7)


def _self_attention(t: Tensor, decay: np.ndarray, heads: int) -> Tensor:
    """tc.attention of a (2, 3) tensor over itself as one node's (S=T=2, d=3) rows."""
    rows = tc.reshape(t, (1, 2, 3))
    return tc.reshape(tc.attention(rows, rows, rows, decay, heads)[0], (2, 3))


def test_decay_softmax_and_masked_select_route_gradients():
    rng = np.random.default_rng(13)
    q = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    decay = np.array([[0.5, 0.0, 2.0], [1.0, 0.0, 0.0]])  # key 1 has zero weight in every row
    out, weights = tc.attention(q, k, v, decay, 2)
    tc.sum(out * rng.normal(size=out.shape)).backward()
    assert np.all(weights.data[..., decay == 0] == 0.0)
    for grad in (k.grad, v.grad):  # exactly zero, not rounding noise
        assert np.all(grad[:, 1] == 0.0) and np.all(grad[:, [0, 2]] != 0.0)
    assert np.all(q.grad[:, 0] != 0.0)

    x = Tensor(np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0]]), requires_grad=True)
    mask = np.array([[True, False, True], [False, True, True]])
    tc.sum(tc.masked_select(x * x, mask)).backward()
    expected = np.where(mask, 2 * x.data, 0.0)
    assert np.array_equal(x.grad, expected)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        q, k = (Tensor(rng.normal(size=(2, m, 6)).astype(dtype) * 10) for m in (5, 7))
        out, weights = tc.attention(q, k, Tensor(np.ones((2, 7, 6), dtype=dtype)), np.ones((5, 7)), 3)
        assert weights.shape == (2, 3, 5, 7) and weights.data.dtype == dtype
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=tol)
        assert np.allclose(out.data, 1.0, atol=tol)  # each row averages all-ones values


def _decay_softmax_node(scores: Tensor, decay: np.ndarray) -> Tensor:
    """Reference: the decay softmax as one node with the closed-form vjp
    y (g - sum(g y)), the form tc.attention's arithmetic reproduces."""
    decay = np.asarray(decay)
    y = np.where(decay > 0, scores.data, scores.data.dtype.type(-np.inf))
    y -= np.max(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y *= decay.astype(scores.data.dtype)
    y /= y.sum(axis=-1, keepdims=True)
    return tensor_mod._result(y, (scores,), (lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def _six_node_decay_softmax(scores: Tensor, decay: np.ndarray) -> Tensor:
    """Reference: the decay softmax composed from single-purpose nodes
    (constant-mask select, sub, exp, mul, sum, div)."""
    keep = decay > 0
    selected = np.where(keep, scores.data, scores.data.dtype.type(-np.inf))
    shifted = tensor_mod._result(selected, (scores,), (lambda g: g * keep,))
    row_max = np.max(shifted.data, axis=-1, keepdims=True)
    centred = shifted - row_max
    exps = np.exp(centred.data)
    e = tensor_mod._result(exps, (centred,), (lambda g: g * exps,))
    num = e * decay.astype(scores.data.dtype)
    den = tc.sum(num, axis=-1, keepdims=True)
    return num / den


def composed_attention(q, k, v, decay: np.ndarray, heads: int, softmax=_decay_softmax_node):
    """Reference: tc.attention composed from single-purpose nodes, as the
    model built it before: head splits, key transpose, matmul, scale,
    decay softmax, matmul and the head merge."""
    n, s, d = q.shape
    dk = d // heads

    def split_heads(y):
        return tc.transpose(tc.reshape(y, (n, y.shape[1], heads, dk)), (0, 2, 1, 3))

    scores = tc.matmul(split_heads(q), tc.transpose(split_heads(k), (0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    weights = softmax(scores, decay)
    mixed = tc.matmul(weights, split_heads(v))
    return tc.reshape(tc.transpose(mixed, (0, 2, 1, 3)), (n, s, d)), weights


def _attention_cases(rng):
    """(n, s, t, d, heads, decay) as the model uses them: the encoder's causal
    decay over S = T steps, shared by every node, and the temporal decoder's
    per-node (N, 1, S, T) rows for S < T query steps."""
    i, j = np.arange(7)[:, None], np.arange(7)[None, :]
    causal = np.where(j > i, 0.0, np.exp(-((j - i) ** 2) / 4.5))
    steps = np.sort(np.stack([rng.choice(7, size=3, replace=False) for _ in range(4)]), axis=1)
    steps[0] = (1, 4, 6)  # one node queries the last step
    return [(3, 7, 7, 8, 2, causal), (4, 3, 7, 6, 3, causal[steps][:, None])]


def _attention_inputs(rng, n, s, t, d, dtype):
    return [(rng.normal(size=shape) * 2).astype(dtype) for shape in ((n, s, d), (n, t, d), (n, t, d))]


def test_attention_equals_its_composition_bitwise():
    rng = np.random.default_rng(21)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        for dtype in (np.float32, np.float64):
            arrays = _attention_inputs(rng, n, s, t, d, dtype)
            upstream = rng.normal(size=(n, s, d)).astype(dtype)
            results = []
            for attention in (tc.attention, composed_attention):
                inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                out, weights = attention(*inputs, decay, heads)
                tc.sum(out * upstream).backward()
                results.append([out.data, weights.data] + [x.grad for x in inputs])
            assert results[0][0].dtype == dtype and results[0][1].shape == (n, heads, s, t)
            for fused, composed in zip(*results):
                assert fused.shape == composed.shape and np.array_equal(fused, composed), (s, t, dtype)


def test_decay_softmax_equals_six_node_composition():
    rng = np.random.default_rng(22)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        for dtype in (np.float32, np.float64):
            inputs = [Tensor(a) for a in _attention_inputs(rng, n, s, t, d, dtype)]
            fused, weights = tc.attention(*inputs, decay, heads)
            six_node, six_node_weights = composed_attention(*inputs, decay, heads, _six_node_decay_softmax)
            assert np.array_equal(fused.data, six_node.data) and np.array_equal(weights.data, six_node_weights.data)

        arrays = _attention_inputs(rng, n, s, t, d, np.float64)
        upstream = rng.normal(size=(n, s, d))
        grads = []
        for attention in (tc.attention, lambda *a: composed_attention(*a, _six_node_decay_softmax)):
            inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            tc.sum(attention(*inputs, decay, heads)[0] * upstream).backward()
            grads.append([x.grad for x in inputs])
        for fused, composed in zip(*grads):
            assert np.abs(fused - composed).max() < 1e-12


def test_decay_softmax_zero_weight_scores_cannot_move_output():
    """Moving the last step's key and value (zero weight for every earlier
    query step) leaves those rows bit for bit as they were."""
    rng = np.random.default_rng(23)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        q, k, v = _attention_inputs(rng, n, s, t, d, np.float32)
        base, weights = tc.attention(Tensor(q), Tensor(k), Tensor(v), decay, heads)
        rows = np.broadcast_to(decay, weights.shape)[..., -1] == 0  # (N, H, S) query rows before step T-1
        moved_k, moved_v = k.copy(), v.copy()
        moved_k[:, -1] += rng.normal(0, 100, size=(n, d)).astype(np.float32)
        moved_v[:, -1] += rng.normal(0, 100, size=(n, d)).astype(np.float32)
        out = tc.attention(Tensor(q), Tensor(moved_k), Tensor(moved_v), decay, heads)[0]
        unmoved = rows.all(axis=1)  # (N, S): no head gives the last step weight
        assert unmoved.any() and not unmoved.all()
        assert np.all(weights.data[..., -1][rows] == 0.0)
        assert np.array_equal(out.data[unmoved], base.data[unmoved])
        assert not np.array_equal(out.data[~unmoved], base.data[~unmoved])


def test_attention_keeps_only_its_weights_counted():
    rng = np.random.default_rng(26)
    q, k, v = (Tensor(a, requires_grad=True) for a in _attention_inputs(rng, 3, 4, 6, 8, np.float64))
    before = memory.live_bytes()
    out, weights = tc.attention(q, k, v, np.ones((4, 6)), 2)
    held = 3 * 2 * 4 * 6 * 8
    assert weights.data.nbytes == held
    assert memory.live_bytes() - before == out.data.nbytes + held
    del weights  # the node still holds them, still counted
    assert memory.live_bytes() - before == out.data.nbytes + held
    loss = tc.sum(out)
    loss.backward()
    assert q.grad.shape == (3, 4, 8) and k.grad.shape == v.grad.shape == (3, 6, 8)
    assert memory.live_bytes() - before == out.data.nbytes + held + loss.data.nbytes
    del out, loss
    assert memory.live_bytes() == before


def test_attention_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="attention"):
        tc.attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5, 6))),
                     np.ones((3, 5)), 2)
    with pytest.raises(ShapeError, match="attention"):  # d = 4 does not split into 3 heads
        tc.attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5, 4))),
                     np.ones((3, 5)), 3)
    with pytest.raises(ShapeError, match="attention"):
        tc.attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5, 4))),
                     np.ones((5, 3)), 2)


def _dense_edge_softmax(e: Tensor, keep: np.ndarray, slope: float) -> Tensor:
    """Reference: graph attention over every (i, j) pair, as the GAT ran it
    before edge_softmax (transpose, add, leaky_relu, decay softmax(keep))."""
    src = tc.matmul(e, np.array([[1.0], [0.0]]))  # (T, N, 1); exact, it adds zeros
    dst = tc.transpose(tc.matmul(e, np.array([[0.0], [1.0]])), (0, 2, 1))  # (T, 1, N)
    return _decay_softmax_node(tc.leaky_relu(src + dst, slope), keep)


def test_edge_softmax_equals_dense_composition():
    rng = np.random.default_rng(24)
    keep = (rng.uniform(size=(7, 7)) < 0.3) | np.eye(7, dtype=bool)
    keep[2] = np.arange(7) == 2  # a row with only its self-loop
    assert not np.array_equal(keep, keep.T)
    shape = (4, 7, 2)
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        raw = (rng.normal(size=shape) * 3).astype(dtype)
        edge = tc.edge_softmax(Tensor(raw), keep, 0.2).data
        assert edge.dtype == dtype and edge.shape == (4, 7, 7)
        assert np.all(edge[:, ~keep] == 0.0)  # exactly zero, not rounding noise
        assert np.abs(edge - _dense_edge_softmax(Tensor(raw), keep, 0.2).data).max() < tol

    raw = rng.normal(size=shape) * 3
    upstream = rng.normal(size=(4, 7, 7))
    grads = []
    for softmax in (tc.edge_softmax, _dense_edge_softmax):
        e = Tensor(raw.copy(), requires_grad=True)
        tc.sum(softmax(e, keep, 0.2) * upstream).backward()
        grads.append(e.grad)
    assert grads[0].shape == shape
    assert np.abs(grads[0] - grads[1]).max() < 1e-12


def test_edge_softmax_rejects_row_without_kept_entry():
    keep = np.eye(3, dtype=bool)
    keep[1, 1] = False
    with pytest.raises(ValueError, match="row 1"):
        tc.edge_softmax(Tensor(np.zeros((2, 3, 2))), keep, 0.2)
    with pytest.raises(ShapeError, match="edge_softmax"):
        tc.edge_softmax(Tensor(np.zeros((2, 3, 1))), np.eye(3, dtype=bool), 0.2)


def _nine_node_layer_norm(x: Tensor, eps: float, gamma, beta) -> Tensor:
    """Reference: layer norm composed from single-purpose nodes (mean, sub,
    mul, mean, add, sqrt, div, mul, add)."""
    mu = tc.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = tc.mean(centered * centered, axis=-1, keepdims=True)
    shifted = var + eps
    root = np.sqrt(shifted.data)
    std = tensor_mod._result(root, (shifted,), (lambda g: g * (0.5 / root),))
    return (centered / std) * gamma + beta


def test_normalize_equals_nine_node_composition():
    rng = np.random.default_rng(23)
    for shape in ((3, 5, 16), (4, 7)):
        d = shape[-1]
        for dtype in (np.float32, np.float64):
            raw = (rng.normal(size=shape) * 3 + 1).astype(dtype)
            gamma = Tensor(rng.normal(size=d).astype(dtype))
            beta = Tensor(rng.normal(size=d).astype(dtype))
            fused = tc.normalize(Tensor(raw), 1e-5, gamma, beta).data
            assert fused.dtype == dtype
            assert np.array_equal(fused, _nine_node_layer_norm(Tensor(raw), 1e-5, gamma, beta).data)

        raw = rng.normal(size=shape) * 3 + 1
        upstream = rng.normal(size=shape)
        grads = []
        for layer_norm in (tc.normalize, _nine_node_layer_norm):
            x = Tensor(raw.copy(), requires_grad=True)
            gamma = Tensor(np.linspace(0.5, 1.5, d), requires_grad=True)
            beta = Tensor(np.zeros(d), requires_grad=True)
            tc.sum(layer_norm(x, 1e-5, gamma, beta) * upstream).backward()
            grads.append((x.grad, gamma.grad, beta.grad))
        for fused_grad, composed_grad in zip(*grads):
            assert np.abs(fused_grad - composed_grad).max() < 1e-12


def test_affine_normalize_keeps_only_its_output():
    import tracemalloc
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(64, 30, 32)), requires_grad=True)
    gamma = Tensor(rng.normal(size=32), requires_grad=True)
    beta = Tensor(rng.normal(size=32), requires_grad=True)
    tracemalloc.start()
    try:
        out = tc.normalize(x, 1e-5, gamma, beta)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 1.25 * out.data.nbytes, live
    tc.sum(out).backward()
    assert x.grad.shape == x.shape and gamma.grad.shape == beta.grad.shape == (32,)


def test_grad_accumulates_across_reuse():
    p = Tensor(np.array([2.0]), requires_grad=True)
    loss = tc.sum(p * p + p * 3.0)
    loss.backward()
    assert np.allclose(p.grad, [2 * 2.0 + 3.0])


def test_second_backward_doubles_leaf_grads_and_releases_intermediates():
    p = Tensor(np.array([2.0]), requires_grad=True)
    square = p * p
    scaled = square * 3.0
    loss = tc.sum(scaled)
    loss.backward()
    assert np.array_equal(p.grad, [12.0])
    assert square.grad is None and scaled.grad is None and loss.grad is None
    loss.backward()
    assert np.array_equal(p.grad, [24.0])
    assert square.grad is None and scaled.grad is None and loss.grad is None


def test_no_grad_prunes_graph():
    p = Tensor(np.ones(2), requires_grad=True)
    with tc.no_grad():
        out = p * 2.0
    assert not out.requires_grad
    tc.sum(out * p).backward()  # only the edge to p built outside no_grad carries a gradient
    assert np.array_equal(p.grad, [2.0, 2.0])


def test_dropped_pre_activation_leaves_live_bytes_with_unchanged_grads():
    import gc
    rng = np.random.default_rng(31)
    raw_x, raw_w = rng.normal(size=(50, 40)), rng.normal(size=(40, 30))
    grads = []
    for drop in (False, True):
        x, w = Tensor(raw_x.copy(), requires_grad=True), Tensor(raw_w.copy(), requires_grad=True)
        pre = tc.linear(x, w)
        out = tc.relu(pre)
        if drop:
            gc.disable()  # the buffer must go by reference counting alone
            try:
                before = memory.live_bytes()
                del pre
                assert memory.live_bytes() == before - raw_x.shape[0] * raw_w.shape[1] * 8
            finally:
                gc.enable()
        tc.sum(out * out).backward()
        grads.append((x.grad, w.grad))
    for kept, dropped in zip(*grads):
        assert np.array_equal(kept, dropped)


def test_forward_backward_reports_only_touched_paths():
    store = ParamStore(seed=0)
    a = store.add("a", (2,), "fan_in")
    store.add("b", (2,), "fan_in")

    loss, grads = forward_backward(lambda s: tc.sum(s["a"] * s["a"]), store)
    assert set(grads) == {"a"}
    assert np.allclose(grads["a"], 2 * a.data)


def test_dtype_preserved_through_ops():
    x = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2), requires_grad=True)
    y = tc.mean(tc.normalize(x + 1.0, 1e-5) * x * 2.0 + 1.0)
    assert y.data.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32


def test_memory_counter_tracks_live_tensors():
    from tcgpn.tensorcore import memory
    import gc
    gc.collect()
    before = memory.live_bytes()
    memory.reset_peak()
    keep = Tensor(np.zeros(1000, dtype=np.float64))
    assert memory.live_bytes() >= before + 8000
    assert memory.peak_bytes() >= before + 8000
    del keep
    gc.collect()
    assert memory.live_bytes() <= before + 100


def test_failed_construction_is_collected_silently(monkeypatch):
    from tcgpn.tensorcore import memory
    import gc
    import sys
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    before = memory.live_bytes()
    try:
        Tensor("not a number")
    except ValueError:
        pass
    gc.collect()
    assert unraisable == []
    assert memory.live_bytes() == before
