"""Autodiff primitives: values, exact VJPs, shape errors."""

import numpy as np
import pytest

from tcgpn import tensorcore as tc
from tcgpn.tensorcore import ParamStore, ShapeError, Tensor, forward_backward
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
    ("softmax", lambda t: tc.sum(tc.decay_softmax(t, np.ones(t.shape)) * t)),
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


def test_decay_softmax_and_masked_select_route_gradients():
    x = Tensor(np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0]]), requires_grad=True)
    mask = np.array([[True, False, True], [False, True, True]])
    weights = np.where(mask, [[0.5, 1.0, 2.0]], 0.0)
    tc.sum(tc.decay_softmax(x, weights) * np.array([1.0, 2.0, 3.0])).backward()
    assert np.all(x.grad[~mask] == 0.0)  # exactly zero, not rounding noise
    assert np.all(x.grad[mask] != 0.0)

    x.grad = None
    tc.sum(tc.masked_select(x * x, mask)).backward()
    expected = np.where(mask, 2 * x.data, 0.0)
    assert np.array_equal(x.grad, expected)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        x = Tensor(rng.normal(size=(5, 7)).astype(dtype) * 10)
        y = tc.decay_softmax(x, np.ones((5, 7)))
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=tol)


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


def _attention_cases(rng):
    """(scores shape, decay) pairs as the encoder uses them: a causal decay
    over time broadcast across nodes and heads, and a boolean neighbour mask
    broadcast across time steps."""
    i, j = np.arange(6)[:, None], np.arange(6)[None, :]
    causal = np.where(j > i, 0.0, np.exp(-((j - i) ** 2) / 4.5))
    neighbours = rng.uniform(size=(5, 1, 5)) < 0.5
    neighbours |= np.eye(5, dtype=bool)[:, None, :]
    return [((3, 2, 6, 6), causal), ((5, 4, 5), neighbours)]


def test_decay_softmax_equals_six_node_composition():
    rng = np.random.default_rng(21)
    for shape, decay in _attention_cases(rng):
        for dtype in (np.float32, np.float64):
            raw = (rng.normal(size=shape) * 3).astype(dtype)
            fused = tc.decay_softmax(Tensor(raw), decay).data
            assert fused.dtype == dtype
            assert np.array_equal(fused, _six_node_decay_softmax(Tensor(raw), decay).data)

        raw = rng.normal(size=shape) * 3
        upstream = rng.normal(size=shape)
        grads = []
        for softmax in (tc.decay_softmax, _six_node_decay_softmax):
            x = Tensor(raw.copy(), requires_grad=True)
            tc.sum(softmax(x, decay) * upstream).backward()
            grads.append(x.grad)
        assert np.abs(grads[0] - grads[1]).max() < 1e-12


def test_decay_softmax_zero_weight_scores_cannot_move_output():
    rng = np.random.default_rng(22)
    for shape, decay in _attention_cases(rng):
        raw = rng.normal(size=shape).astype(np.float32)
        base = tc.decay_softmax(Tensor(raw), decay).data
        dropped = np.broadcast_to(decay <= 0, shape)
        moved = raw.copy()
        moved[dropped] += rng.normal(0, 100, size=int(dropped.sum())).astype(np.float32)
        assert np.array_equal(tc.decay_softmax(Tensor(moved), decay).data, base)
        assert np.all(base[dropped] == 0.0)


def _dense_edge_softmax(e: Tensor, keep: np.ndarray, slope: float) -> Tensor:
    """Reference: graph attention over every (i, j) pair, as the GAT ran it
    before edge_softmax (transpose, add, leaky_relu, decay_softmax(keep))."""
    src = tc.matmul(e, np.array([[1.0], [0.0]]))  # (T, N, 1); exact, it adds zeros
    dst = tc.transpose(tc.matmul(e, np.array([[0.0], [1.0]])), (0, 2, 1))  # (T, 1, N)
    return tc.decay_softmax(tc.leaky_relu(src + dst, slope), keep)


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
    assert not out.requires_grad and out._parents == ()


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
