"""Autodiff primitives: values, exact VJPs, shape errors."""

import itertools
import math

import numpy as np
import pytest

from tcgpn import tensorcore as tc
from tcgpn.model import gaussian_mask
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


def _finite_difference_input() -> np.ndarray:
    return np.random.default_rng(3).normal(size=(2, 3)) + 0.1


def _graph_attention_case(t: Tensor) -> Tensor:
    """Two heads of width 2 over 3 nodes, one step: row 1 keeps only its
    self-loop, column 2 nothing."""
    return tc.graph_attention(
        [tc.reshape(t, (1, 3, 2)), tc.reshape(t * t - 1.0, (1, 3, 2))],
        [tc.reshape(t, (1, 3, 2)) * 0.5, tc.reshape(tc.transpose(t, (1, 0)), (1, 3, 2))],
        np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0]], dtype=bool), 0.2)


def test_graph_attention_case_probes_both_sides_of_its_leaky_relu():
    """The finite-difference case above reaches both branches of the output
    LeakyReLU in every head, away from the kink: the output has the sign of
    the pre-activation, and each head's columns hold both signs."""
    out = _graph_attention_case(Tensor(_finite_difference_input())).data
    assert out.shape == (3, 1, 4)
    for head in (out[..., :2], out[..., 2:]):
        assert (head > 0.01).any() and (head < -0.01).any()


def _feed_forward_case(t: Tensor) -> list[Tensor]:
    """x, w1, b1, w2 and b2 of a feed-forward with 2 hidden units, each made
    from the (2, 3) input, so every vjp is probed."""
    return [t, tc.reshape(t, (3, 2)), tc.sum(t, axis=1), t, tc.mean(t, axis=0)]


def test_feed_forward_case_probes_both_sides_of_its_relu():
    """The finite-difference case above gives each hidden unit one positive
    and one negative pre-activation, away from the kink."""
    x, w1, b1, _, _ = (t.data for t in _feed_forward_case(Tensor(_finite_difference_input())))
    pre = x @ w1 + b1
    assert pre.shape == (2, 2)
    assert np.all((pre > 0.1).any(axis=0)) and np.all((pre < -0.1).any(axis=0))


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
    ("feed_forward", lambda t: tc.sum(tc.feed_forward(*_feed_forward_case(t)) * np.array([1.0, -2.0, 0.5]))),
    ("softmax", lambda t: tc.sum(_self_attention(t, np.ones((2, 2)), 1) * t)),
    ("attention", lambda t: tc.sum(_self_attention(t, np.array([[1.0, 0.0], [0.5, 1.0]]), 3) * t)),
    ("mean", lambda t: tc.mean(t * t)),
    ("div", lambda t: tc.sum(t / (t * t + 1.0))),
    ("transpose", lambda t: tc.sum(tc.transpose(t, (1, 0)) @ t)),
    ("reshape", lambda t: tc.sum(tc.reshape(t, (6,)) * tc.reshape(t, (6,)))),
    ("graph_attention", lambda t: tc.sum(_graph_attention_case(t) * np.arange(12.0).reshape(3, 1, 4))),
])
def test_elementwise_vjps_match_finite_differences(op, build):
    x = _finite_difference_input()
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


def _relu(z: Tensor) -> Tensor:
    """ReLU as a product with its constant sign mask, which is exact."""
    return tc.mul(z, z.data > 0)


def composed_feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """Reference: tc.feed_forward as the model built it before, a linear, a
    ReLU and a linear, with tc.linear looked up per call."""
    return tc.linear(_relu(tc.linear(x, w1, b1)), w2, b2)


def _subsets(size: int):
    """Every non-empty subset of range(size), as tuples."""
    return [c for r in range(1, size + 1) for c in itertools.combinations(range(size), r)]


def test_feed_forward_equals_its_composition_bitwise():
    """Output and every gradient, over two backwards, equal those of the
    linear, ReLU and linear chain bit for bit in float32 and float64, for 2-D
    and 3-D x and a non-contiguous time-major view, and for every subset of
    the five inputs that needs a gradient."""
    rng = np.random.default_rng(33)
    weights = [rng.normal(size=shape) for shape in ((4, 6), (6,), (6, 5), (5,))]
    for x in _linear_inputs(rng):
        upstream = rng.normal(size=x.shape[:-1] + (5,))
        for dtype in (np.float32, np.float64):
            arrays = [a.astype(dtype) for a in (x, *weights)]
            pre = arrays[0] @ arrays[1] + arrays[2]
            assert (pre > 0.1).any() and (pre < -0.1).any()  # both sides of the ReLU
            with tc.no_grad():
                plain = [ff(*[Tensor(a) for a in arrays]).data for ff in (tc.feed_forward, composed_feed_forward)]
            assert plain[0].dtype == dtype and np.array_equal(*plain)
            for subset in _subsets(5):
                results = []
                for ff in (tc.feed_forward, composed_feed_forward):
                    inputs = [Tensor(a, requires_grad=i in subset) for i, a in enumerate(arrays)]
                    out = ff(*inputs)
                    loss = tc.sum(out * upstream.astype(dtype))
                    loss.backward()
                    first = [None if t.grad is None else t.grad.copy() for t in inputs]
                    loss.backward()
                    results.append([out.data, *first, *[t.grad for t in inputs]])
                for fused, composed in zip(*results):
                    assert (fused is None) == (composed is None), (x.shape, dtype, subset)
                    assert fused is None or (fused.dtype == dtype and np.array_equal(fused, composed)), subset


def test_feed_forward_keeps_its_input_not_the_hidden_layer_counted():
    """The node keeps x and the weights, not the (rows, h) hidden layer: the
    forward counts it only while it lives, under no_grad too, and backward
    rebuilds it as a counted Tensor that goes once the hidden gradient, a
    counted Tensor freed after the last vjp, takes its place."""
    rng = np.random.default_rng(34)
    x, w1, b1, w2, b2 = (Tensor(rng.normal(size=shape), requires_grad=True)
                         for shape in ((3, 5, 4), (4, 6), (6,), (6, 5), (5,)))
    hidden = 3 * 5 * 6 * 8  # above the (3, 5, 5) output, which is counted once the hidden layer is gone
    before = memory.live_bytes()
    for grad in (False, True):
        memory.reset_peak()
        if grad:
            out = tc.feed_forward(x, w1, b1, w2, b2)
        else:
            with tc.no_grad():
                out = tc.feed_forward(x, w1, b1, w2, b2)
        assert memory.peak_bytes() - before == hidden
        assert memory.live_bytes() - before == out.data.nbytes
        if not grad:
            del out
    loss = tc.sum(out)
    memory.reset_peak()
    loss.backward()
    assert x.grad.shape == x.shape and w2.grad.shape == (6, 5)
    assert memory.peak_bytes() - before == out.data.nbytes + loss.data.nbytes + hidden  # rebuilt
    assert memory.live_bytes() - before == out.data.nbytes + loss.data.nbytes


def test_feed_forward_rejects_mismatched_shapes():
    x = Tensor(np.ones((2, 3, 4)))
    good = [np.ones((4, 6)), np.ones(6), np.ones((6, 5)), np.ones(5)]
    assert tc.feed_forward(x, *good).shape == (2, 3, 5)
    for i, bad in ((0, np.ones((5, 6))), (0, np.ones(4)), (1, np.ones(5)), (2, np.ones((5, 5))), (3, np.ones(6))):
        with pytest.raises(ShapeError, match="feed_forward"):
            tc.feed_forward(x, *good[:i], bad, *good[i + 1:])


def _self_attention(t: Tensor, decay: np.ndarray, heads: int) -> Tensor:
    """tc.attention of a (2, 3) tensor over itself as one node's (S=T=2, d=3)
    rows, through identity projections, which are exact."""
    rows, eye = tc.reshape(t, (1, 2, 3)), np.eye(3)
    return tc.reshape(tc.attention(rows, rows, eye, None, eye, eye, None, decay, heads)[0], (2, 3))


def test_decay_softmax_and_masked_select_route_gradients():
    rng = np.random.default_rng(13)
    q_in = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    decay = np.array([[0.5, 0.0, 2.0], [1.0, 0.0, 0.0]])  # key 1 has zero weight in every row
    out, weights = tc.attention(q_in, x, wq, None, wk, wv, None, decay, 2)
    tc.sum(out * rng.normal(size=out.shape)).backward()
    assert np.all(weights.data[..., decay == 0] == 0.0)
    # exactly zero, not rounding noise: step 1 of x makes only key 1 and its value
    assert np.all(x.grad[:, 1] == 0.0) and np.all(x.grad[:, [0, 2]] != 0.0)
    assert np.all(q_in.grad[:, 0] != 0.0)

    x = Tensor(np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0]]), requires_grad=True)
    mask = np.array([[True, False, True], [False, True, True]])
    tc.sum(tc.masked_select(x * x, mask)).backward()
    expected = np.where(mask, 2 * x.data, 0.0)
    assert np.array_equal(x.grad, expected)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        q_in, x = (Tensor(rng.normal(size=(2, m, 6)).astype(dtype) * 10) for m in (5, 7))
        eye, ones = np.eye(6, dtype=dtype), np.ones(6, dtype=dtype)
        # q = q_in and k = x through identity projections; v = x 0 + 1 is all ones
        out, weights = tc.attention(q_in, x, eye, None, eye, 0 * eye, ones, np.ones((5, 7)), 3)
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


def composed_attention(q_in, x, wq, bq, wk, wv, bv, decay: np.ndarray, heads: int, softmax=_decay_softmax_node):
    """Reference: tc.attention composed from single-purpose nodes, as the
    model built it before: the query, key and value projections by tc.linear
    (looked up per call), head splits, key transpose, matmul, scale, decay
    softmax, matmul and the head merge."""
    q, k, v = tc.linear(q_in, wq, bq), tc.linear(x, wk), tc.linear(x, wv, bv)
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
    """q_in (N, S, d), x (N, T, d), wq, bq, wk, wv and bv: q, k and v come out
    about as large as 2 N(0, 1) entries."""
    inputs = [rng.normal(size=shape) * 2 for shape in ((n, s, d), (n, t, d))]
    wq, bq, wk, wv, bv = (rng.normal(size=shape) / math.sqrt(len(shape) * d)
                          for shape in ((d, d), (d,), (d, d), (d, d), (d,)))
    return [a.astype(dtype) for a in (*inputs, wq, bq, wk, wv, bv)]


def _attention_args(inputs, s, t):
    """tc.attention's seven inputs; with S = T the queries come from x, as in an encoder block."""
    return [inputs[1], *inputs[1:]] if s == t else list(inputs)


def test_attention_equals_its_composition_bitwise():
    rng = np.random.default_rng(21)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        for dtype in (np.float32, np.float64):
            arrays = _attention_inputs(rng, n, s, t, d, dtype)
            upstream = rng.normal(size=(n, s, d)).astype(dtype)
            results = []
            for attention in (tc.attention, composed_attention):
                args = _attention_args([Tensor(a.copy(), requires_grad=True) for a in arrays], s, t)
                out, weights = attention(*args, decay, heads)
                tc.sum(out * upstream).backward()
                results.append([out.data, weights.data] + [x.grad for x in args])
            assert results[0][0].dtype == dtype and results[0][1].shape == (n, heads, s, t)
            for fused, composed in zip(*results):
                assert fused.shape == composed.shape and np.array_equal(fused, composed), (s, t, dtype)


def test_decay_softmax_equals_six_node_composition():
    rng = np.random.default_rng(22)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        for dtype in (np.float32, np.float64):
            args = _attention_args([Tensor(a) for a in _attention_inputs(rng, n, s, t, d, dtype)], s, t)
            fused, weights = tc.attention(*args, decay, heads)
            six_node, six_node_weights = composed_attention(*args, decay, heads, _six_node_decay_softmax)
            assert np.array_equal(fused.data, six_node.data) and np.array_equal(weights.data, six_node_weights.data)

        arrays = _attention_inputs(rng, n, s, t, d, np.float64)
        upstream = rng.normal(size=(n, s, d))
        grads = []
        for attention in (tc.attention, lambda *a: composed_attention(*a, _six_node_decay_softmax)):
            args = _attention_args([Tensor(a.copy(), requires_grad=True) for a in arrays], s, t)
            tc.sum(attention(*args, decay, heads)[0] * upstream).backward()
            grads.append([x.grad for x in args])
        for fused, composed in zip(*grads):
            assert np.abs(fused - composed).max() < 1e-12


def test_decay_softmax_zero_weight_scores_cannot_move_output():
    """Moving the last step of x, and with it that step's key and value (zero
    weight for every earlier query step), leaves those rows bit for bit as
    they were."""
    rng = np.random.default_rng(23)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        q_in, x, *projections = _attention_inputs(rng, n, s, t, d, np.float32)
        projections = [Tensor(a) for a in projections]
        base, weights = tc.attention(Tensor(q_in), Tensor(x), *projections, decay, heads)
        rows = np.broadcast_to(decay, weights.shape)[..., -1] == 0  # (N, H, S) query rows before step T-1
        moved = x.copy()
        moved[:, -1] += rng.normal(0, 100, size=(n, d)).astype(np.float32)
        out = tc.attention(Tensor(q_in), Tensor(moved), *projections, decay, heads)[0]
        unmoved = rows.all(axis=1)  # (N, S): no head gives the last step weight
        assert unmoved.any() and not unmoved.all()
        assert np.all(weights.data[..., -1][rows] == 0.0)
        assert np.array_equal(out.data[unmoved], base.data[unmoved])
        assert not np.array_equal(out.data[~unmoved], base.data[~unmoved])


def test_attention_keeps_row_stats_not_weights_counted():
    """The node keeps its inputs and each row's softmax max and sum, not q,
    k, v or the weights: those are rebuilt in backward as counted Tensors,
    v only until the scores gradient the q vjp hands to the k vjp is made,
    and all are freed after the last vjp."""
    rng = np.random.default_rng(26)
    inputs = [Tensor(a, requires_grad=True) for a in _attention_inputs(rng, 3, 4, 6, 8, np.float64)]
    before = memory.live_bytes()
    out, weights = tc.attention(*inputs, np.ones((4, 6)), 2)
    held, stats = 3 * 2 * 4 * 6 * 8, 3 * 2 * 4 * 2 * 8  # (N, H, S, T) weights, (N, H, S, 2) max and sum
    q_bytes, kv_bytes = 3 * 4 * 8 * 8, 3 * 6 * 8 * 8  # q (N, S, d); k and v (N, T, d)
    assert weights.data.nbytes == held
    assert memory.live_bytes() - before == out.data.nbytes + held + stats
    del weights  # the caller's copy goes, and nothing else holds them
    assert memory.live_bytes() - before == out.data.nbytes + stats
    loss = tc.sum(out)
    memory.reset_peak()
    loss.backward()
    assert inputs[0].grad.shape == (3, 4, 8) and inputs[1].grad.shape == (3, 6, 8)
    # rebuilt q, k and weights, and v until the scores gradient takes its place
    rebuilt = q_bytes + kv_bytes + held + max(kv_bytes, held)
    assert memory.peak_bytes() - before == out.data.nbytes + stats + loss.data.nbytes + rebuilt
    assert memory.live_bytes() - before == out.data.nbytes + stats + loss.data.nbytes
    del out, loss
    assert memory.live_bytes() == before


def test_attention_backward_repeats_and_serves_any_input_subset():
    """The vjps share one rebuild per backward. A second backward gives the
    same gradients again, and every subset of the seven inputs that needs a
    gradient gets the gradients it gets when all of them do."""
    rng = np.random.default_rng(30)
    for n, s, t, d, heads, decay in _attention_cases(rng):
        arrays = _attention_inputs(rng, n, s, t, d, np.float64)
        upstream = rng.normal(size=(n, s, d))
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        loss = tc.sum(tc.attention(*inputs, decay, heads)[0] * upstream)
        loss.backward()
        first = [x.grad for x in inputs]
        for x in inputs:  # x gets two contributions, so 2 * grad would not be exact
            x.grad = None
        loss.backward()
        for x, grad in zip(inputs, first):
            assert np.array_equal(x.grad, grad)
        for subset in _subsets(7)[:-1]:
            some = [Tensor(a, requires_grad=i in subset) for i, a in enumerate(arrays)]
            tc.sum(tc.attention(*some, decay, heads)[0] * upstream).backward()
            for i, x in enumerate(some):
                assert np.array_equal(x.grad, first[i]) if i in subset else x.grad is None, (subset, i)


def test_attention_rebuilds_paper_width_weights_bitwise():
    """At paper width (N=200, T=30, d=128, 8 heads, float32, the encoder's
    decay, queries from x) the output and the gradients of x and of every
    projection weight and bias equal the composition's bit for bit over two
    backwards, so the rebuilt q, k, v and weights are the forward's."""
    n, t, d, heads = 200, 30, 128, 8
    rng = np.random.default_rng(32)
    arrays = _attention_inputs(rng, n, t, t, d, np.float32)
    upstream = rng.normal(size=(n, t, d)).astype(np.float32)
    results = []
    for attention in (tc.attention, composed_attention):
        args = _attention_args([Tensor(a.copy(), requires_grad=True) for a in arrays], t, t)
        out = attention(*args, gaussian_mask(t, t / 4), heads)[0]
        loss = tc.sum(out * upstream)
        loss.backward()
        grads = [x.grad.copy() for x in args[1:]]
        loss.backward()
        results.append([out.data, *grads, *[x.grad for x in args[1:]]])
    for fused, composed in zip(*results):
        assert fused.dtype == np.float32 and np.array_equal(fused, composed)


def test_attention_forward_keeps_one_copy_of_the_scores():
    """Under no_grad the decay mask and softmax run in place in the scores
    buffer, which becomes the weights: besides q, k and v, no second
    (N, H, S, T) array."""
    import tracemalloc
    rng = np.random.default_rng(27)
    inputs = [Tensor(a) for a in _attention_inputs(rng, 50, 30, 30, 32, np.float64)]
    projections = 3 * inputs[0].data.nbytes  # q, k and v, each (N, T, d)
    decay = np.tril(np.ones((30, 30)))
    tracemalloc.start()
    try:
        with tc.no_grad():
            out, weights = tc.attention(*inputs, decay, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights.shape == (50, 4, 30, 30) and out.shape == (50, 30, 32)
    assert peak - projections < 2 * weights.data.nbytes, (peak - projections) / weights.data.nbytes


def test_attention_rejects_mismatched_shapes():
    q_in, x = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
    w = np.ones((4, 4))
    with pytest.raises(ShapeError, match="attention"):  # values 6 wide, keys 4
        tc.attention(q_in, x, w, None, w, np.ones((4, 6)), None, np.ones((3, 5)), 2)
    with pytest.raises(ShapeError, match="attention"):  # d = 4 does not split into 3 heads
        tc.attention(q_in, x, w, None, w, w, None, np.ones((3, 5)), 3)
    with pytest.raises(ShapeError, match="attention"):
        tc.attention(q_in, x, w, None, w, w, None, np.ones((5, 3)), 2)
    with pytest.raises(ShapeError, match="attention"):  # queries for 3 nodes, keys for 2
        tc.attention(Tensor(np.ones((3, 3, 4))), x, w, None, w, w, None, np.ones((3, 5)), 2)


def _leaky_relu(z: Tensor, slope: float) -> Tensor:
    """LeakyReLU as a product with its constant slope mask, which is exact."""
    return tc.mul(z, np.where(z.data > 0, 1.0, slope))


def _dense_graph_attention(hs, es, keep: np.ndarray, slope: float) -> Tensor:
    """Reference: graph attention over every (i, j) pair, as the GAT ran it
    before its kept-edge node: per head transpose, add, LeakyReLU, decay
    softmax(keep) and a dense matmul; the heads placed side by side by
    one-hot products, which are exact; then the output LeakyReLU and a
    transpose to node-major."""
    width = hs[0].shape[2]
    out = 0.0
    for k, (h, e) in enumerate(zip(hs, es)):
        src = tc.matmul(e, np.array([[1.0], [0.0]]))  # (T, N, 1); exact, it adds zeros
        dst = tc.transpose(tc.matmul(e, np.array([[0.0], [1.0]])), (0, 2, 1))  # (T, 1, N)
        alpha = _decay_softmax_node(_leaky_relu(src + dst, slope), keep)
        place = np.eye(width, len(hs) * width, k * width)  # head k's columns of the output
        out = out + tc.matmul(tc.matmul(alpha, h), place)
    return tc.transpose(_leaky_relu(out, slope), (1, 0, 2))


def _graph_attention_inputs(rng, keep, dtype):
    t, n, heads, width = 4, keep.shape[0], 2, 3
    hs = [Tensor(rng.normal(size=(t, n, width)).astype(dtype), requires_grad=True) for _ in range(heads)]
    es = [Tensor((rng.normal(size=(t, n, 2)) * 3).astype(dtype), requires_grad=True) for _ in range(heads)]
    return hs, es


def test_graph_attention_equals_dense_composition():
    rng = np.random.default_rng(24)
    keep = (rng.uniform(size=(7, 7)) < 0.3) | np.eye(7, dtype=bool)
    keep[2] = np.arange(7) == 2  # a row with only its self-loop
    keep[:, 4] = np.arange(7) == 4  # a column kept by its self-loop only
    assert not np.array_equal(keep, keep.T)
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        hs, es = _graph_attention_inputs(rng, keep, dtype)
        upstream = rng.normal(size=(7, 4, 6)).astype(dtype)
        runs = []
        for attend in (tc.graph_attention, _dense_graph_attention):
            for t in hs + es:
                t.grad = None
            out = attend(hs, es, keep, 0.2)
            tc.sum(out * upstream).backward()
            runs.append((out.data, [t.grad for t in hs + es]))
        (node, node_grads), (dense, dense_grads) = runs
        assert node.dtype == dtype and node.shape == (7, 4, 6)
        assert np.abs(node - dense).max() < tol
        for t, grad, ref in zip(hs + es, node_grads, dense_grads):
            assert grad.dtype == dtype and grad.shape == t.shape
            assert np.abs(grad - ref).max() < tol


def test_graph_attention_weights_are_exactly_zero_off_the_kept_edges():
    keep = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=bool)
    rng = np.random.default_rng(25)
    hs, es = _graph_attention_inputs(rng, keep, np.float64)
    hs[1].data[:, 2] = 1e300  # node 2's features reach only row 2, which keeps it
    out = tc.graph_attention(hs, es, keep, 0.2).data  # node-major (N, T, H g)
    for k, h in enumerate(hs):  # row 0 keeps only its self-loop: weight 1, the rest exactly 0
        assert np.array_equal(out[0, :, 3 * k:3 * (k + 1)], _leaky_relu(Tensor(h.data[:, 0]), 0.2).data)
    assert np.all(np.abs(out[:2]) < 1e3) and np.all(np.abs(out[2, :, 3:]) > 1e200)


def test_graph_attention_keeps_edge_weights_not_dense_maps():
    keep = np.eye(6, dtype=bool) | np.roll(np.eye(6, dtype=bool), 1, axis=1)
    rng = np.random.default_rng(26)
    hs, es = _graph_attention_inputs(rng, keep, np.float32)
    before = memory.live_bytes()
    out = tc.graph_attention(hs, es, keep, 0.2)
    edges = 4 * 2 * 12 * 4  # (T, H, E) float32 weights, E = 12 kept entries
    assert memory.live_bytes() - before == out.data.nbytes + edges
    del out
    assert memory.live_bytes() == before


def test_graph_attention_under_no_grad_holds_no_edge_weights_of_every_head():
    """Under no_grad nothing reads the edge weights after the forward, so the
    node holds one head's (T, E) weights at a time, never a (T, H, E) array."""
    import tracemalloc
    t, n, heads = 4, 30, 16
    keep = np.ones((n, n), dtype=bool)  # dense: E = N^2 kept edges
    rng = np.random.default_rng(28)
    hs = [Tensor(rng.normal(size=(t, n, 1))) for _ in range(heads)]
    es = [Tensor(rng.normal(size=(t, n, 2))) for _ in range(heads)]
    every_head = t * heads * n * n * 8  # one float64 (T, H, E) array
    tracemalloc.start()
    try:
        with tc.no_grad():
            out = tc.graph_attention(hs, es, keep, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < every_head, peak / every_head
    assert out.shape == (n, t, heads)


def test_graph_attention_backward_repeats_and_serves_any_input_subset():
    """The vjps share one pre-activation gradient per backward. A second
    backward adds the same gradients again, and a node whose inputs only
    partly need a gradient gives those inputs the same gradients."""
    keep = np.eye(5, dtype=bool) | np.roll(np.eye(5, dtype=bool), 2, axis=1)
    rng = np.random.default_rng(29)
    hs, es = _graph_attention_inputs(rng, keep, np.float64)
    upstream = rng.normal(size=(5, 4, 6))
    loss = tc.sum(tc.graph_attention(hs, es, keep, 0.2) * upstream)
    loss.backward()
    first = [t.grad.copy() for t in hs + es]
    loss.backward()
    for t, grad in zip(hs + es, first):
        assert np.array_equal(t.grad, 2 * grad)
    some = [Tensor(t.data, requires_grad=i in (0, 3)) for i, t in enumerate(hs + es)]
    tc.sum(tc.graph_attention(some[:2], some[2:], keep, 0.2) * upstream).backward()
    assert np.array_equal(some[0].grad, first[0]) and np.array_equal(some[3].grad, first[3])
    assert some[1].grad is None and some[2].grad is None


def test_graph_attention_time_slices_are_bitwise_the_whole_window(monkeypatch):
    """With (T, N, N) weights above the slice budget, the output and both
    input gradients equal those of one whole-window slice bit for bit (each
    step is the same GEMM either way), under no_grad too, and no counted
    allocation exceeds the budget."""
    t, n = 10, 190  # float64: 3 steps fit the budget, so slices of 3, 3, 3 and 1 steps
    budget = tensor_mod._DENSE_SLICE_BYTES
    assert budget // (n * n * 8) == 3
    rng = np.random.default_rng(30)
    keep = (rng.uniform(size=(n, n)) < 0.05) | np.eye(n, dtype=bool)
    hs = [Tensor(rng.normal(size=(t, n, 3)), requires_grad=True) for _ in range(2)]
    es = [Tensor(rng.normal(size=(t, n, 2)) * 3, requires_grad=True) for _ in range(2)]
    upstream = rng.normal(size=(n, t, 6))
    sizes = []
    note_alloc = memory.note_alloc
    monkeypatch.setattr(memory, "note_alloc", lambda nbytes: (sizes.append(nbytes), note_alloc(nbytes)))

    def run():
        for x in hs + es:
            x.grad = None
        sizes.clear()
        out = tc.graph_attention(hs, es, keep, 0.2)
        tc.sum(out * upstream).backward()
        with tc.no_grad():
            plain = tc.graph_attention(hs, es, keep, 0.2).data
        return [out.data, plain] + [x.grad for x in hs + es], max(sizes)

    sliced, largest = run()
    assert largest <= budget
    monkeypatch.setattr(tensor_mod, "_DENSE_SLICE_BYTES", t * n * n * 8)
    whole, largest = run()
    assert largest == t * n * n * 8 > budget
    for a, b in zip(sliced, whole):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_leaky_relu_as_maximum_is_the_where_form_bit_for_bit():
    """graph_attention's forward LeakyReLU max(x, x slope) gives the bits of
    where(x > 0, x, x slope) for 0 < slope <= 1: signed zeros, infinities,
    NaN and subnormals included."""
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, -3 * tiny,
                      np.finfo(dtype).max, -np.finfo(dtype).max, 1.5, -1.5], dtype=dtype)
        for slope in (0.2, 1.0, 1e-3):
            slope = dtype(slope)
            bits = np.dtype(f"u{x.itemsize}")
            assert np.array_equal(np.maximum(x, x * slope).view(bits), np.where(x > 0, x, x * slope).view(bits))


def test_graph_attention_rejects_a_slope_outside_zero_to_one():
    h, e = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 2)))
    for slope in (0.0, -0.1, 1.01, float("nan")):
        with pytest.raises(ValueError, match=r"graph_attention: slope must be in \(0, 1\]"):
            tc.graph_attention([h], [e], np.eye(3, dtype=bool), slope)
    assert tc.graph_attention([h], [e], np.eye(3, dtype=bool), 1.0).shape == (3, 2, 4)


def test_module_docstring_lists_the_exported_primitives():
    """tensor.py's docstring names the closed primitive set and its size;
    both match the functions tcgpn.tensorcore exports from tensor.py."""
    import inspect
    import re
    exported = {name for name in tc.__all__ if inspect.isfunction(getattr(tc, name))
                and getattr(tc, name).__module__ == tensor_mod.__name__}
    doc = re.sub(r"\([^)]*\)", "", " ".join(tensor_mod.__doc__.split()))  # without the parentheticals
    count, listed = re.search(r"closed, (\d+) in all: (.*?)\. ", doc).groups()
    names = [name.strip() for name in re.split(r",|\band\b", listed)]
    assert sorted(names) == sorted(exported) and int(count) == len(names) == 15
    assert not hasattr(tc, "leaky_relu") and not hasattr(tc, "relu")


def test_graph_attention_rejects_row_without_kept_entry():
    keep = np.eye(3, dtype=bool)
    keep[1, 1] = False
    h, e = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="graph_attention: row 1"):
        tc.graph_attention([h], [e], keep, 0.2)
    for hs, es, mask in (([h], [Tensor(np.zeros((2, 3, 1)))], np.eye(3)),  # scores not (T, N, 2)
                         ([h, h], [e], np.eye(3)),  # a head without scores
                         ([h, Tensor(np.zeros((2, 3, 5)))], [e, e], np.eye(3)),  # heads of unequal width
                         ([h], [e], np.eye(4)),  # keep not (N, N)
                         ([], [], np.eye(3))):
        with pytest.raises(ShapeError, match="graph_attention"):
            tc.graph_attention(hs, es, mask, 0.2)


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
        out = _relu(pre)
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
