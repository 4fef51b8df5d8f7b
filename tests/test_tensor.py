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
    ("sqrt", lambda t: tc.sum(tc.sqrt(t + 3.0))),
    ("relu", lambda t: tc.sum(tc.relu(t) * tc.relu(t))),
    ("leaky", lambda t: tc.sum(tc.leaky_relu(t, 0.2) * t)),
    ("softmax", lambda t: tc.sum(tc.decay_softmax(t, np.ones(t.shape)) * t)),
    ("mean", lambda t: tc.mean(t * t)),
    ("div", lambda t: tc.sum(t / (t * t + 1.0))),
    ("transpose", lambda t: tc.sum(tc.transpose(t, (1, 0)) @ t)),
    ("reshape", lambda t: tc.sum(tc.reshape(t, (6,)) * tc.reshape(t, (6,)))),
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
    a = rng.normal(size=(4, 3, 2))
    b = rng.normal(size=(2, 5))  # broadcast over the batch dim

    def build(t):
        return tc.sum(tc.matmul(Tensor(a), t) * 2.0 + tc.matmul(Tensor(a), t) * Tensor(a @ b))

    grad, _ = analytic_grad(build, b)
    num = numeric_grad(lambda arr: float(build(Tensor(arr)).data), b.copy())
    assert np.allclose(grad, num, rtol=1e-5, atol=1e-7)
    assert grad.shape == b.shape


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

    x.zero_grad()
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


def test_grad_accumulates_across_reuse():
    p = Tensor(np.array([2.0]), requires_grad=True)
    loss = tc.sum(p * p + p * 3.0)
    loss.backward()
    assert np.allclose(p.grad, [2 * 2.0 + 3.0])


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
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = tc.mean(tc.sqrt(x + 1.0) * 2.0 + 1.0)
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
