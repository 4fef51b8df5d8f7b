"""Finite-difference checker: exactness on linear maps, attention toys,
and injected-fault detection."""

import numpy as np
import pytest

from tcgpn import checks
from tcgpn import tensorcore as tc
from tcgpn.tensorcore import ParamStore, Tensor, grad_check


def make_store(shapes: dict, seed=0):
    store = ParamStore(seed=seed, dtype=np.float64)
    for path, shape in shapes.items():
        store.add(path, shape, "fan_in")
    return store


def test_linear_loss_is_exact():
    store = make_store({"w": (3, 2), "b": (2,)})
    coeff = np.arange(6.0).reshape(3, 2) + 1.0

    def loss(s):
        return tc.sum(s["w"] * coeff) + tc.sum(s["b"])

    report = grad_check(loss, store, eps=1e-5, tol=1e-4)
    assert report.ok()
    assert report.max_rel_err < 1e-10


def test_softmax_attention_toy_loss():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 4, 6)))
    store = make_store({"wq": (6, 6), "wk": (6, 6), "wv": (6, 6)}, seed=3)
    causal = np.tril(np.exp(-np.subtract.outer(np.arange(4), np.arange(4)) ** 2 / 8.0))

    def loss(s):
        out, _ = tc.attention(x, x, s["wq"], None, s["wk"], s["wv"], None, causal, 2)
        return tc.sum(out * out)

    report = grad_check(loss, store, eps=1e-5, tol=1e-4)
    assert report.ok()
    assert report.max_rel_err < 1e-6


def test_corrupted_gradient_is_flagged():
    # an op with a deliberately doubled VJP must be caught
    from tcgpn.tensorcore import tensor as tensor_mod
    store = make_store({"w": (4,)})

    def loss_fn(s):
        w = s["w"]
        bad = tensor_mod._result(w.data.copy(), (w,), (lambda g: 2.0 * g,))
        return tc.sum(bad * bad)

    report = grad_check(loss_fn, store, eps=1e-5, tol=1e-4)
    assert not report.ok()
    assert report.failed()[0].path == "w"


def test_unprobeable_path_flagged_not_crashing():
    store = make_store({"w": (2,)})

    def loss(s):
        return tc.sum(s["w"] / (s["w"] - s["w"]))  # w / 0 is +-inf at every probe

    with np.errstate(divide="ignore", invalid="ignore"):
        report = grad_check(loss, store, eps=1e-5, tol=1e-4)
    assert report.checks[0].unprobeable


def test_requires_float64_store():
    store = ParamStore(seed=0, dtype=np.float32)
    store.add("w", (2,), "fan_in")
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda s: tc.sum(s["w"]), store)


def test_randomized_composites_match_fd_over_seeds():
    # gradient exactness across >= 10 random seeds on a mixed composite
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 5)))
        store = make_store({"w1": (5, 4), "w2": (4, 3)}, seed=seed)

        def loss(s):
            z = tc.matmul(x, s["w1"])
            h = tc.mul(z, np.where(z.data > 0, 1.0, 0.2))  # LeakyReLU, exactly
            rows, eye = tc.reshape(h, (1, 3, 4)), np.eye(4)  # self-attention through exact identity projections
            h = tc.reshape(tc.attention(rows, rows, eye, None, eye, eye, None, np.ones((3, 3)), 2)[0], (3, 4))
            z = tc.matmul(h, s["w2"])
            out = tc.mul(z, z.data > 0)  # ReLU, exactly
            m = tc.mean(h, axis=0)
            return tc.mean(out * out) + tc.sum(tc.normalize(h, 1e-3) * m)

        report = grad_check(loss, store, eps=1e-5, tol=1e-4)
        assert report.ok(), (seed, report.max_rel_err)


@pytest.mark.slow
def test_full_model_gradcheck_small_is_clean():
    # at the default probe seed every path of both losses matches finite
    # differences; a parameter whose true gradient is zero must not fail
    reports = checks.run_gradient_checks("small")
    for name, report in reports.items():
        assert report.ok(), (name, [(c.path, c.max_rel_err) for c in report.failed()])
