"""Loss definitions: masked locality, Pearson correctness, combinations."""

import numpy as np
import pytest

from tcgpn import losses
from tcgpn.losses import (ZeroVarianceError, loss_finetune, loss_graph,
                          loss_mse, loss_pearson, loss_pretrain, loss_temporal)
from tcgpn.tensorcore import Tensor


def test_temporal_perfect_reconstruction_zero():
    x = np.random.default_rng(0).normal(size=(2, 4, 3))
    mask = np.zeros((2, 4), bool)
    mask[0, 1] = mask[1, 2] = True
    assert float(loss_temporal(x, Tensor(x.copy()), mask).data) == 0.0


def test_temporal_ignores_unmasked_changes():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 4, 3))
    x_r = rng.normal(size=(2, 4, 3))
    mask = np.zeros((2, 4), bool)
    mask[0, 1] = True
    base = float(loss_temporal(x, Tensor(x_r), mask).data)
    x2 = x.copy()
    x2[1, 3] += 100.0  # unmasked position
    assert float(loss_temporal(x2, Tensor(x_r), mask).data) == base


def test_temporal_hand_value():
    # one node, two masked scalar entries with errors 1 and 3 -> (1+9)/2 = 5
    x = np.zeros((1, 2, 1))
    x_r = np.array([[[1.0], [3.0]]])
    mask = np.ones((1, 2), bool)
    assert float(loss_temporal(x, Tensor(x_r), mask).data) == pytest.approx(5.0)


def test_temporal_empty_mask_rejected():
    with pytest.raises(ValueError, match="mask"):
        loss_temporal(np.zeros((1, 2, 1)), Tensor(np.zeros((1, 2, 1))), np.zeros((1, 2), bool))


def test_temporal_gradient_zero_off_mask():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5, 2))
    x_r = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
    mask = np.zeros((3, 5), bool)
    mask[0, 1] = mask[2, 4] = True
    loss_temporal(x, x_r, mask).backward()
    expanded = np.broadcast_to(mask[:, :, None], x.shape)
    assert np.all(x_r.grad[~expanded] == 0.0)
    assert np.all(x_r.grad[expanded] != 0.0)


def test_graph_loss_only_on_kept_entries():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 2, size=(4, 4))
    np.fill_diagonal(a, 0)
    kept = rng.uniform(size=(4, 4)) < 0.6
    a_hat = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    base = float(loss_graph(a, a_hat, kept).data)

    tweaked = a_hat.data.copy()
    tweaked[~kept] += 10.0
    assert float(loss_graph(a, Tensor(tweaked), kept).data) == pytest.approx(base)

    loss_graph(a, a_hat, kept).backward()
    assert np.all(a_hat.grad[~kept] == 0.0)


def test_graph_hand_value():
    # errors (2) and (0) on two kept entries -> (4+0)/2 = 2
    a = np.array([[0.0, 1.0], [3.0, 0.0]])
    a_hat = np.array([[0.0, 3.0], [3.0, 0.0]])
    kept = np.array([[False, True], [True, False]])
    assert float(loss_graph(a, Tensor(a_hat), kept).data) == pytest.approx(2.0)


def test_graph_no_supervised_edge_rejected():
    a = np.zeros((2, 2))
    with pytest.raises(ValueError, match="supervised"):
        loss_graph(a, Tensor(np.zeros((2, 2))), np.ones((2, 2), bool))


def test_mse_values_and_scale():
    y = np.array([1.0, 2.0])
    assert float(loss_mse(Tensor(y.copy()), y).data) == 0.0
    assert float(loss_mse(Tensor(np.array([2.0, 1.0])), y).data) == pytest.approx(1.0)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=6), rng.normal(size=6)
    m1 = float(loss_mse(Tensor(3.0 * a), 3.0 * b).data)
    m0 = float(loss_mse(Tensor(a), b).data)
    assert m1 == pytest.approx(9.0 * m0)


def test_pearson_perfect_and_anti():
    y = np.array([1.0, 2.0, 4.0])
    assert float(loss_pearson(Tensor(y.copy()), y).data) == pytest.approx(-1.0)
    assert float(loss_pearson(Tensor(-y), y).data) == pytest.approx(1.0)


def test_pearson_hand_value():
    y_hat = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    y = np.array([1.0, 3.0, 2.0, 4.0])
    assert float(loss_pearson(y_hat, y).data) == pytest.approx(-0.8)


def test_pearson_zero_variance_distinct_signal():
    with pytest.raises(ZeroVarianceError):
        loss_pearson(Tensor(np.ones(4)), np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ZeroVarianceError):
        loss_pearson(Tensor(np.array([1.0, 2.0, 3.0, 4.0])), np.ones(4))


def test_pearson_affine_invariance_and_range():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.normal(size=8), rng.normal(size=8)
        v = float(loss_pearson(Tensor(a), b).data)
        assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9
        shifted = float(loss_pearson(Tensor(2.5 * a + 1.0), b).data)
        assert shifted == pytest.approx(v, abs=1e-6)


def test_finetune_combination():
    y = np.array([1.0, 2.0, 3.0])
    total, mse, pearson = loss_finetune(Tensor(y.copy()), y, 0.3)
    assert float(total.data) == pytest.approx(-1.0)
    assert float(mse.data) == 0.0 and float(pearson.data) == pytest.approx(-1.0)
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=5), rng.normal(size=5)
    lam0, _, _ = loss_finetune(Tensor(a), b, 0.0)
    assert float(lam0.data) == pytest.approx(float(loss_pearson(Tensor(a), b).data))
    # a constant cross-section drops the Pearson term instead of raising
    total, mse, pearson = loss_finetune(Tensor(np.ones(5)), b, 0.5)
    assert pearson is None
    assert float(total.data) == pytest.approx(0.5 * float(mse.data))


def test_pretrain_combination_and_ablations():
    l_t = Tensor(np.array(0.2))
    l_g = Tensor(np.array(0.3))
    assert float(loss_pretrain(l_t, l_g, 1.0).data) == pytest.approx(0.5)
    assert float(loss_pretrain(l_t, l_g, 0.0).data) == pytest.approx(0.2)  # graph task off
    assert float(loss_pretrain(None, l_g, 2.0).data) == pytest.approx(0.6)  # temporal off
    with pytest.raises(ValueError):
        loss_pretrain(None, None, 1.0)
    with pytest.raises(ValueError):
        loss_pretrain(l_t, l_g, -1.0)


def test_loss_log_round_trip(tmp_path):
    rows = [losses.LossReport(step=0, l_t=0.5, l_g=0.25, l_pre=0.75),
            losses.LossReport(step=1, l_mse=0.1, l_pearson=-0.9, l_fine=-0.87)]
    path = tmp_path / "log.csv"
    losses.write_loss_log(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,l_t,l_g,l_pre,l_mse,l_pearson,l_fine"
    assert lines[1].startswith("0,0.5,0.25,0.75,,,")
    assert lines[2].startswith("1,,,,0.1,-0.9,")
