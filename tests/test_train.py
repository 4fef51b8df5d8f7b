"""Training loops: determinism, frozen-encoder contract, prediction output,
baselines. Uses a miniature synthetic setup to stay fast."""

import gc

import numpy as np
import pytest

from tcgpn import checks, data, losses, model, train
from tcgpn.data import SyntheticSpec, gen_synthetic, split_by_fraction, window_samples
from tcgpn.tensorcore import Adam, load_checkpoint, memory


def mini_setup(seed=0, d=70, t=12):
    panel, graph = gen_synthetic(SyntheticSpec(n_clusters=2, nodes_per_cluster=3,
                                               length=d, seed=seed))
    parts = split_by_fraction(panel, 0.6, 0.2)
    stats = data.feature_stats(parts[0])
    parts = tuple(data.standardize(p, stats) for p in parts)
    wtrain = window_samples(parts[0], t, 4)
    wval = window_samples(parts[1], t, 4)
    cfg = model.ModelConfig(n_features=4, d_model=8, gat_heads=2, gat_dim=4,
                            tgm_blocks=1, tgm_heads=2, window=t, d_a=4,
                            ffn_hidden=16, head_hidden=16)
    return parts, wtrain, wval, graph, cfg


def fast_train_cfg(**over):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, seed=3,
                early_stop_patience=50, r_t=0.25, r_g=0.25)
    base.update(over)
    return train.TrainConfig(**base)


def test_pretrain_rejects_empty_dataset():
    _, _, wval, graph, cfg = mini_setup()
    with pytest.raises(ValueError, match="window"):
        train.pretrain([], wval, graph, cfg, fast_train_cfg())


def test_pretrain_deterministic_checkpoints(tmp_path):
    parts, wtrain, wval, graph, cfg = mini_setup()
    a = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg(), run_dir=tmp_path / "a")
    b = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg(), run_dir=tmp_path / "b")
    raw_a = (tmp_path / "a" / "pretrained.ckpt").read_bytes()
    raw_b = (tmp_path / "b" / "pretrained.ckpt").read_bytes()
    assert raw_a == raw_b
    for p in a.params.paths():
        assert np.array_equal(a.params[p].data, b.params[p].data)


def test_pretrain_history_and_logs(tmp_path):
    _, wtrain, wval, graph, cfg = mini_setup()
    res = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg(), run_dir=tmp_path)
    assert (tmp_path / "pretrain_log.csv").exists()
    assert res.history and res.history[0].l_t is not None and res.history[0].l_g is not None
    assert len(res.val_history) == 2


def test_pretrain_loss_decreases_on_average():
    _, wtrain, wval, graph, cfg = mini_setup()
    res = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg(epochs=8, learning_rate=3e-3))
    first = np.mean([r.l_pre for r in res.history[:3]])
    last = np.mean([r.l_pre for r in res.history[-3:]])
    assert last < first


def test_pretrain_ablation_flags_drop_terms():
    _, wtrain, wval, graph, cfg = mini_setup()
    res = train.pretrain(wtrain, wval, graph, cfg,
                         fast_train_cfg(epochs=1, use_graph_loss=False))
    assert all(r.l_g is None for r in res.history)
    res = train.pretrain(wtrain, wval, graph, cfg,
                         fast_train_cfg(epochs=1, use_temporal_loss=False))
    assert all(r.l_t is None for r in res.history)


def test_node_subsampling_bounds_shapes():
    _, wtrain, wval, graph, cfg = mini_setup()
    res = train.pretrain(wtrain[:4], [], graph, cfg, fast_train_cfg(epochs=1, n_sub=4))
    assert res.history  # ran with 4-node samples without shape errors


def test_finetune_frozen_encoder_bit_identical():
    _, wtrain, wval, graph, cfg = mini_setup()
    pre = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg())
    before = {p: pre.params[p].data.copy() for p in pre.params.paths()}
    fine = train.finetune(pre.params, wtrain, wval, graph, cfg,
                          fast_train_cfg(epochs=3, learning_rate=5e-3))
    for p in fine.params.paths():
        if p.startswith("head."):
            continue
        assert np.array_equal(fine.params[p].data, before[p]), p
    moved = [p for p in fine.params.paths()
             if p.startswith("head.") and not np.array_equal(fine.params[p].data, before[p])]
    assert moved


def test_finetune_grads_only_cover_head_when_frozen(monkeypatch):
    _, wtrain, wval, graph, cfg = mini_setup()
    stepped = []
    step = Adam.step

    def recording(self, params, grads):
        stepped.append(set(grads))
        return step(self, params, grads)

    monkeypatch.setattr(Adam, "step", recording)
    train.finetune(model.init_params(cfg, seed=1), wtrain, wval, graph, cfg,
                   fast_train_cfg(epochs=2))
    assert len(stepped) == 2 * -(-len(wtrain) // fast_train_cfg().batch_size)
    heads = {p for p in model.param_shapes(cfg) if p.startswith("head.")}
    assert all(keys == heads for keys in stepped)


def test_finetune_encodes_each_window_once_when_frozen(monkeypatch):
    _, wtrain, wval, graph, cfg = mini_setup()
    calls = []
    encode = model.encoder_forward
    monkeypatch.setattr(model, "encoder_forward", lambda *a, **k: calls.append(1) or encode(*a, **k))
    fine = train.finetune(model.init_params(cfg, seed=2), wtrain, wval, graph, cfg,
                          fast_train_cfg(epochs=3))
    assert len(calls) == len(wtrain) + len(wval)
    monkeypatch.undo()
    rows = train.predict(fine.params, cfg, wval, graph)
    assert fine.best_val == train._mean_ic((r[2], w.target) for r, w in zip(rows, wval))


def test_predict_deterministic_and_complete(tmp_path):
    parts, wtrain, wval, graph, cfg = mini_setup()
    params = model.init_params(cfg, seed=2)
    rows1 = train.predict(params, cfg, wval, graph)
    rows2 = train.predict(params, cfg, wval, graph)
    for (d1, n1, s1), (d2, n2, s2) in zip(rows1, rows2):
        assert d1 == d2 and n1 == n2 and np.array_equal(s1, s2)
    path = tmp_path / "pred.csv"
    train.write_predictions(path, rows1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "date,symbol,score"
    assert len(lines) - 1 == len(wval) * parts[0].n_nodes


def test_predict_rejects_node_mismatch():
    _, wtrain, wval, graph, cfg = mini_setup()
    params = model.init_params(cfg, seed=2)
    bad = graph.subgraph(range(graph.n_nodes - 1))
    with pytest.raises(ValueError, match="node"):
        train.predict(params, cfg, wval, bad)


def test_predict_permutation_equivariant():
    _, wtrain, wval, graph, cfg = mini_setup()
    params = model.init_params(cfg, seed=6)
    w = wval[0]
    base = train.predict(params, cfg, [w], graph)[0][2]
    rng = np.random.default_rng(0)
    p = rng.permutation(w.n_nodes)
    from tcgpn.augment import _subset
    w_p, g_p = _subset(w, graph, p)
    out = train.predict(params, cfg, [w_p], g_p)[0][2]
    assert np.allclose(out, base[p], atol=1e-5)


def test_checkpoint_round_trip_through_finetune(tmp_path):
    _, wtrain, wval, graph, cfg = mini_setup()
    pre = train.pretrain(wtrain, wval, graph, cfg, fast_train_cfg(), run_dir=tmp_path)
    store, loaded_cfg = train.load_pretrained(pre.checkpoint_path)
    assert loaded_cfg.to_dict() == cfg.to_dict()
    fine = train.finetune(store, wtrain, wval, graph, loaded_cfg,
                          fast_train_cfg(epochs=1), run_dir=tmp_path)
    ck, ck_cfg = load_checkpoint(fine.checkpoint_path)
    assert ck_cfg["phase"] == "finetune"


def test_persistence_and_ic_helpers():
    parts, wtrain, wval, graph, cfg = mini_setup()
    ic = train.persistence_ic(parts[1], wval)
    assert np.isfinite(ic) and -1.0 <= ic <= 1.0


def test_masked_reconstruction_baseline_sane():
    _, wtrain, wval, graph, cfg = mini_setup()
    params = model.init_params(cfg, seed=8)
    m, b = train.masked_reconstruction_mse(params, cfg, fast_train_cfg(), wval, graph)
    assert np.isfinite(m) and np.isfinite(b) and b > 0


def test_train_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(r_t=1.0)
    with pytest.raises(ValueError):
        train.TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="lambda_m"):
        train.TrainConfig(lambda_m=-0.1)


def test_no_validation_scores_epoch_mean_training_loss():
    _, wtrain, _, graph, cfg = mini_setup()
    tcfg = fast_train_cfg(epochs=2, batch_size=3)
    assert len(wtrain) > tcfg.batch_size  # several steps per epoch
    steps = -(-len(wtrain) // tcfg.batch_size)
    pre = train.pretrain(wtrain, [], graph, cfg, tcfg)
    fine = train.finetune(pre.params, wtrain, [], graph, cfg, tcfg)
    for epoch in range(2):
        epoch_reports = slice(epoch * steps, (epoch + 1) * steps)
        assert pre.val_history[epoch][1] == float(np.mean([r.l_pre for r in pre.history[epoch_reports]]))
        assert fine.val_history[epoch][1] == -float(np.mean([r.l_fine for r in fine.history[epoch_reports]]))


def test_training_and_gradcheck_share_the_finetune_loss(monkeypatch):
    _, wtrain, _, graph, cfg = mini_setup()
    calls = []
    shared = losses.loss_finetune

    def recording(y_hat, y, lambda_m):
        calls.append(lambda_m)
        return shared(y_hat, y, lambda_m)

    monkeypatch.setattr(losses, "loss_finetune", recording)
    params = model.init_params(cfg, seed=4)
    train.finetune(params, wtrain[:2], [], graph, cfg, fast_train_cfg(epochs=1, lambda_m=0.7))
    assert calls == [0.7, 0.7]
    checks.finetune_loss_fn(wtrain[0], graph, cfg, lambda_m=0.2)(params)
    assert calls[-1] == 0.2


def test_pretrain_peak_memory_does_not_grow_with_batch():
    # each sample's autodiff graph is freed before the next sample's forward
    _, wtrain, _, graph, cfg = mini_setup()

    def peak(windows) -> int:
        gc.collect()
        memory.reset_peak()
        base = memory.live_bytes()
        train.pretrain(windows, [], graph, cfg, fast_train_cfg(epochs=1, batch_size=4))
        return memory.peak_bytes() - base

    one, four = peak(wtrain[:1]), peak(wtrain[:4])
    assert four < 1.2 * one, (four, one)


def test_pretrain_aborts_on_non_finite_loss_with_seed(monkeypatch):
    _, wtrain, wval, graph, cfg = mini_setup()
    poisoned = model.init_params(cfg, seed=0)
    poisoned["fuse.weight"].data[0, 0] = np.inf
    monkeypatch.setattr(model, "init_params", lambda *args, **kwargs: poisoned)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="sample seed"):
        train.pretrain(wtrain, [], graph, cfg, fast_train_cfg(epochs=1))
