"""Training loops: determinism, frozen-encoder contract, prediction output,
baselines. Uses a miniature synthetic setup to stay fast."""

import gc
import types
import weakref

import numpy as np
import pytest

from tcgpn import checks, data, losses, model, train
from tcgpn.data import SyntheticSpec, gen_synthetic, split_by_fraction, window_samples
from tcgpn.tensorcore import Adam, Tensor, forward_backward, load_checkpoint, memory
from tcgpn.tensorcore import tensor as tensor_mod


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


def test_step_is_adam_on_the_mean_of_per_sample_gradients(monkeypatch):
    # the training loop lets each sample's backward add onto the parameters;
    # its first step must equal the mean of separately computed gradients
    _, wtrain, _, graph, cfg = mini_setup()
    tcfg = fast_train_cfg(epochs=1, batch_size=3)
    stepped = []
    step = Adam.step

    def recording(self, params, grads):
        stepped.append({p: g.copy() for p, g in grads.items()})
        return step(self, params, grads)

    monkeypatch.setattr(Adam, "step", recording)
    train.pretrain(wtrain[:3], [], graph, cfg, tcfg)
    params = model.init_params(cfg, seed=tcfg.seed)
    total = {}
    for j, window in enumerate(wtrain[:3]):
        sample = train._make_sample(window, graph, tcfg, train._derive_seed(tcfg.seed, 0, 0, j))
        _, grads = forward_backward(
            lambda p: train.pretrain_sample_losses(sample, p, cfg, tcfg)[0], params)
        for p, g in grads.items():
            total[p] = total[p] + g if p in total else g
    assert len(stepped) == 1 and sorted(stepped[0]) == sorted(total)
    for p, g in total.items():
        assert np.array_equal(stepped[0][p], g * (1.0 / 3)), p


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
    for epochs in (0, -2):
        with pytest.raises(ValueError, match="epochs"):
            train.TrainConfig(epochs=epochs)
    for lr in (0.0, -0.01):
        with pytest.raises(ValueError, match="learning_rate"):
            train.TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError, match="beta"):
        train.TrainConfig(beta=-1.0)
    train.TrainConfig(epochs=1, beta=0.0)  # the smallest legal values


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


# the acceptance-scale model (N=20, T=30, d=24) on one random masked sample
ACCEPT_MODEL = model.ModelConfig(n_features=4, d_model=24, gat_heads=2, gat_dim=8, tgm_blocks=1,
                                 tgm_heads=4, window=30, d_a=8, ffn_hidden=48, head_hidden=48)


def _accept_forward(seed: int):
    """A function that runs one pretraining forward and returns its loss."""
    sample, _, _ = checks.make_check_sample(ACCEPT_MODEL, 20, seed=seed)
    params = model.init_params(ACCEPT_MODEL, seed=seed)
    return lambda: train.pretrain_sample_losses(sample, params, ACCEPT_MODEL,
                                                train.TrainConfig(epochs=1))[0]


def _buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory arr views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_contents(fn):
    """Every Tensor and ndarray a vjp reaches through closures, defaults and
    containers, without looking inside Tensors."""
    tensors, arrays, stack, seen = [], [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack += [c.cell_contents for c in obj.__closure__ or ()] + list(obj.__defaults__ or ())
        elif isinstance(obj, (list, tuple, set)):
            stack += list(obj)
        elif isinstance(obj, dict):
            stack += list(obj.values())
    return tensors, arrays


def _vjps(loss: Tensor) -> list:
    vjps, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for parent, vjp in node._edges:
            vjps.append(vjp)
            stack.append(parent)
    return vjps


def test_vjps_hold_no_uncounted_view_of_a_tensor_buffer(monkeypatch):
    # memory.live_bytes counts Tensor buffers; a vjp that kept a bare view of
    # a buffer whose Tensor is gone would hold bytes the counter has freed
    made = []  # the owning buffer of every Tensor the forward makes
    result, init = tensor_mod._result, Tensor.__init__

    def record(data):
        if isinstance(data, np.ndarray):  # not a numpy scalar, which shares no memory
            made.append(weakref.ref(_buffer(data)))

    def recording_result(data, parents, vjps):
        out = result(data, parents, vjps)
        record(out.data)
        return out

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record(self.data)

    forward = _accept_forward(seed=5)
    monkeypatch.setattr(tensor_mod, "_result", recording_result)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    loss = forward()
    monkeypatch.undo()
    made_ids = {id(r()) for r in made if r() is not None}
    live_ids = {id(_buffer(t.data)) for t in gc.get_objects()
                if isinstance(t, Tensor) and isinstance(t.data, np.ndarray)}
    held = [_closure_contents(vjp) for vjp in _vjps(loss)]
    assert len(held) > 50 and all(any(part) for part in zip(*held))  # Tensors and arrays both
    for _, arrays in held:
        for arr in arrays:
            if id(_buffer(arr)) in made_ids:
                assert id(_buffer(arr)) in live_ids, arr.shape


def test_dropping_the_loss_frees_every_buffer_without_the_cycle_collector():
    forward = _accept_forward(seed=6)
    gc.collect()
    gc.disable()
    try:
        before = memory.live_bytes()
        loss = forward()
        assert memory.live_bytes() > before
        loss.backward()
        del loss
        assert memory.live_bytes() == before
    finally:
        gc.enable()


def test_pretrain_aborts_on_non_finite_loss_with_seed(monkeypatch):
    _, wtrain, wval, graph, cfg = mini_setup()
    poisoned = model.init_params(cfg, seed=0)
    poisoned["fuse.weight"].data[0, 0] = np.inf
    monkeypatch.setattr(model, "init_params", lambda *args, **kwargs: poisoned)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="sample seed"):
        train.pretrain(wtrain, [], graph, cfg, fast_train_cfg(epochs=1))
