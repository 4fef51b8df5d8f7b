"""Encoder components: positions, graph attention, Gaussian-decay causal
attention, decoders, head. Includes the bit-exact causality and permutation
equivariance contracts."""

import numpy as np
import pytest

from tcgpn import checks, data, model, train
from tcgpn import tensorcore as tc
from tcgpn.model import (ModelConfig, adjacency_decoder,
                         encoder_forward, finetune_head, fuse_and_position,
                         gat_forward, gaussian_mask, init_params,
                         positional_table, temporal_decoder, tgm_block)
from tcgpn.tensorcore import Tensor, memory, no_grad
from test_tensor import composed_attention


def tiny_cfg(**over):
    base = dict(n_features=3, d_model=8, gat_heads=2, gat_dim=4, tgm_blocks=1,
                tgm_heads=2, window=8, d_a=4, ffn_hidden=16, head_hidden=16)
    base.update(over)
    return ModelConfig(**base)


def random_inputs(cfg, n=4, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, cfg.window, cfg.n_features))
    conn = rng.uniform(size=(n, n)) < density
    np.fill_diagonal(conn, False)
    return x, conn


# positional encoding -----------------------------------------------------------


def test_positional_table_first_step_values():
    pe = positional_table(8, 8)
    assert pe[0, 0] == 0.0  # sin(0)
    assert pe[0, 1] == 1.0  # cos(0)
    assert np.all(np.abs(pe) <= 1.0)


def test_fuse_zero_input_zero_bias_gives_pe():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    params["fuse.bias"].data[:] = 0.0
    x = np.zeros((3, cfg.window, cfg.n_features))
    out = fuse_and_position(x, params, cfg)
    pe = positional_table(cfg.window, cfg.d_model).astype(np.float32)
    for i in range(3):
        assert np.allclose(out.data[i], pe, atol=1e-7)


def test_fuse_identical_series_identical_rows():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    row = np.random.default_rng(0).normal(size=(1, cfg.window, cfg.n_features))
    x = np.repeat(row, 3, axis=0)
    out = fuse_and_position(x, params, cfg)
    assert np.array_equal(out.data[0], out.data[1])
    assert np.array_equal(out.data[0], out.data[2])


def test_fuse_rejects_feature_mismatch():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    with pytest.raises(ValueError, match="feature"):
        fuse_and_position(np.zeros((2, cfg.window, cfg.n_features + 1)), params, cfg)


# gaussian mask -------------------------------------------------------------------


def test_gaussian_mask_diagonal_ones_future_zeros():
    m = gaussian_mask(6, 1.5)
    assert np.all(np.diag(m) == 1.0)
    assert np.all(m[np.triu_indices(6, k=1)] == 0.0)


def test_gaussian_mask_value():
    m = gaussian_mask(4, 1.0)
    assert m[2, 1] == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_gaussian_mask_monotone_decay():
    m = gaussian_mask(10, 2.0)
    for i in range(10):
        row = m[i, :i + 1]
        assert np.all(np.diff(row) >= 0)  # weight rises toward the diagonal


# graph attention -----------------------------------------------------------------


def test_gat_single_node_reduces_to_self_loop():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3)
    x = Tensor(np.random.default_rng(1).normal(size=(1, cfg.window, cfg.d_model)).astype(np.float32))
    z = gat_forward(x, np.zeros((1, 1), bool), params, cfg)
    pieces = []
    for k in range(cfg.gat_heads):
        w = params[f"gat.h{k}.weight"].data
        pieces.append(x.data[0] @ w)  # alpha_ii = 1
    expected = np.concatenate(pieces, axis=-1)
    expected = np.where(expected > 0, expected, cfg.leaky_slope * expected)
    assert np.allclose(z.data[0], expected, atol=1e-6)


def test_gat_forward_matches_numpy_reference():
    # per step t and node i: softmax over j in N(i) + {i} of
    # leaky(a_src . h_ti + a_dst . h_tj), weighted sum of h_tj, heads
    # concatenated, outer leaky
    cfg = tiny_cfg(gat_heads=3)
    n, g = 6, cfg.gat_dim

    def leaky(v):
        return np.where(v > 0, v, cfg.leaky_slope * v)

    params = init_params(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, cfg.window, cfg.d_model))
    conn = rng.uniform(size=(n, n)) < 0.4
    np.fill_diagonal(conn, False)
    assert not np.array_equal(conn, conn.T)
    expected = np.zeros((n, cfg.window, cfg.gat_heads * g))
    for k in range(cfg.gat_heads):
        w = params[f"gat.h{k}.weight"].data
        a = params[f"gat.h{k}.attn"].data[:, 0]
        for t in range(cfg.window):
            h = x[:, t] @ w
            for i in range(n):
                nbrs = [j for j in range(n) if conn[i, j] or j == i]
                e = np.array([leaky(a[:g] @ h[i] + a[g:] @ h[j]) for j in nbrs])
                alpha = np.exp(e - e.max())
                expected[i, t, k * g:(k + 1) * g] = (alpha / alpha.sum()) @ h[nbrs]
    out = gat_forward(Tensor(x), conn, params, cfg).data
    np.testing.assert_allclose(out, leaky(expected), rtol=1e-10, atol=0)


def test_gat_allocates_one_dense_attention_tensor_per_head(monkeypatch):
    from tcgpn.tensorcore import memory
    cfg = tiny_cfg(gat_heads=3)
    params = init_params(cfg, seed=6)
    n = 40
    x, conn = random_inputs(cfg, n=n, seed=7, density=0.1)
    sizes = []
    note_alloc = memory.note_alloc
    monkeypatch.setattr(memory, "note_alloc", lambda nbytes: (sizes.append(nbytes), note_alloc(nbytes)))
    fused = Tensor(fuse_and_position(x, params, cfg).data)
    sizes.clear()
    with no_grad():
        gat_forward(fused, conn, params, cfg)
    dense = cfg.window * n * n * fused.data.itemsize  # one (T, N, N) attention tensor
    assert sizes.count(dense) == cfg.gat_heads


def test_gat_keeps_less_than_one_dense_attention_map_for_backward():
    """In grad mode the stage keeps per-edge weights for backward: what it
    leaves alive besides its output is less than one head's (T, N, N) map."""
    cfg = tiny_cfg()
    params = init_params(cfg, seed=6)
    n = 60
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    x = Tensor(np.random.default_rng(8).normal(size=(n, cfg.window, cfg.d_model)).astype(np.float32),
               requires_grad=True)
    before = memory.live_bytes()
    z = gat_forward(x, ring | ring.T, params, cfg)
    held = memory.live_bytes() - before - z.data.nbytes
    assert 0 < held < cfg.window * n * n * x.data.itemsize
    tc.sum(z).backward()
    assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad))


def test_gat_permutation_equivariant():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=5)
    x, conn = random_inputs(cfg, n=6, seed=3)
    with no_grad():
        base = gat_forward(fuse_and_position(x, params, cfg), conn, params, cfg).data
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.permutation(6)
            out = gat_forward(fuse_and_position(x[p], params, cfg), conn[np.ix_(p, p)],
                              params, cfg).data
            rel = np.abs(out - base[p]).max() / (np.abs(base).max() + 1e-8)
            assert rel < 1e-5


def test_gat_output_width_is_heads_times_dim():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    x, conn = random_inputs(cfg, n=4)
    z = gat_forward(fuse_and_position(x, params, cfg), conn, params, cfg)
    assert z.shape == (4, cfg.window, cfg.gat_heads * cfg.gat_dim)


# tgm block -----------------------------------------------------------------------


def test_tgm_future_perturbation_bitwise_invisible():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=6)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(3, cfg.window, cfg.d_model)).astype(np.float32)
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    with no_grad():
        base = tgm_block(Tensor(z), params, "enc.block0", cfg, decay).data
        for t in range(cfg.window - 1):
            pert = z.copy()
            pert[:, t + 1:] += rng.normal(0, 10, size=pert[:, t + 1:].shape).astype(np.float32)
            out = tgm_block(Tensor(pert), params, "enc.block0", cfg, decay).data
            assert np.array_equal(out[:, :t + 1], base[:, :t + 1])


def test_tgm_wide_sigma_matches_plain_causal_attention():
    cfg = tiny_cfg(sigma_h=1e9)
    params = init_params(cfg, seed=8, dtype=np.float64)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, cfg.window, cfg.d_model))
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    maps: list = []
    with no_grad():
        tgm_block(Tensor(z), params, "enc.block0", cfg, decay, attention_out=maps)
    weights = maps[0]

    # oracle: plain causal softmax attention, computed independently
    d, h = cfg.d_model, cfg.tgm_heads
    dk = d // h
    q = z @ params["enc.block0.attn.wq"].data + params["enc.block0.attn.bq"].data
    k = z @ params["enc.block0.attn.wk"].data
    q = q.reshape(2, cfg.window, h, dk).transpose(0, 2, 1, 3)
    k = k.reshape(2, cfg.window, h, dk).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    oracle = np.zeros_like(scores)
    for b in range(2):
        for head in range(h):
            for i in range(cfg.window):
                row = scores[b, head, i, :i + 1]
                e = np.exp(row - row.max())
                oracle[b, head, i, :i + 1] = e / e.sum()
    assert np.abs(weights - oracle).max() < 1e-6


def test_tgm_window_one_is_ffn_pathway():
    cfg = tiny_cfg(window=1)
    params = init_params(cfg, seed=9)
    z = np.random.default_rng(6).normal(size=(3, 1, cfg.d_model)).astype(np.float32)
    decay = gaussian_mask(1, cfg.sigma_h)
    maps: list = []
    with no_grad():
        tgm_block(Tensor(z), params, "enc.block0", cfg, decay, attention_out=maps)
    assert np.all(maps[0] == 1.0)  # singleton softmax


# end-to-end encoder ---------------------------------------------------------------


def test_encoder_permutation_equivariance_end_to_end():
    cfg = tiny_cfg(tgm_blocks=2)
    params = init_params(cfg, seed=10)
    x, conn = random_inputs(cfg, n=6, seed=7)
    rng = np.random.default_rng(1)
    with no_grad():
        base = encoder_forward(x, conn, params, cfg).data
        for _ in range(5):
            p = rng.permutation(6)
            out = encoder_forward(x[p], conn[np.ix_(p, p)], params, cfg).data
            rel = np.abs(out - base[p]).max() / (np.abs(base).max() + 1e-8)
            assert rel < 1e-5


def test_encoder_duplicated_node_twins_match():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=11)
    x, conn = random_inputs(cfg, n=4, seed=8)
    x2 = np.concatenate([x, x[[2]]], axis=0)
    conn2 = np.zeros((5, 5), bool)
    conn2[:4, :4] = conn
    conn2[4, :4] = conn[2]
    conn2[:4, 4] = conn[:, 2]
    with no_grad():
        out = encoder_forward(x2, conn2, params, cfg).data
    assert np.allclose(out[2], out[4], atol=1e-5)


def _within_cluster_share(x, clusters):
    """Share of cross-node variance that lies within clusters."""
    flat = x.reshape(x.shape[0], -1)
    total = ((flat - flat.mean(axis=0)) ** 2).sum()
    within = sum(((flat[c] - flat[c].mean(axis=0)) ** 2).sum() for c in clusters)
    return within / total


def test_gat_stage_keeps_clique_members_distinct():
    # Lead-lag clusters whose truth graph makes each cluster a clique: every
    # member has the same neighbour set, so GAT alone maps them to nearly one
    # vector. The graph stage must keep the members apart.
    spec = data.SyntheticSpec(n_clusters=4, nodes_per_cluster=5, noise_std=0.4,
                              length=60, seed=100)
    panel, graph = data.gen_synthetic(spec)
    window = data.window_samples(panel, 30, 1)[0]
    clusters = [np.arange(c * 5, c * 5 + 5) for c in range(4)]
    cfg = ModelConfig(n_features=4, d_model=24, gat_heads=2, gat_dim=8, tgm_blocks=0,
                      tgm_heads=4, window=30, d_a=8, ffn_hidden=48, head_hidden=48)
    for seed in range(3):
        params = init_params(cfg, seed=seed)
        with no_grad():
            fused = fuse_and_position(window.panel, params, cfg).data
            out = encoder_forward(window.panel, graph.weights != 0, params, cfg).data
        before = _within_cluster_share(fused, clusters)
        after = _within_cluster_share(out, clusters)
        assert after >= 0.5 * before, (seed, before, after)


def test_encoder_causality_end_to_end_exact():
    cfg = tiny_cfg(tgm_blocks=2)
    params = init_params(cfg, seed=12)
    x, conn = random_inputs(cfg, n=4, seed=9)
    rng = np.random.default_rng(2)
    with no_grad():
        base = encoder_forward(x, conn, params, cfg)
        base_dec = temporal_decoder(base, params, cfg).data
        for _ in range(10):
            t = rng.integers(0, cfg.window - 1)
            pert = x.copy()
            pert[:, t + 1:] += rng.normal(size=pert[:, t + 1:].shape)
            out = encoder_forward(pert, conn, params, cfg)
            dec = temporal_decoder(out, params, cfg).data
            assert np.array_equal(out.data[:, :t + 1], base.data[:, :t + 1])
            assert np.array_equal(dec[:, :t + 1], base_dec[:, :t + 1])


def test_encoder_without_gat_skips_gat_params():
    cfg = tiny_cfg(use_gat=False)
    params = init_params(cfg, seed=0)
    assert not any(p.startswith("gat.") for p in params.paths())
    x, conn = random_inputs(cfg, n=3)
    with no_grad():
        out = encoder_forward(x, conn, params, cfg)
    assert out.shape == (3, cfg.window, cfg.d_model)


def test_encoder_records_one_causal_attention_map_per_block():
    cfg = tiny_cfg(tgm_blocks=3)
    params = init_params(cfg, seed=13)
    x, conn = random_inputs(cfg, n=4, seed=10)
    maps: list = []
    with no_grad():
        out = encoder_forward(x, conn, params, cfg, attention_out=maps)
        plain = encoder_forward(x, conn, params, cfg)
    assert np.array_equal(out.data, plain.data)
    assert len(maps) == cfg.tgm_blocks
    above = np.triu(np.ones((cfg.window, cfg.window), dtype=bool), k=1)
    for m in maps:
        assert m.shape == (4, cfg.tgm_heads, cfg.window, cfg.window)
        assert np.allclose(m.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(m[..., above] == 0.0)


# decoders and head ----------------------------------------------------------------


def test_temporal_decoder_output_shape():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=13)
    x, conn = random_inputs(cfg, n=4)
    with no_grad():
        out = encoder_forward(x, conn, params, cfg)
        rec = temporal_decoder(out, params, cfg)
    assert rec.shape == x.shape


def test_adjacency_decoder_rank_bounded_by_factor_width():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=14)
    x, conn = random_inputs(cfg, n=7, seed=10)
    with no_grad():
        a_hat = adjacency_decoder(encoder_forward(x, conn, params, cfg), params).data
    rank = np.linalg.matrix_rank(a_hat, tol=1e-5)
    assert rank <= cfg.d_a


def test_adjacency_decoder_permutation():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=15)
    x, conn = random_inputs(cfg, n=5, seed=11)
    with no_grad():
        base = adjacency_decoder(encoder_forward(x, conn, params, cfg), params).data
        p = np.random.default_rng(3).permutation(5)
        out = adjacency_decoder(encoder_forward(x[p], conn[np.ix_(p, p)], params, cfg),
                                params).data
    rel = np.abs(out - base[np.ix_(p, p)]).max() / (np.abs(base).max() + 1e-8)
    assert rel < 1e-5


def test_adjacency_decoder_symmetric_when_factors_tied():
    cfg = tiny_cfg(d_a=8)  # square maps so identity weights are possible
    params = init_params(cfg, seed=16)
    eye = np.eye(cfg.d_model, cfg.d_a, dtype=np.float32)
    params["adj.left.weight"].data = eye.copy()
    params["adj.right.weight"].data = eye.copy()
    params["adj.left.bias"].data[:] = 0
    params["adj.right.bias"].data[:] = 0
    x, conn = random_inputs(cfg, n=5, seed=12)
    with no_grad():
        a_hat = adjacency_decoder(encoder_forward(x, conn, params, cfg), params).data
    assert np.allclose(a_hat, a_hat.T, atol=1e-5)


def test_head_zero_inner_weights_pure_residual_and_shape():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=17)
    for path in ("head.fc1.weight", "head.fc1.bias", "head.fc2.weight", "head.fc2.bias"):
        params[path].data[:] = 0.0
    o_l = np.random.default_rng(4).normal(size=(5, cfg.window, cfg.d_model)).astype(np.float32)
    with no_grad():
        y = finetune_head(Tensor(o_l), params, cfg)
    assert y.shape == (5,)
    flat = o_l.reshape(5, -1)
    expected = flat @ params["head.out.weight"].data + params["head.out.bias"].data
    assert np.allclose(y.data, expected[:, 0], atol=1e-6)


def test_head_permutation_equivariant():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=18)
    o_l = np.random.default_rng(5).normal(size=(6, cfg.window, cfg.d_model)).astype(np.float32)
    with no_grad():
        base = finetune_head(Tensor(o_l), params, cfg).data
        p = np.random.default_rng(6).permutation(6)
        out = finetune_head(Tensor(o_l[p]), params, cfg).data
    assert np.allclose(out, base[p], atol=1e-6)


# fused primitives ------------------------------------------------------------------

ACCEPT_MODEL = dict(n_features=4, d_model=24, gat_heads=2, gat_dim=8, tgm_blocks=1,
                    tgm_heads=4, window=30, d_a=8, ffn_hidden=48, head_hidden=48)


def _compose_affine_primitives(monkeypatch):
    """Route every `tc.linear` and affine `tc.normalize` call back through the
    compositions they fused: a matmul then `+ b`, and normalize then
    `* gamma + beta`."""
    linear, normalize = tc.linear, tc.normalize

    def composed_linear(x, w, b=None):
        out = linear(x, w)
        return out if b is None else out + b

    def composed_normalize(a, eps, gamma=None, beta=None):
        out = normalize(a, eps)
        return out if gamma is None else out * gamma + beta

    monkeypatch.setattr(tc, "linear", composed_linear)
    monkeypatch.setattr(tc, "normalize", composed_normalize)


def _run_all_stages(cfg, dtype):
    sample, window, graph = checks.make_check_sample(cfg, 20, seed=5)
    params = init_params(cfg, seed=3, dtype=dtype)
    with no_grad():
        o_l = encoder_forward(window.panel, graph.weights != 0, params, cfg)
        outputs = [o_l.data, temporal_decoder(o_l, params, cfg).data,
                   adjacency_decoder(o_l, params).data, finetune_head(o_l, params, cfg).data]
    train_cfg = train.TrainConfig(epochs=1, r_t=0.3, r_g=0.3)
    combined, _, _ = train.pretrain_sample_losses(sample, params, cfg, train_cfg)
    combined.backward()
    return outputs, {p: t.grad for p, t in params.items() if t.grad is not None}


def test_fused_linear_and_layer_norm_match_their_compositions(monkeypatch):
    cfg = ModelConfig(**ACCEPT_MODEL)
    for dtype in (np.float32, np.float64):
        fused_out, fused_grads = _run_all_stages(cfg, dtype)
        with monkeypatch.context() as m:
            _compose_affine_primitives(m)
            composed_out, composed_grads = _run_all_stages(cfg, dtype)
        for fused, composed in zip(fused_out, composed_out):
            assert fused.dtype == dtype and np.array_equal(fused, composed)
        if dtype == np.float64:
            assert fused_grads.keys() == composed_grads.keys()
            for path, grad in fused_grads.items():
                assert np.abs(grad - composed_grads[path]).max() < 1e-12, path


def _forward_tensor_count(monkeypatch):
    cfg = ModelConfig(**ACCEPT_MODEL)
    sample, _, _ = checks.make_check_sample(cfg, 20, seed=5)
    params = init_params(cfg, seed=3)
    counted = []
    note_alloc = memory.note_alloc
    with monkeypatch.context() as m:
        m.setattr(memory, "note_alloc", lambda nbytes: (counted.append(nbytes), note_alloc(nbytes)))
        train.pretrain_sample_losses(sample, params, cfg, train.TrainConfig(epochs=1, r_t=0.3, r_g=0.3))
    return len(counted)


def test_pretrain_forward_tensor_count_is_pinned(monkeypatch):
    fused = _forward_tensor_count(monkeypatch)
    # 15 biased linear layers and 4 layer norms: 15 + 2 * 4 fewer nodes than composed.
    # The temporal decoder's masked-step gather and scatter add 4 nodes to each: the
    # one-hot constant, its transpose's gather matmul, and the same for the scatter.
    # tc.attention keeps 2 tensors per block (its output and its weights) where the
    # composition built 14, and the acceptance model has 2 blocks (1 encoder, 1
    # decoder): 95 - 12 * 2 = 71. The GAT's one contiguous time-major copy adds 2
    # (the copying reshape and its reshape back to (T, N, d)): 73. tc.graph_attention
    # counts its output, its (T, H, E) edge weights and each of the 2 heads' dense
    # (T, N, N) scratch while it lives, 4 in all, where each head's edge softmax and
    # matmul and the head concat made 2 * 2 + 1 = 5: 72. The node also applies the
    # LeakyReLU and writes node-major, so no leaky_relu or transpose result follows
    # it: 70.
    _compose_affine_primitives(monkeypatch)
    assert (fused, _forward_tensor_count(monkeypatch)) == (70, 93)


def test_attention_node_matches_its_composition_over_a_whole_sample(monkeypatch):
    """One float32 pretraining sample at acceptance scale, forward and
    backward, with tc.attention and with its composition: the loss and every
    parameter gradient are bitwise equal."""
    cfg = ModelConfig(**ACCEPT_MODEL)
    sample, _, _ = checks.make_check_sample(cfg, 20, seed=5)
    train_cfg = train.TrainConfig(epochs=1, r_t=0.3, r_g=0.3)
    runs, calls = [], []

    def recorded(q, k, v, decay, heads):
        calls.append(decay.shape)
        return composed_attention(q, k, v, decay, heads)

    for compose in (False, True):
        with monkeypatch.context() as m:
            if compose:
                m.setattr(tc, "attention", recorded)
            params = init_params(cfg, seed=3, dtype=np.float32)
            combined, l_t, l_g = train.pretrain_sample_losses(sample, params, cfg, train_cfg)
            combined.backward()
        runs.append(([combined.data, l_t.data, l_g.data], {p: t.grad for p, t in params.items()}))
    assert calls == [(cfg.window, cfg.window), (20, 1, 9, cfg.window)]  # the encoder and decoder blocks
    (fused_losses, fused_grads), (composed_losses, composed_grads) = runs
    for fused, composed in zip(fused_losses, composed_losses):
        assert fused.dtype == np.float32 and np.array_equal(fused, composed)
    assert fused_grads.keys() == composed_grads.keys()
    for path, grad in fused_grads.items():
        assert (grad is None) == (composed_grads[path] is None), path
        assert grad is None or np.array_equal(grad, composed_grads[path]), path


# decoding only the masked steps -----------------------------------------------------


def _step_masks(n, t, rng):
    """Equal-count (N, T) step masks: a contiguous 9-step span per node as
    `augment.mask_temporal` hides, 9 scattered steps, one step, every step."""
    starts = rng.integers(0, t - 8, size=n)[:, None]
    steps = np.arange(t)[None, :]
    scattered = np.zeros((n, t), dtype=bool)
    for i in range(n):
        scattered[i, rng.choice(t, size=9, replace=False)] = True
    single = np.zeros((n, t), dtype=bool)
    single[np.arange(n), rng.integers(0, t, size=n)] = True
    return {"span": (steps >= starts) & (steps < starts + 9), "scattered": scattered,
            "single": single, "all": np.ones((n, t), dtype=bool)}


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_masked_temporal_decoder_matches_full_decoder_rows(dtype, tol):
    cfg = ModelConfig(**ACCEPT_MODEL)
    params = init_params(cfg, seed=3, dtype=dtype)
    x, conn = random_inputs(cfg, n=20, seed=4)
    with no_grad():
        o_l = encoder_forward(x, conn, params, cfg)
        full = temporal_decoder(o_l, params, cfg).data
        for name, mask in _step_masks(20, cfg.window, np.random.default_rng(6)).items():
            rec = temporal_decoder(o_l, params, cfg, mask).data
            assert rec.dtype == dtype and rec.shape == full.shape, name
            assert np.all(rec[~mask] == 0.0), name
            assert np.abs(rec[mask] - full[mask]).max() <= tol * np.abs(full[mask]).max(), name


def test_masked_temporal_decoder_gradients_match_full_decoder(monkeypatch):
    cfg = ModelConfig(**ACCEPT_MODEL)
    sample, _, _ = checks.make_check_sample(cfg, 20, seed=5)
    assert np.all(sample.panel.mask_positions.sum(axis=1) == 9)  # 9 of 30 steps hidden
    train_cfg = train.TrainConfig(epochs=1, r_t=0.3, r_g=0.3)

    def grads():
        params = init_params(cfg, seed=3, dtype=np.float64)
        combined, l_t, _ = train.pretrain_sample_losses(sample, params, cfg, train_cfg)
        combined.backward()
        return float(l_t.data), {p: t.grad for p, t in params.items() if t.grad is not None}

    l_t, masked = grads()
    decoder = model.temporal_decoder
    monkeypatch.setattr(model, "temporal_decoder",
                        lambda o_l, params, cfg, mask=None: decoder(o_l, params, cfg))
    full_l_t, full = grads()
    assert abs(l_t - full_l_t) < 1e-12
    assert masked.keys() == full.keys()
    for path, grad in masked.items():
        assert np.abs(grad - full[path]).max() < 1e-12, path


def test_temporal_decoder_rejects_unequal_step_counts():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=13)
    x, conn = random_inputs(cfg, n=4)
    mask = np.zeros((4, cfg.window), dtype=bool)
    mask[:, 2] = True
    with no_grad():
        o_l = encoder_forward(x, conn, params, cfg)
        temporal_decoder(o_l, params, cfg, mask)
        mask[1, 3] = True
        with pytest.raises(ValueError, match="step count"):
            temporal_decoder(o_l, params, cfg, mask)
        with pytest.raises(ValueError, match="step count"):
            temporal_decoder(o_l, params, cfg, mask[:3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tgm_block_queries_default_to_x(dtype):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=19, dtype=dtype)
    x = Tensor(np.random.default_rng(7).normal(size=(4, cfg.window, cfg.d_model)).astype(dtype))
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    with no_grad():
        plain = tgm_block(x, params, "enc.block0", cfg, decay).data
        queried = tgm_block(x, params, "enc.block0", cfg, decay, queries=x).data
    assert np.array_equal(plain, queried)


def test_no_grad_tgm_block_frees_attention_before_feed_forward():
    """Under no_grad the block's counted peak above its input is that of the
    attention stage or of the feed-forward, not of both together."""
    cfg = tiny_cfg()
    n, t, d = 6, cfg.window, cfg.d_model
    params = init_params(cfg, seed=19)
    x = Tensor(np.random.default_rng(9).normal(size=(n, t, d)))
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    memory.reset_peak()
    base = memory.live_bytes()
    with no_grad():
        out = tgm_block(x, params, "enc.block0", cfg, decay)
    peak = memory.peak_bytes() - base
    row = n * t * x.data.itemsize  # bytes of one (N, T, 1) slice
    attention_stage = 4 * row * d + row * cfg.tgm_heads * t  # q, k, v, weights and output
    feed_forward = row * d + 2 * row * cfg.ffn_hidden  # x1 and two hidden layers
    assert out.shape == x.shape
    assert peak <= max(attention_stage, feed_forward), (peak, attention_stage, feed_forward)


def test_temporal_decoder_runs_query_side_on_masked_steps_only(monkeypatch):
    cfg = ModelConfig(**ACCEPT_MODEL)
    sample, _, _ = checks.make_check_sample(cfg, 20, seed=5)
    mask = sample.panel.mask_positions
    n, t = mask.shape
    params = init_params(cfg, seed=3)
    with no_grad():
        o_l = encoder_forward(sample.panel.values, sample.graph.connectivity(), params, cfg)
    sizes = []
    note_alloc = memory.note_alloc
    monkeypatch.setattr(memory, "note_alloc", lambda nbytes: (sizes.append(nbytes), note_alloc(nbytes)))
    temporal_decoder(o_l, params, cfg, mask)
    full_ffn = n * t * cfg.ffn_hidden * o_l.data.itemsize  # the feed-forward over every step
    # nothing that size or larger: neither that hidden layer nor the (N, H, T, T) attention
    assert max(sizes) < full_ffn


# config and parameters --------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(n_features=3, d_model=10, tgm_heads=4)
    with pytest.raises(ValueError, match="sigma_h"):
        ModelConfig(n_features=3, sigma_h=-1.0)
    with pytest.raises(ValueError, match="single block"):
        ModelConfig(n_features=3, decoder_blocks=2)


def test_config_defaults_derived():
    cfg = ModelConfig(n_features=5)
    assert cfg.sigma_h == 7.5  # window/4
    assert cfg.ffn_hidden == 256 and cfg.head_hidden == 256
    assert cfg.gat_out == 128
    assert ModelConfig(**cfg.to_dict()) == cfg


def test_init_deterministic_and_complete():
    cfg = tiny_cfg()
    a = init_params(cfg, seed=21)
    b = init_params(cfg, seed=21)
    assert a.paths() == b.paths()
    for p in a.paths():
        assert np.array_equal(a[p].data, b[p].data)
    assert a.shapes() == model.param_shapes(cfg)
    # layer norms start at identity, biases at zero
    assert np.all(a["enc.block0.ln1.gamma"].data == 1.0)
    assert np.all(a["fuse.bias"].data == 0.0)
