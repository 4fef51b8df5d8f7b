"""Acceptance suite: one test per criterion, each printing a PASS line.

Quantitative training criteria run on the synthetic lead-lag benchmark; the
shared 3-seed pretrain/fine-tune runs live in a module-scoped fixture
(`synthetic_runs`) so the efficacy and ablation checks reuse the same models.
"""

import gc
import math
import time

import numpy as np
import pytest

from tcgpn import augment, backtest, checks, config, data, losses, model, train
from tcgpn.tensorcore import Tensor, memory, no_grad


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def tiny_cfg32(**over):
    base = dict(n_features=3, d_model=8, gat_heads=2, gat_dim=4, tgm_blocks=1,
                tgm_heads=2, window=8, d_a=4, ffn_hidden=16, head_hidden=16)
    base.update(over)
    return model.ModelConfig(**base)


# 1. gradient fidelity --------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    reports = checks.run_gradient_checks(size="tiny", eps=1e-5, tol=1e-4, seed=17)
    elapsed = time.time() - t0
    for name, rep in reports.items():
        assert rep.ok(), f"{name}: {[(c.path, c.max_rel_err) for c in rep.failed()]}"
        assert rep.max_rel_err < 1e-4
    assert elapsed < 60.0
    report("1 gradient fidelity",
           f"pretrain {reports['pretrain'].max_rel_err:.2e}, "
           f"finetune {reports['finetune'].max_rel_err:.2e}, {elapsed:.1f}s")


# 2. causality ----------------------------------------------------------------------


def test_criterion_2_causality_exact():
    cfg = tiny_cfg32(tgm_blocks=2)
    params = model.init_params(cfg, seed=5)
    rng = np.random.default_rng(41)
    sample, window, graph = checks.make_check_sample(cfg, 4, seed=3)
    conn = sample.graph.connectivity()
    x = sample.panel.values
    with no_grad():
        base = model.encoder_forward(x, conn, params, cfg)
        base_dec = model.temporal_decoder(base, params, cfg).data
        for trial in range(200):
            t = int(rng.integers(0, cfg.window - 1))
            pert = x.copy()
            pert[:, t + 1:, :] += rng.normal(0, 3.0, size=pert[:, t + 1:, :].shape)
            out = model.encoder_forward(pert, conn, params, cfg)
            dec = model.temporal_decoder(out, params, cfg).data
            assert np.array_equal(out.data[:, :t + 1], base.data[:, :t + 1]), trial
            assert np.array_equal(dec[:, :t + 1], base_dec[:, :t + 1]), trial
    report("2 causality", "200 future-perturbation trials changed earlier outputs by exactly 0")


# 3. node-order invariance ------------------------------------------------------------


def test_criterion_3_permutation_equivariance():
    cfg = tiny_cfg32(tgm_blocks=2)
    params = model.init_params(cfg, seed=7, dtype=np.float32)
    rng = np.random.default_rng(11)
    n = 6
    x = rng.normal(size=(n, cfg.window, cfg.n_features))
    conn = rng.uniform(size=(n, n)) < 0.4
    np.fill_diagonal(conn, False)
    worst = 0.0
    with no_grad():
        base = model.encoder_forward(x, conn, params, cfg)
        base_adj = model.adjacency_decoder(base, params).data
        base_y = model.finetune_head(base, params, cfg).data
        for _ in range(100):
            p = rng.permutation(n)
            out = model.encoder_forward(x[p], conn[np.ix_(p, p)], params, cfg)
            adj = model.adjacency_decoder(out, params).data
            y = model.finetune_head(out, params, cfg).data
            worst = max(
                worst,
                np.abs(out.data - base.data[p]).max() / (np.abs(base.data).max() + 1e-8),
                np.abs(adj - base_adj[np.ix_(p, p)]).max() / (np.abs(base_adj).max() + 1e-8),
                np.abs(y - base_y[p]).max() / (np.abs(base_y).max() + 1e-8),
            )
    assert worst < 1e-5
    report("3 node-order invariance", f"100 permutations, worst relative error {worst:.2e}")


# 4. mask locality --------------------------------------------------------------------


def test_criterion_4_mask_locality():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 7, 3))
    x_r = Tensor(rng.normal(size=(4, 7, 3)), requires_grad=True)
    mask = np.zeros((4, 7), bool)
    mask[rng.uniform(size=(4, 7)) < 0.3] = True
    mask[0, 0] = True  # ensure non-empty
    losses.loss_temporal(x, x_r, mask).backward()
    off = ~np.broadcast_to(mask[:, :, None], x.shape)
    assert np.all(x_r.grad[off] == 0.0)
    assert np.any(x_r.grad[~off] != 0.0)

    a = rng.uniform(0.1, 2.0, size=(5, 5))
    np.fill_diagonal(a, 0.0)
    kept = rng.uniform(size=(5, 5)) < 0.7
    kept[0, 1] = True
    a_hat = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
    losses.loss_graph(a, a_hat, kept).backward()
    assert np.all(a_hat.grad[~kept] == 0.0)
    assert np.any(a_hat.grad[kept] != 0.0)
    report("4 mask locality", "temporal grads zero off-mask; graph grads zero at masked entries")


# 5. metrics oracle -------------------------------------------------------------------


def brute_force_metrics(daily, trading_days=252):
    daily = list(map(float, daily))
    n = len(daily)
    cumulative = [sum(daily[:i + 1]) for i in range(n)]
    mean = sum(daily) / n
    ar = mean * trading_days
    var = sum((d - mean) ** 2 for d in daily) / (n - 1)
    vol = math.sqrt(var) * math.sqrt(trading_days)
    mdd = max(cumulative[i] - cumulative[j] for i in range(n) for j in range(i, n))
    mdd = max(mdd, 0.0)
    gains = [d for d in daily if d > 0]
    pains = [d for d in daily if d < 0]
    return {
        "pnl": cumulative[-1], "ar": ar, "vol": vol,
        "sharpe": ar / vol if vol > 0 else None,
        "mdd": mdd, "calmar": ar / mdd if mdd > 0 else None,
        "winr": sum(1 for d in daily if d > 0) / n,
        "pl_ratio": (sum(gains) / len(gains)) / abs(sum(pains) / len(pains))
        if gains and pains else None,
    }


def test_criterion_5_metrics_oracle_equivalence():
    base = np.datetime64("2021-01-01")
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        daily = rng.normal(0, 0.02, size=n)
        dates = [str(base + np.timedelta64(i, "D")) for i in range(n)]
        got = backtest.compute_metrics(backtest.PnlSeries.from_daily(dates, daily))
        want = brute_force_metrics(daily)
        for key, expected in want.items():
            actual = getattr(got, key)
            if expected is None:
                assert actual is None
            else:
                worst = max(worst, abs(actual - expected))
                assert abs(actual - expected) <= 1e-9, (key, trial)
    hand = backtest.compute_metrics(backtest.PnlSeries.from_daily(
        [str(base + np.timedelta64(i, "D")) for i in range(3)], [1.0, -2.0, 1.0]))
    assert hand.mdd == pytest.approx(2.0)
    assert hand.winr == pytest.approx(2 / 3)
    assert hand.pl_ratio == pytest.approx(0.5)
    report("5 metrics oracle", f"100 random series, max |engine - oracle| = {worst:.1e}")


# synthetic benchmark shared by criteria 6-8 -------------------------------------------

BENCH_MODEL = dict(n_features=4, d_model=24, gat_heads=2, gat_dim=8, tgm_blocks=1,
                   tgm_heads=4, window=30, d_a=8, ffn_hidden=48, head_hidden=48)
PRETRAIN_LR = 2e-3
FINETUNE_LR = 5e-3


def bench_data(seed: int, noise: float, length: int, stride_train: int = 2):
    spec = data.SyntheticSpec(n_clusters=4, nodes_per_cluster=5, lag=1,
                              noise_std=noise, length=length, seed=seed)
    panel, graph = data.gen_synthetic(spec)
    parts = data.split_by_fraction(panel, 0.7, 0.15)
    stats = data.feature_stats(parts[0])
    parts = tuple(data.standardize(p, stats) for p in parts)
    wtrain = data.window_samples(parts[0], 30, stride_train)
    wval = data.window_samples(parts[1], 30, 1)
    return parts, wtrain, wval, graph


@pytest.mark.slow
def test_criterion_6_pretraining_beats_mean_imputation():
    t0 = time.time()
    parts, wtrain, wval, graph = bench_data(seed=0, noise=0.0, length=600)
    mcfg = model.ModelConfig(**BENCH_MODEL)
    cfg = train.TrainConfig(epochs=25, batch_size=8, learning_rate=PRETRAIN_LR,
                            r_t=0.3, r_g=0.3, seed=0, early_stop_patience=1000)
    result = train.pretrain(wtrain, wval, graph, mcfg, cfg)
    recon, baseline = train.masked_reconstruction_mse(result.params, mcfg, cfg, wval, graph)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert recon < 0.5 * baseline, f"recon {recon:.4f} vs baseline {baseline:.4f}"
    report("6 pretraining efficacy",
           f"masked-recon MSE {recon:.4f} < 0.5 x mean-imputation {baseline:.4f} "
           f"(ratio {recon / baseline:.2f}) in {elapsed:.0f}s / 25 epochs")


@pytest.fixture(scope="module")
def synthetic_runs():
    """Pretrain + fine-tune across 3 seeds: full model, no-GAT, no-graph-loss,
    plus the scratch and persistence baselines."""
    noise, length = 0.4, 300
    rows = []
    for seed in range(3):
        parts, wtrain, wval, graph = bench_data(seed=100 + seed, noise=noise, length=length)
        fine_cfg = train.TrainConfig(epochs=80, batch_size=8, learning_rate=FINETUNE_LR,
                                     seed=seed, early_stop_patience=1000)

        def pretrain_and_tune(use_gat=True, use_graph_loss=True):
            mcfg = model.ModelConfig(**{**BENCH_MODEL, "use_gat": use_gat})
            pre_cfg = train.TrainConfig(epochs=30, batch_size=8, learning_rate=PRETRAIN_LR,
                                        r_t=0.3, r_g=0.3, seed=seed,
                                        early_stop_patience=1000,
                                        use_graph_loss=use_graph_loss)
            pre = train.pretrain(wtrain, wval, graph, mcfg, pre_cfg)
            fine = train.finetune(pre.params, wtrain, wval, graph, mcfg, fine_cfg)
            return fine.best_val

        mcfg_full = model.ModelConfig(**BENCH_MODEL)
        rows.append({
            "full": pretrain_and_tune(),
            "no_gat": pretrain_and_tune(use_gat=False),
            "no_graph_loss": pretrain_and_tune(use_graph_loss=False),
            "scratch": train.finetune(model.init_params(mcfg_full, seed=seed + 500),
                                      wtrain, wval, graph, mcfg_full, fine_cfg).best_val,
            "persistence": train.persistence_ic(parts[1], wval),
        })
    return rows


@pytest.mark.slow
def test_criterion_7_finetune_beats_baselines(synthetic_runs):
    mean = {k: float(np.mean([r[k] for r in synthetic_runs])) for k in synthetic_runs[0]}
    assert mean["full"] >= mean["persistence"] + 0.05, mean
    assert mean["full"] >= mean["scratch"] + 0.05, mean
    report("7 fine-tuning efficacy",
           f"IC full {mean['full']:.3f} vs persistence {mean['persistence']:.3f} "
           f"and scratch {mean['scratch']:.3f} (3 seeds)")


@pytest.mark.slow
def test_criterion_8_ablation_directions(synthetic_runs):
    mean = {k: float(np.mean([r[k] for r in synthetic_runs])) for k in synthetic_runs[0]}
    assert mean["full"] > mean["no_gat"], mean
    assert mean["full"] > mean["no_graph_loss"], mean
    report("8 ablation directions",
           f"IC full {mean['full']:.3f} > no-GAT {mean['no_gat']:.3f} "
           f"and > no-graph-loss {mean['no_graph_loss']:.3f} (3 seeds)")


# 9. memory contract -------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_subsampling_bounds_memory():
    spec = data.SyntheticSpec(n_clusters=100, nodes_per_cluster=5, lag=1,
                              noise_std=0.0, length=10, seed=0)
    panel, graph = data.gen_synthetic(spec)
    windows = data.window_samples(panel, 4, 1)[:2]
    mcfg = model.ModelConfig(n_features=4, d_model=8, gat_heads=1, gat_dim=4,
                             tgm_blocks=1, tgm_heads=1, window=4, d_a=4,
                             ffn_hidden=8, head_hidden=8)

    def peak_for(n_sub: int) -> int:
        cfg = train.TrainConfig(epochs=1, batch_size=1, n_sub=n_sub, seed=0,
                                early_stop_patience=5)
        gc.collect()
        memory.reset_peak()
        base = memory.live_bytes()
        train.pretrain(windows, [], graph, mcfg, cfg)
        gc.collect()
        return memory.peak_bytes() - base

    sub = peak_for(50)
    full = peak_for(500)
    assert sub < 0.05 * full, (sub, full)
    report("9 memory contract",
           f"peak {sub / 1e6:.2f} MB at n_sub=50 vs {full / 1e6:.2f} MB at "
           f"n_sub=500 ({sub / full:.1%} < 5%)")


# 10. paper-default config snapshot -----------------------------------------------------


def test_criterion_10_default_config_snapshot(tmp_path):
    values = config.defaults()
    snapshot = {
        "r_t": 0.3, "r_g": 0.3, "lambda_m": 0.3, "window": 30,
        "gat_heads": 4, "gat_dim": 32, "tgm_heads": 8, "d_model": 128,
        "decoder_blocks": 1,
    }
    for key, expected in snapshot.items():
        assert values[key] == expected, key
    path = tmp_path / "resolved.txt"
    config.dump(values, path)
    assert config.load_file(path) == values
    mc = config.to_model_config(values, n_features=45)
    assert (mc.gat_heads, mc.gat_dim, mc.tgm_heads, mc.d_model, mc.decoder_blocks) == \
        (4, 32, 8, 128, 1)
    report("10 config snapshot", "paper defaults load and round-trip")
