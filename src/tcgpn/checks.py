"""End-to-end gradient fidelity checks.

Builds a small random sample, composes the full pretraining loss and the
full fine-tuning loss, and verifies every parameter path against central
finite differences in double precision.
"""

from __future__ import annotations

import numpy as np

from . import augment, losses, model, train
from .data import WindowSample
from .graphs import CorrelationGraph, mask_edges
from .tensorcore import GradCheckReport, ParamStore, grad_check

SIZES = {
    # (nodes, window, features, d_model, gat_heads, gat_dim, tgm_blocks, tgm_heads, d_a)
    "tiny": (4, 8, 3, 8, 2, 4, 1, 2, 4),
    "small": (6, 12, 4, 16, 2, 8, 2, 4, 8),
}


def make_check_sample(cfg: model.ModelConfig, n_nodes: int, seed: int = 0,
                      r_t: float = 0.3, r_g: float = 0.3
                      ) -> tuple[augment.MaskedSample, WindowSample, CorrelationGraph]:
    """Random dense-ish graph and panel window, plus its masked version."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, size=(n_nodes, n_nodes))
    weights[rng.uniform(size=(n_nodes, n_nodes)) < 0.4] = 0.0
    np.fill_diagonal(weights, 0.0)
    graph = CorrelationGraph(n_nodes=n_nodes, weights=weights, directed=True,
                             node_ids=[f"N{i}" for i in range(n_nodes)])
    panel = rng.normal(size=(n_nodes, cfg.window, cfg.n_features))
    target = rng.normal(size=n_nodes)
    window = WindowSample(panel=panel, target=target, end_date="2020-01-31",
                          end_index=cfg.window - 1, node_ids=list(graph.node_ids))
    sample = augment.MaskedSample(
        panel=augment.mask_temporal(window, r_t, seed + 1),
        graph=mask_edges(graph, r_g, seed + 2),
        original_values=window.panel,
    )
    return sample, window, graph


def finetune_loss_fn(window: WindowSample, graph: CorrelationGraph,
                     cfg: model.ModelConfig, lambda_m: float = 0.3):
    conn = graph.connectivity()

    def fn(params: ParamStore):
        out = model.encoder_forward(window.panel, conn, params, cfg)
        y_hat = model.finetune_head(out, params, cfg)
        total, _, _ = losses.loss_finetune(y_hat, window.target, lambda_m)
        return total
    return fn


def run_gradient_checks(size: str = "tiny", eps: float = 1e-5, tol: float = 1e-4,
                        seed: int = 17) -> dict[str, GradCheckReport]:
    """Finite-difference check of the full pretrain and fine-tune losses over
    every parameter path, in float64.

    The default probe seed gives a sample whose near-zero gradient entries
    are exact structural zeros; seeds drawing entries in the 1e-8..1e-6 band
    report finite-difference rounding noise rather than gradient errors.
    """
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {sorted(SIZES)}")
    n_nodes, steps, feats, d_model, gh, gd, blocks, th, d_a = SIZES[size]
    cfg = model.ModelConfig(
        n_features=feats, d_model=d_model, gat_heads=gh, gat_dim=gd,
        tgm_blocks=blocks, tgm_heads=th, window=steps, d_a=d_a,
    )
    sample, window, graph = make_check_sample(cfg, n_nodes, seed=seed)
    params = model.init_params(cfg, seed=seed, dtype=np.float64)
    train_cfg = train.TrainConfig(epochs=1, r_t=0.3, r_g=0.3)

    def pretrain_loss(p: ParamStore):
        return train.pretrain_sample_losses(sample, p, cfg, train_cfg)[0]

    return {
        "pretrain": grad_check(pretrain_loss, params, eps=eps, tol=tol),
        "finetune": grad_check(finetune_loss_fn(window, graph, cfg), params, eps=eps, tol=tol),
    }
