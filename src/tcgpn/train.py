"""Pretraining and fine-tuning, one training loop for both.

Pretraining: window -> node subset -> temporal + graph masking -> encoder ->
both decoders -> combined loss. Fine-tuning keeps the encoder frozen: it
encodes each unmasked training and validation window once, then trains only
the prediction head on those encodings.

Both phases run `_fit`: per batch each sample's backward adds its gradient
onto the parameters and Adam steps on their mean, then after each epoch it
validates, keeps the best parameters and stops after `early_stop_patience`
epochs without improvement. Pretraining validates on masked-reconstruction
loss, fine-tuning on IC. With no validation windows, both phases score an
epoch by its mean training loss.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import augment, backtest, losses, model
from .data import TimePanel, WindowSample
from .graphs import CorrelationGraph
from .tensorcore import Adam, ParamStore, Tensor, no_grad, save_checkpoint, load_checkpoint
from .tensorcore.checkpoint import atomic_write


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 8
    n_sub: int = 0  # nodes per sampled sub-sample; 0 keeps all
    r_t: float = 0.3
    r_g: float = 0.3
    beta: float = 1.0
    lambda_m: float = 0.3
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10
    use_temporal_loss: bool = True
    use_graph_loss: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not (0 <= self.r_t < 1 and 0 <= self.r_g < 1):
            raise ValueError("mask rates must be in [0, 1)")
        if self.n_sub < 0 or self.n_sub == 1:
            raise ValueError(f"n_sub must be 0 (all nodes) or >= 2, got {self.n_sub}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lambda_m < 0:
            raise ValueError("lambda_m must be non-negative")


@dataclass
class TrainResult:
    params: ParamStore
    history: list[losses.LossReport] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)
    best_val: float = np.nan
    checkpoint_path: str | None = None


# Seed component that keeps validation masks apart from every training mask.
_VALIDATION_MASK_SEED = 999_983


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _fit(phase: str, params: ParamStore, items: list, sample_loss, validate,
         model_cfg: model.ModelConfig, cfg: TrainConfig,
         run_dir: str | Path | None, verbose: bool, *, minimize: bool) -> TrainResult:
    """The training loop both phases share.

    sample_loss(item, seed, step) returns one training item's loss tensor
    and its LossReport. validate(params) scores an epoch, lower is better
    when minimize; with validate None the score is the epoch's mean training
    loss (negated when higher is better). The best-scoring parameters are
    returned and, with a run_dir, saved with the step log.
    """
    opt = Adam(lr=cfg.learning_rate)
    result = TrainResult(params=params)
    best = np.inf if minimize else -np.inf
    best_params = params.clone()
    stale = 0
    step = 0
    for epoch in range(cfg.epochs):
        step_losses = []
        for b, start in enumerate(range(0, len(items), cfg.batch_size)):
            batch = items[start:start + cfg.batch_size]
            reports = []
            params.zero_grad()
            for j, item in enumerate(batch):
                seed = _derive_seed(cfg.seed, epoch, b, j)
                loss, report = sample_loss(item, seed, step)
                if not np.isfinite(loss.data):
                    raise RuntimeError(f"non-finite {phase} loss (epoch {epoch}, batch {b}, "
                                       f"window {start + j}, sample seed {seed})")
                loss.backward()  # adds this sample's gradient onto the leaves
                del loss  # free this sample's graph before the next one's forward
                reports.append(report)
            opt.step(params, {p: t.grad * (1.0 / len(batch)) for p, t in params.items()
                              if t.grad is not None})
            result.history.append(losses.LossReport.merge(step, reports))
            step_losses.append(result.history[-1].total)
            step += 1
        if validate is not None:
            score = validate(params)
        else:
            score = float(np.mean(step_losses))
            score = score if minimize else -score
        result.val_history.append((epoch, score))
        if verbose:
            print(f"epoch {epoch}: {phase} loss {step_losses[-1]:.5f} val {score:.5f}")
        if (score < best) if minimize else (score > best):
            best = score
            best_params = params.clone()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break
    result.params = best_params
    result.best_val = best
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        ckpt = run_dir / {"pretrain": "pretrained.ckpt", "finetune": "finetuned.ckpt"}[phase]
        save_checkpoint(ckpt, best_params, config={"model": model_cfg.to_dict(),
                                                   "train": asdict(cfg), "phase": phase})
        losses.write_loss_log(run_dir / f"{phase}_log.csv", result.history)
        result.checkpoint_path = str(ckpt)
    return result


def pretrain_sample_losses(sample: augment.MaskedSample, params: ParamStore,
                           model_cfg: model.ModelConfig, cfg: TrainConfig):
    """Forward one masked sample through encoder and decoders; returns
    (combined, l_t, l_g) loss tensors (either task may be None)."""
    out = model.encoder_forward(sample.panel.values, sample.graph.connectivity(), params, model_cfg)
    l_t = None
    l_g = None
    if cfg.use_temporal_loss and sample.panel.mask_positions.any():
        x_r = model.temporal_decoder(out, params, model_cfg, sample.panel.mask_positions)
        l_t = losses.loss_temporal(sample.original_values, x_r, sample.panel.mask_positions)
    if cfg.use_graph_loss:
        a_hat = model.adjacency_decoder(out, params)
        l_g = losses.loss_graph(sample.graph.base.weights, a_hat, sample.graph.mask_kept)
    combined = losses.loss_pretrain(l_t, l_g, cfg.beta)
    return combined, l_t, l_g


def _make_sample(window: WindowSample, graph: CorrelationGraph, cfg: TrainConfig,
                 seed: int) -> augment.MaskedSample:
    n_sub = cfg.n_sub if 0 < cfg.n_sub < window.n_nodes else None
    return augment.make_masked_sample(window, graph, cfg.r_t, cfg.r_g, seed, n_sub=n_sub)


def _pretrain_validation(windows: list[WindowSample], graph: CorrelationGraph,
                         params: ParamStore, model_cfg: model.ModelConfig,
                         cfg: TrainConfig) -> float:
    """Mean combined validation loss on deterministic masks."""
    totals = []
    with no_grad():
        for i, window in enumerate(windows):
            seed = _derive_seed(cfg.seed, _VALIDATION_MASK_SEED, i)
            sample = _make_sample(window, graph, cfg, seed)
            combined, _, _ = pretrain_sample_losses(sample, params, model_cfg, cfg)
            totals.append(float(combined.data))
    return float(np.mean(totals))


def pretrain(train_windows: list[WindowSample], val_windows: list[WindowSample],
             graph: CorrelationGraph, model_cfg: model.ModelConfig, cfg: TrainConfig,
             run_dir: str | Path | None = None, verbose: bool = False) -> TrainResult:
    if not train_windows:
        raise ValueError("pretraining needs at least one window")
    params = model.init_params(model_cfg, seed=cfg.seed)

    def sample_loss(window: WindowSample, seed: int, step: int):
        sample = _make_sample(window, graph, cfg, seed)
        combined, l_t, l_g = pretrain_sample_losses(sample, params, model_cfg, cfg)
        return combined, losses.LossReport(
            step=step, l_pre=float(combined.data),
            l_t=None if l_t is None else float(l_t.data),
            l_g=None if l_g is None else float(l_g.data))

    def validate(params: ParamStore) -> float:
        return _pretrain_validation(val_windows, graph, params, model_cfg, cfg)

    return _fit("pretrain", params, train_windows, sample_loss, validate if val_windows else None,
                model_cfg, cfg, run_dir, verbose, minimize=True)


def load_pretrained(path: str | Path, model_cfg: model.ModelConfig | None = None,
                    phase: str | None = None) -> tuple[ParamStore, model.ModelConfig]:
    """Load a checkpoint and the model config saved with it, and validate its
    manifest against that config. A given model_cfg must equal the saved one
    in every field; the error names the fields that differ. A given phase
    must be the one that saved the checkpoint."""
    store, config = load_checkpoint(path)
    if config is None or "model" not in config:
        raise ValueError(f"{path}: checkpoint carries no model config")
    try:
        saved_cfg = model.ModelConfig(**config["model"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: checkpoint model config: {e}") from None
    if model_cfg is not None and model_cfg != saved_cfg:
        saved = asdict(saved_cfg)
        differ = [f"{k}={v!r} (saved {saved[k]!r})" for k, v in asdict(model_cfg).items() if v != saved[k]]
        raise ValueError(f"{path}: model config differs from the checkpoint's: {', '.join(differ)}")
    if store.shapes() != model.param_shapes(saved_cfg):
        raise ValueError(f"{path}: checkpoint manifest does not match the model config")
    if phase is not None and config.get("phase") != phase:
        raise ValueError(f"{path}: checkpoint phase is {config.get('phase')!r}, need {phase!r}")
    return store, saved_cfg


def finetune(pretrained: ParamStore, train_windows: list[WindowSample],
             val_windows: list[WindowSample], graph: CorrelationGraph,
             model_cfg: model.ModelConfig, cfg: TrainConfig,
             run_dir: str | Path | None = None, verbose: bool = False) -> TrainResult:
    """Train the prediction head on unmasked inputs over a frozen encoder:
    every training and validation window is encoded once, up front, and the
    head is fitted to those (encoding, target) pairs."""
    if not train_windows:
        raise ValueError("fine-tuning needs at least one window")
    params = pretrained.clone()
    conn = graph.weights != 0

    def encode(windows: list[WindowSample]) -> list[tuple[np.ndarray, np.ndarray]]:
        with no_grad():
            return [(model.encoder_forward(w.panel, conn, params, model_cfg).data, w.target)
                    for w in windows]

    train_items, val_items = encode(train_windows), encode(val_windows)

    def sample_loss(item: tuple[np.ndarray, np.ndarray], seed: int, step: int):
        encoding, target = item
        y_hat = model.finetune_head(Tensor(encoding), params, model_cfg)
        total, mse, pearson = losses.loss_finetune(y_hat, target, cfg.lambda_m)
        return total, losses.LossReport(
            step=step, l_mse=float(mse.data), l_fine=float(total.data),
            l_pearson=None if pearson is None else float(pearson.data))

    def validate(params: ParamStore) -> float:
        with no_grad():
            return _mean_ic((model.finetune_head(Tensor(encoding), params, model_cfg).data, target)
                            for encoding, target in val_items)

    return _fit("finetune", params, train_items, sample_loss, validate if val_items else None,
                model_cfg, cfg, run_dir, verbose, minimize=False)


# prediction and reference baselines -------------------------------------------


def predict(params: ParamStore, model_cfg: model.ModelConfig,
            windows: list[WindowSample], graph: CorrelationGraph
            ) -> list[tuple[str, list[str], np.ndarray]]:
    """Deterministic per-node scores for each window end date."""
    if windows and graph.node_ids != windows[0].node_ids:
        raise ValueError("graph and panel node sets differ")
    conn = graph.weights != 0
    rows = []
    with no_grad():
        for window in windows:
            out = model.encoder_forward(window.panel, conn, params, model_cfg)
            scores = model.finetune_head(out, params, model_cfg)
            rows.append((window.end_date, list(window.node_ids), np.asarray(scores.data).copy()))
    return rows


def write_predictions(path: str | Path, rows: list[tuple[str, list[str], np.ndarray]]) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("date,symbol,score\n")
        for date, node_ids, scores in rows:
            for sym, s in zip(node_ids, scores):
                fh.write(f"{date},{sym},{float(s)!r}\n")


def _mean_ic(pairs) -> float:
    """Mean per-date IC over (prediction, realized) pairs, skipping constant
    cross-sections; NaN when every date is skipped."""
    ics = []
    for pred, realized in pairs:
        try:
            ics.append(backtest.daily_ic(pred, realized))
        except backtest.ConstantInputError:
            continue
    return float(np.mean(ics)) if ics else np.nan


def persistence_ic(panel: TimePanel, windows: list[WindowSample]) -> float:
    """Baseline that predicts tomorrow's target with today's realized one."""
    return _mean_ic((panel.targets[:, window.end_index], window.target) for window in windows)


def masked_reconstruction_mse(params: ParamStore, model_cfg: model.ModelConfig,
                              cfg: TrainConfig, windows: list[WindowSample],
                              graph: CorrelationGraph) -> tuple[float, float]:
    """Model reconstruction MSE at masked positions vs the mean-imputation
    baseline (fill each node's masked steps with its unmasked feature means),
    on the deterministic masks that pretraining validation scores."""
    model_errs, baseline_errs = [], []
    with no_grad():
        for i, window in enumerate(windows):
            seed = _derive_seed(cfg.seed, _VALIDATION_MASK_SEED, i)
            sample = _make_sample(window, graph, cfg, seed)
            mask = sample.panel.mask_positions
            if not mask.any():
                continue
            out = model.encoder_forward(sample.panel.values, sample.graph.connectivity(),
                                        params, model_cfg)
            x_r = model.temporal_decoder(out, params, model_cfg, mask).data
            x = sample.original_values
            model_errs.append(float(np.mean((x_r[mask] - x[mask]) ** 2)))
            imputed = np.array([x[n][~mask[n]].mean(axis=0) for n in range(x.shape[0])])
            per_node = [np.mean((x[n][mask[n]] - imputed[n]) ** 2) for n in range(x.shape[0])
                        if mask[n].any()]
            baseline_errs.append(float(np.mean(per_node)))
    return float(np.mean(model_errs)), float(np.mean(baseline_errs))
