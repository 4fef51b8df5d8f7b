"""Flat, typed run configuration.

Config files are plain text, one `key = value` per line, `#` comments
allowed. Command-line overrides arrive as `--key value` pairs. Unknown keys
are rejected and the fully resolved mapping is echoed into each run
directory so a run can be reproduced from its directory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .data import SyntheticSpec
from .model import ModelConfig
from .tensorcore.checkpoint import atomic_write, open_text
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Key:
    name: str
    type: type
    default: Any
    help: str


KEY_TABLE: dict[str, Key] = {k.name: k for k in [
    # windowing and splits
    Key("window", int, 30, "input steps per sample"),
    Key("stride", int, 1, "window stride in dates"),
    Key("split_mode", str, "year", "year or fraction"),
    Key("train_years", int, 10, "training years (split_mode=year)"),
    Key("val_years", int, 1, "validation years"),
    Key("test_years", int, 1, "test years"),
    Key("train_frac", float, 0.7, "training fraction (split_mode=fraction)"),
    Key("val_frac", float, 0.15, "validation fraction"),
    # graph construction
    Key("knn_k", int, 10, "neighbors kept per node in the distance graph"),
    # synthetic generator
    Key("synth_clusters", int, 4, "clusters in the synthetic panel"),
    Key("synth_nodes_per_cluster", int, 5, "nodes per cluster"),
    Key("synth_lag", int, 1, "follower delay in steps"),
    Key("synth_noise_std", float, 0.0, "follower observation noise"),
    Key("synth_length", int, 600, "synthetic panel length in dates"),
    # model
    Key("d_model", int, 128, "encoder width"),
    Key("gat_heads", int, 4, "graph attention heads"),
    Key("gat_dim", int, 32, "graph attention output dim per head"),
    Key("tgm_blocks", int, 3, "encoder blocks (n_l)"),
    Key("tgm_heads", int, 8, "temporal attention heads (n_h)"),
    Key("sigma_h", float, 7.5, "Gaussian decay width (fixed on the CLI; ModelConfig alone derives window/4)"),
    Key("d_a", int, 32, "adjacency decoder factor width"),
    Key("ffn_hidden", int, 256, "feed-forward hidden width (fixed on the CLI; ModelConfig alone derives 2*d_model)"),
    Key("head_hidden", int, 256, "prediction head hidden width (fixed on the CLI; ModelConfig alone derives 2*d_model)"),
    Key("leaky_slope", float, 0.2, "LeakyReLU negative slope, in (0, 1]"),
    Key("decoder_blocks", int, 1, "temporal decoder depth"),
    Key("use_gat", bool, True, "keep the graph attention stage"),
    # masking / augmentation
    Key("r_t", float, 0.3, "temporal mask rate"),
    Key("r_g", float, 0.3, "graph mask rate"),
    Key("n_sub", int, 0, "nodes per sampled sub-sample (0 = all)"),
    # losses
    Key("beta", float, 1.0, "graph-loss weight in pretraining"),
    Key("lambda_m", float, 0.3, "MSE weight in fine-tuning"),
    Key("use_temporal_loss", bool, True, "keep the temporal pretraining task"),
    Key("use_graph_loss", bool, True, "keep the graph pretraining task"),
    # optimization
    Key("lr", float, 1e-3, "Adam learning rate"),
    Key("batch_size", int, 8, "windows per optimizer step"),
    Key("epochs", int, 100, "pretraining epochs"),
    Key("finetune_epochs", int, 50, "fine-tuning epochs"),
    Key("early_stop_patience", int, 10, "epochs without improvement before stop"),
    Key("seed", int, 0, "global seed"),
    # backtest
    Key("top_k", int, 0, "names held per day (0 = N/10)"),
    Key("trading_days", int, 252, "annualization day count"),
    Key("ic_method", str, "pearson", "pearson or rank"),
]}


def defaults() -> dict[str, Any]:
    return {k.name: k.default for k in KEY_TABLE.values()}


def _parse_value(key: str, raw: str) -> Any:
    spec = KEY_TABLE.get(key)
    if spec is None:
        raise ConfigError(f"unknown config key: {key!r}")
    raw = raw.strip()
    try:
        if spec.type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return spec.type(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {spec.type.__name__})") from None


def load_file(path: str | Path) -> dict[str, Any]:
    values: dict[str, Any] = {}
    with open_text(path, ConfigError) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        try:
            values[key.strip()] = _parse_value(key.strip(), raw)
        except ConfigError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
    return values


def apply_overrides(values: dict[str, Any], tokens: list[str]) -> dict[str, Any]:
    """Consume `--key value` pairs left over from argparse."""
    out = dict(values)
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"missing value for --{key}")
            i += 1
            raw = tokens[i]
        out[key] = _parse_value(key, raw)
        i += 1
    return out


def resolve(config_path: str | Path | None = None, overrides: list[str] | None = None) -> dict[str, Any]:
    values = defaults()
    if config_path is not None:
        values.update(load_file(config_path))
    if overrides:
        values = apply_overrides(values, overrides)
    return values


def dump(values: dict[str, Any], path: str | Path) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        fh.writelines(f"{k} = {values[k]}\n" for k in sorted(values))


def _construct(cls, values: dict[str, Any], **fixed):
    """cls from `fixed` plus the config values named like its other fields,
    reporting the dataclass's own validation as a ConfigError."""
    named = {f.name: values[f.name] for f in fields(cls)
             if f.name in values and f.name not in fixed}
    try:
        return cls(**named, **fixed)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def to_synthetic_spec(values: dict[str, Any]) -> SyntheticSpec:
    return _construct(
        SyntheticSpec, values,
        n_clusters=values["synth_clusters"],
        nodes_per_cluster=values["synth_nodes_per_cluster"],
        lag=values["synth_lag"],
        noise_std=values["synth_noise_std"],
        length=values["synth_length"],
    )


def to_model_config(values: dict[str, Any], n_features: int) -> ModelConfig:
    return _construct(ModelConfig, values, n_features=n_features)


def to_train_config(values: dict[str, Any], phase: str = "pretrain") -> TrainConfig:
    epochs = values["epochs"] if phase == "pretrain" else values["finetune_epochs"]
    return _construct(TrainConfig, values, epochs=epochs, learning_rate=values["lr"])
