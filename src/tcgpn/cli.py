"""Command-line entry point.

Subcommands: synth-data, build-graph, pretrain, finetune, predict, backtest,
gradcheck, sweep. Hyperparameters come from a config file plus `--key value`
overrides; each training run writes its resolved config, input hashes, logs
and artifacts into a timestamped run directory.

Exit codes: 0 success, 1 runtime error, 2 usage, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import backtest, checks, config, data, graphs, train
from .config import ConfigError
from .tensorcore.checkpoint import atomic_write

SPLITS = ("train", "val", "test")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcgpn",
        description="Temporal-correlation graph pretraining pipeline. Unlisted "
                    "--key value pairs override config-file entries (see `config-keys`).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic lead-lag panel")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("build-graph", help="build an industry or (training-split) distance graph")
    p.add_argument("--data", required=True, help="panel CSV")
    p.add_argument("--kind", choices=["distance", "industry"], required=True)
    p.add_argument("--meta", default=None, help="industry metadata CSV (symbol,industry,registered_capital,turnover)")
    p.add_argument("--out", required=True, help="graph file to write")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("pretrain", help="run the pretraining stage")
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="base directory for the run directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune the prediction head from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="score a panel with a fine-tuned checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("backtest", help="turn predictions + returns into metrics")
    p.add_argument("--predictions", required=True)
    p.add_argument("--returns", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--size", choices=sorted(checks.SIZES), default="tiny")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--probe-seed", type=int, default=17, help="seed for the probe sample")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid sweep over config keys (synthetic data)")
    p.add_argument("--grid", action="append", required=True,
                   help="key=v1,v2,... (repeatable; e.g. r_t=0.1,0.3,0.5)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("config-keys", help="print the config key table")
    p.set_defaults(func=cmd_config_keys)
    for p in sub.choices.values():
        p.add_argument("--config", default=None)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        values = config.resolve(args.config, extra)
        return args.func(args, values)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # one-line machine-parseable failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


# helpers ------------------------------------------------------------------------


def _start_run(base: str | Path, values, inputs: list[str | Path]) -> Path:
    """Make a new `<stamp>-seed<seed>` run directory under base and record the
    resolved config and the input hashes in it."""
    root = Path(base)
    name = f"{time.strftime('%Y%m%d-%H%M%S')}-seed{values['seed']}"
    path = root / name
    i = 1
    while path.exists():
        path = root / f"{name}.{i}"
        i += 1
    path.mkdir(parents=True)
    config.dump(values, path / "config.txt")
    _hash_inputs(path, inputs)
    return path


def _hash_inputs(run_dir: Path, paths: list[str | Path]) -> None:
    """Write `inputs.sha256` as `sha256sum` does: names as their file-system
    bytes, so a name that is not valid UTF-8 is recorded as it is."""
    with atomic_write(run_dir / "inputs.sha256", "wb") as fh:
        fh.writelines(b"%s  %s\n" % (hashlib.sha256(Path(p).read_bytes()).hexdigest().encode(),
                                      os.fsencode(p)) for p in paths)


def _split(panel: data.TimePanel, values):
    """The (train, val, test) date split that split_mode selects; a split the
    config cannot make is a ConfigError."""
    mode = values["split_mode"]
    try:
        if mode == "year":
            return data.split_by_year(panel, values["train_years"], values["val_years"], values["test_years"])
        if mode == "fraction":
            return data.split_by_fraction(panel, values["train_frac"], values["val_frac"])
    except ValueError as e:
        raise ConfigError(f"split_mode={mode}: {e}") from None
    raise ConfigError(f"unknown split_mode: {mode}")


def _windows(panel: data.TimePanel, values, split: str = "train"):
    """Split per split_mode, standardize with training-split stats and window
    each part; returns the (train, val, test) windows and the model config.
    The split a command reads (`all`: any of them) must hold a window."""
    parts = _split(panel, values)
    stats = data.feature_stats(parts[0])
    parts = tuple(data.standardize(p, stats) for p in parts)
    window = values["window"]
    try:
        windows = tuple(data.window_samples(p, window, values["stride"]) for p in parts)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    read = range(3) if split == "all" else [SPLITS.index(split)]
    if not any(windows[i] for i in read):
        name = "longest" if split == "all" else split
        raise ConfigError(f"window={window} leaves no window to read: it needs {window + 1} dates "
                          f"and the {name} split has {max(parts[i].n_dates for i in read)}")
    return windows, config.to_model_config(values, panel.n_features)


def _prepare(args, values, split: str = "train", phase: str | None = None):
    """Load panel + graph and window them for the split the command reads
    (`_windows`). With a --checkpoint, load its parameters too (None
    otherwise): its saved model config must equal the config's, and a given
    phase must be the checkpoint's."""
    panel, dropped_dates = data.load_panel(args.data)
    if dropped_dates:
        print(f"load: dropped {len(dropped_dates)} dates missing for some node")
    graph = graphs.load_graph(args.graph, panel.node_ids)
    windows, model_cfg = _windows(panel, values, split)
    params = None
    if getattr(args, "checkpoint", None) is not None:
        try:
            params, model_cfg = train.load_pretrained(args.checkpoint, model_cfg, phase)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    return windows, graph, model_cfg, params


# subcommands ---------------------------------------------------------------------


def cmd_synth_data(args, values) -> int:
    panel, truth = data.gen_synthetic(config.to_synthetic_spec(values))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.save_panel(out / "panel.csv", panel)
    data.save_returns(out / "returns.csv", panel)
    graphs.save_graph(out / "graph.txt", truth)
    config.dump(values, out / "config.txt")
    print(f"wrote panel ({panel.n_nodes} nodes x {panel.n_dates} dates x "
          f"{panel.n_features} features) to {out}")
    return 0


def cmd_build_graph(args, values) -> int:
    panel, _ = data.load_panel(args.data)
    if args.kind == "distance":  # from the raw training dates only, so no later co-movement leaks in
        if not 0 < values["knn_k"] < panel.n_nodes:
            raise ConfigError(f"knn_k must be in [1, {panel.n_nodes - 1}], got {values['knn_k']}")
        graph = graphs.build_distance_graph(_split(panel, values)[0], values["knn_k"])
    else:
        if not args.meta:
            raise ConfigError("industry graph needs --meta metadata CSV")
        rows = graphs.load_industry_metadata(args.meta)
        order = {nid: i for i, nid in enumerate(panel.node_ids)}
        unknown = [r[0] for r in rows if r[0] not in order]
        if unknown:
            raise ConfigError(f"metadata symbols not in panel: {unknown[:5]}")
        rows.sort(key=lambda r: order[r[0]])
        if len(rows) != panel.n_nodes:
            raise ConfigError(f"metadata covers {len(rows)} of {panel.n_nodes} panel nodes")
        graph = graphs.build_industry_graph(rows)
    graphs.save_graph(args.out, graph)
    print(f"wrote {args.kind} graph ({graph.nnz()} edges) to {args.out}")
    return 0


def cmd_pretrain(args, values) -> int:
    windows, graph, model_cfg, _ = _prepare(args, values)
    train_cfg = config.to_train_config(values, "pretrain")
    run_dir = _start_run(args.out, values, [args.data, args.graph])
    result = train.pretrain(windows[0], windows[1], graph, model_cfg, train_cfg,
                            run_dir=run_dir, verbose=True)
    print(f"pretrain done: best validation loss {result.best_val:.6f}; "
          f"checkpoint {result.checkpoint_path}")
    return 0


def cmd_finetune(args, values) -> int:
    train_cfg = config.to_train_config(values, "finetune")  # a bad value exits 3 before the checkpoint is read
    windows, graph, model_cfg, params = _prepare(args, values)
    run_dir = _start_run(args.out, values, [args.checkpoint, args.data, args.graph])
    result = train.finetune(params, windows[0], windows[1], graph, model_cfg, train_cfg,
                            run_dir=run_dir, verbose=True)
    print(f"finetune done: best validation IC {result.best_val:.4f}; "
          f"checkpoint {result.checkpoint_path}")
    return 0


def cmd_predict(args, values) -> int:
    windows, graph, model_cfg, params = _prepare(args, values, args.split, phase="finetune")
    if args.split == "all":
        chosen = [w for ws in windows for w in ws]
    else:
        chosen = windows[SPLITS.index(args.split)]
    rows = train.predict(params, model_cfg, chosen, graph)
    train.write_predictions(args.out, rows)
    print(f"wrote {sum(len(r[1]) for r in rows)} scores over {len(rows)} dates to {args.out}")
    return 0


def cmd_backtest(args, values) -> int:
    if values["trading_days"] < 1:
        raise ConfigError(f"trading_days must be >= 1, got {values['trading_days']}")
    if values["ic_method"] not in ("pearson", "rank"):
        raise ConfigError(f"ic_method must be pearson or rank, got {values['ic_method']!r}")
    predictions = backtest.read_score_file(args.predictions, "score")
    returns = backtest.read_score_file(args.returns, "return")
    universe = {s for per in predictions.values() for s in per}
    if not 0 <= values["top_k"] <= len(universe):
        raise ConfigError(f"top_k must be in [0, {len(universe)}] (0 = N/10), got {values['top_k']}")
    k = values["top_k"] or max(1, len(universe) // 10)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pnl, report = backtest.run_strategy(predictions, returns, k)
    dates, ics, skipped = backtest.ic_series(predictions, returns, method=values["ic_method"])
    mean_ic = float(np.mean(ics)) if ics else None
    metrics = backtest.compute_metrics(pnl, values["trading_days"], ic=mean_ic)
    backtest.write_metrics_csv(out / "metrics.csv", metrics)
    backtest.write_ic_csv(out / "ic_series.csv", dates, ics)
    backtest.write_pnl_svg(out / "pnl.svg", pnl)
    if report.dropped_names or report.skipped_dates:
        print(f"note: dropped {len(report.dropped_names)} names, "
              f"skipped {len(report.skipped_dates)} dates; IC skipped {skipped} dates")
    for key, value in asdict(metrics).items():
        print(f"{key}: {'absent' if value is None else value}")
    return 0


def cmd_gradcheck(args, values) -> int:
    reports = checks.run_gradient_checks(size=args.size, eps=args.eps, tol=args.tol,
                                         seed=args.probe_seed)
    ok = True
    for name, report in reports.items():
        print(f"== {name} loss (eps={report.eps:g}, tol={report.tol:g}) ==")
        print(report.format_table())
        print(f"max relative error: {report.max_rel_err:.3e}")
        ok = ok and report.ok()
    return 0 if ok else 1


def _sweep_prepare(values, point: dict):
    """One grid point's merged config, synthetic data, windows and train
    configs; a value the point cannot run with is a ConfigError."""
    merged = {**values, **point}
    panel, graph = data.gen_synthetic(config.to_synthetic_spec(merged))
    windows, model_cfg = _windows(panel, merged)
    return (merged, windows, graph, model_cfg, config.to_train_config(merged, "pretrain"),
            config.to_train_config(merged, "finetune"))


def _sweep_point(prepared, point: dict, run_dir: Path) -> dict:
    merged, windows, graph, model_cfg, pre_cfg, fine_cfg = prepared
    run_dir.mkdir(parents=True, exist_ok=True)
    config.dump(merged, run_dir / "config.txt")
    pre = train.pretrain(windows[0], windows[1], graph, model_cfg, pre_cfg, run_dir=run_dir)
    fine = train.finetune(pre.params, windows[0], windows[1], graph, model_cfg, fine_cfg,
                          run_dir=run_dir)
    return {**point, "pretrain_val_loss": pre.best_val, "val_ic": fine.best_val}


def cmd_sweep(args, values) -> int:
    grids: dict[str, list] = {}
    for item in args.grid:
        if "=" not in item:
            raise ConfigError(f"--grid needs key=v1,v2,..., got {item!r}")
        key, raw = item.split("=", 1)
        grids[key] = [config._parse_value(key, v) for v in raw.split(",")]
    out = Path(args.out)
    keys = sorted(grids)
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grids[k] for k in keys))]
    prepared = [_sweep_prepare(values, point) for point in points]  # a bad point exits 3 before any trains
    rows = []
    for i, point in enumerate(points):
        label = "_".join(f"{k}={point[k]}" for k in keys)
        rows.append(_sweep_point(prepared[i], point, out / f"point_{i:03d}_{label}"))
    header = keys + ["pretrain_val_loss", "val_ic"]
    lines = [",".join(header)] + [",".join(str(row[h]) for h in header) for row in rows]
    with atomic_write(out / "summary.csv", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_config_keys(args, values) -> int:
    width = max(len(k) for k in config.KEY_TABLE)
    for key in sorted(config.KEY_TABLE):
        spec = config.KEY_TABLE[key]
        print(f"{key.ljust(width)}  {spec.type.__name__:<5}  default={spec.default!r}  {spec.help}")
    return 0


if __name__ == "__main__":
    main()
