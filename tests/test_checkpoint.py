"""Checkpoint round-trips, malformed-file rejection, atomic writes, config
embedding."""

import argparse
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from tcgpn import backtest, cli, config, data, graphs, losses, model, train
from tcgpn.tensorcore import checkpoint as checkpoint_module
from tcgpn.tensorcore import MAGIC, ParamStore, load_checkpoint, save_checkpoint


def test_round_trip_bit_identical(tmp_path):
    store = ParamStore(seed=7, dtype=np.float32)
    store.add("a.w", (3, 4), "fan_in")
    store.add("b.v", (5,), "fan_in")
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, store, config={"note": 1})
    loaded, config = load_checkpoint(path)
    assert config == {"note": 1}
    assert loaded.paths() == store.paths()
    for p in store.paths():
        assert np.array_equal(loaded[p].data, store[p].data)
        assert loaded[p].data.dtype == store[p].data.dtype


def test_magic_bytes_lead_the_file(tmp_path):
    store = ParamStore(seed=0)
    store.add("w", (2,), "zeros")
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, store)
    assert path.read_bytes()[:8] == MAGIC == b"TCGPN001"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    store = ParamStore(seed=0)
    store.add("w", (64,), "fan_in")
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, store)
    raw = path.read_bytes()
    path.write_bytes(raw[:-32])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_manifest_enumerates_every_model_path(tmp_path):
    cfg = model.ModelConfig(n_features=3, d_model=8, gat_heads=2, gat_dim=4,
                            tgm_blocks=1, tgm_heads=2, window=8, d_a=4)
    params = model.init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config={"model": cfg.to_dict()})
    loaded, config = load_checkpoint(path)
    assert loaded.shapes() == model.param_shapes(cfg)
    # and the loader validates shapes against the model config
    store, restored = train.load_pretrained(path)
    assert restored.to_dict() == cfg.to_dict()


def test_load_pretrained_rejects_config_mismatch(tmp_path):
    cfg = model.ModelConfig(n_features=3, d_model=8, gat_heads=2, gat_dim=4,
                            tgm_blocks=1, tgm_heads=2, window=8, d_a=4)
    params = model.init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config={"model": cfg.to_dict()})
    other = model.ModelConfig(n_features=3, d_model=16, gat_heads=2, gat_dim=4,
                              tgm_blocks=1, tgm_heads=2, window=8, d_a=4)
    with pytest.raises(ValueError):
        train.load_pretrained(path, other)
    # a saved model config that ModelConfig rejects names the file
    without_features = {k: v for k, v in cfg.to_dict().items() if k != "n_features"}
    for saved in (dict(cfg.to_dict(), bogus=1), without_features, dict(cfg.to_dict(), tgm_heads=3)):
        save_checkpoint(path, params, config={"model": saved})
        with pytest.raises(ValueError, match=r"m\.ckpt: checkpoint model config: "):
            train.load_pretrained(path)


def test_load_pretrained_rejects_key_bias_checkpoint(tmp_path):
    # attention keys carry no bias; checkpoints that hold one must be retrained
    cfg = model.ModelConfig(n_features=3, d_model=8, gat_heads=2, gat_dim=4,
                            tgm_blocks=1, tgm_heads=2, window=8, d_a=4)
    params = model.init_params(cfg, seed=0)
    params.add("enc.block0.attn.bk", (8,), "zeros")
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, params, config={"model": cfg.to_dict()})
    with pytest.raises(ValueError, match=r"old\.ckpt.*does not match the model config"):
        train.load_pretrained(path, cfg)


def test_load_pretrained_requires_the_saved_model_config(tmp_path):
    # sigma_h and leaky_slope change no parameter shape, so a shape check misses them
    cfg = model.ModelConfig(n_features=3, d_model=8, gat_heads=2, gat_dim=4,
                            tgm_blocks=1, tgm_heads=2, window=8, d_a=4, sigma_h=1.0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.init_params(cfg, seed=0), config={"model": cfg.to_dict()})
    other = model.ModelConfig(**dict(cfg.to_dict(), sigma_h=2.0, leaky_slope=0.5))
    with pytest.raises(ValueError, match=r"^\S*m\.ckpt: model config differs from the checkpoint's: "
                                         r"sigma_h=2\.0 \(saved 1\.0\), leaky_slope=0\.5 \(saved 0\.2\)$"):
        train.load_pretrained(path, other)
    _, loaded = train.load_pretrained(path, model.ModelConfig(**cfg.to_dict()))
    assert loaded == cfg


def _saved(tmp_path):
    store = ParamStore(seed=0)
    store.add("w", (4,), "fan_in")
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, store)
    return path, path.read_bytes()


def _with_header(raw: bytes, edit) -> bytes:
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + n])
    edit(header)
    encoded = json.dumps(header).encode()
    return raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n:]


def test_unknown_dtype_code_rejected(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(_with_header(raw, lambda h: h["entries"][0].update(dtype="<i8")))
    with pytest.raises(ValueError, match=r"x\.ckpt.*unknown dtype code '<i8'"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["entries"][0].pop("dtype"), r"entry 0 needs path, shape, dtype and offset"),
    (lambda h: h.update(entries=[["w", [4], "<f4", 0]]), r"entry 0 needs path, shape, dtype and offset"),
    (lambda h: h["entries"][0].update(offset=-8), r"entry 0 \('w'\): offset -8 is not"),
    (lambda h: h["entries"][0].update(shape=["2"]), r"entry 0 \('w'\): shape \['2'\] is not"),
    (lambda h: h["entries"].append(dict(h["entries"][0])), r"entry 1 \('w'\): path listed twice"),
], ids=["missing-dtype", "list-entry", "negative-offset", "string-shape", "duplicate-path"])
def test_malformed_entry_rejected_naming_file_and_entry(tmp_path, edit, message):
    path, raw = _saved(tmp_path)
    path.write_bytes(_with_header(raw, edit))
    with pytest.raises(ValueError, match=r"x\.ckpt: checkpoint " + message) as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)


def test_non_json_header_rejected(tmp_path):
    path, raw = _saved(tmp_path)
    (n,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[:12] + b"{" * n + raw[12 + n:])
    with pytest.raises(ValueError, match=r"x\.ckpt.*header is not JSON"):
        load_checkpoint(path)


def test_header_without_entries_rejected(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(_with_header(raw, lambda h: h.pop("entries")))
    with pytest.raises(ValueError, match=r"x\.ckpt.*no entries list"):
        load_checkpoint(path)


def test_short_header_rejected(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(raw[:20])  # the header length promises more bytes than follow
    with pytest.raises(ValueError, match=r"x\.ckpt.*header is short"):
        load_checkpoint(path)
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(ValueError, match=r"x\.ckpt.*header is short"):
        load_checkpoint(path)


def test_trailing_payload_bytes_rejected(tmp_path):
    path, raw = _saved(tmp_path)
    path.write_bytes(raw + b"\x00" * 3)
    with pytest.raises(ValueError, match=r"x\.ckpt.*3 trailing bytes"):
        load_checkpoint(path)


def test_mixed_dtypes_rejected():
    arrays = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)}
    with pytest.raises(ValueError, match="mixed parameter dtypes"):
        ParamStore.from_arrays(arrays)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path, raw = _saved(tmp_path)
    other = ParamStore(seed=1)
    other.add("w", (4,), "fan_in")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint_module.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, other)
    assert path.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]  # no temporary file left


def _write_predictions(out, bad):
    path = out / "predictions.csv"
    train.write_predictions(path, [("2020-01-02", ["a", "b"], [1.0, "x" if bad else 2.0])])
    return path


def _save_graph(out, bad):
    path = out / "graph.csv"
    ids = ["a", "\ud800" if bad else "b"]  # a lone surrogate cannot be encoded as UTF-8
    graphs.save_graph(path, graphs.CorrelationGraph(2, np.array([[0.0, 1.0], [1.0, 0.0]]), False, ids))
    return path


def _write_loss_log(out, bad):
    path = out / "losses.csv"
    losses.write_loss_log(path, [losses.LossReport(step=0, l_t=1.0),
                                 losses.LossReport(step=1, l_t="x" if bad else 2.0)])
    return path


def _write_metrics_csv(out, bad):
    path = out / "metrics.csv"
    report = backtest.MetricsReport(ic=0.1, pnl=0.2, ar=0.3, vol=0.4, sharpe="x" if bad else 0.5,
                                    mdd=0.1, calmar=None, winr=0.5, pl_ratio=None, n_days=3)
    backtest.write_metrics_csv(path, report)
    return path


def _write_ic_csv(out, bad):
    path = out / "ic.csv"
    backtest.write_ic_csv(path, ["2020-01-02", "2020-01-03"], [0.1, "x" if bad else 0.2])
    return path


def _write_pnl_svg(out, bad):
    path = out / "pnl.svg"
    dates = ["2020-01-02", "\ud800" if bad else "2020-01-03"]
    backtest.write_pnl_svg(path, backtest.PnlSeries.from_daily(dates, [0.1, -0.2]))
    return path


def _config_dump(out, bad):
    path = out / "config.txt"
    config.dump({"a": 1, "b": "\ud800" if bad else "x"}, path)
    return path


def _panel(bad):
    return data.TimePanel(node_ids=["a", "\ud800" if bad else "b"], dates=["2020-01-02", "2020-01-03"],
                          features=np.zeros((2, 2, 1)), targets=np.zeros((2, 2)), feature_names=["f"])


def _save_panel(out, bad):
    path = out / "panel.csv"
    data.save_panel(path, _panel(bad))
    return path


def _save_returns(out, bad):
    path = out / "returns.csv"
    data.save_returns(path, _panel(bad))
    return path


def _hash_inputs(out, bad):
    source = out.parent / "in.csv"
    source.write_bytes(b"x")
    # a second name that cannot be opened (embedded NUL), after the first line
    cli._hash_inputs(out, [source, out.parent / "in\x00.csv"] if bad else [source])
    return out / "inputs.sha256"


def _sweep_summary(out, bad):
    rows = {1: {"seed": 1, "pretrain_val_loss": 0.5, "val_ic": 0.1},
            2: {"seed": 2, "pretrain_val_loss": 0.4, "val_ic": "\ud800" if bad else 0.2}}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_sweep_point", lambda values, point, run_dir: rows[point["seed"]])
        cli.cmd_sweep(argparse.Namespace(grid=["seed=1,2"], out=str(out)), config.defaults())
    return out / "summary.csv"


def test_hash_inputs_records_non_utf8_name(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    source = tmp_path / "in\udcff.csv"  # the bytes b"in\xff.csv", not valid UTF-8
    source.write_bytes(b"x")
    cli._hash_inputs(out, [source])
    digest, name = (out / "inputs.sha256").read_bytes().removesuffix(b"\n").split(b"  ")
    assert digest == hashlib.sha256(b"x").hexdigest().encode()
    assert name == os.fsencode(source) and name.endswith(b"/in\xff.csv")
    assert Path(os.fsdecode(name)).read_bytes() == b"x"


@pytest.mark.parametrize("write", [_write_predictions, _save_graph, _write_loss_log, _write_metrics_csv,
                                   _write_ic_csv, _write_pnl_svg, _config_dump, _save_panel,
                                   _save_returns, _hash_inputs, _sweep_summary])
def test_failed_artifact_write_keeps_previous_file(tmp_path, write):
    out = tmp_path / "out"
    out.mkdir()
    path = write(out, bad=False)
    before = path.read_bytes()
    with pytest.raises(ValueError):  # raised once the new file is open, for most after part of it is written
        write(out, bad=True)
    assert path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == [path.name]  # no temporary file left
