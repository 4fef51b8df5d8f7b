"""Checkpoint round-trips, malformed-file rejection, atomic writes, config
embedding."""

import json
import struct

import numpy as np
import pytest

from tcgpn import model, train
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
