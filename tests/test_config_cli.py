"""Config parsing/round-trip and CLI dispatch, exit codes, artifacts."""

import pickle
from dataclasses import asdict, fields

import numpy as np
import pytest

from tcgpn import config
from tcgpn.backtest import read_score_file
from tcgpn.model import ModelConfig
from tcgpn.train import TrainConfig
from tcgpn.cli import dispatch
from tcgpn.config import ConfigError
from tcgpn.data import load_panel, split_by_fraction
from tcgpn.graphs import build_distance_graph, load_graph, load_industry_metadata


def test_defaults_mirror_published_settings():
    d = config.defaults()
    assert d["r_t"] == 0.3 and d["r_g"] == 0.3 and d["lambda_m"] == 0.3
    assert d["window"] == 30
    assert d["gat_heads"] == 4 and d["gat_dim"] == 32
    assert d["tgm_heads"] == 8 and d["d_model"] == 128
    assert d["tgm_blocks"] == 3
    assert d["decoder_blocks"] == 1
    assert d["sigma_h"] == 7.5


def test_config_file_and_overrides(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("# comment\nr_t = 0.5\nepochs = 7\nuse_graph_loss = false\n")
    values = config.resolve(f, ["--lr", "0.01", "--use_gat=false"])
    assert values["r_t"] == 0.5 and values["epochs"] == 7
    assert values["use_graph_loss"] is False and values["use_temporal_loss"] is True
    assert values["lr"] == 0.01 and values["use_gat"] is False


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        config.resolve(f)
    with pytest.raises(ConfigError):
        config.resolve(None, ["--nonsense", "1"])
    with pytest.raises(ConfigError, match="bad value"):
        config.resolve(None, ["--epochs", "many"])


@pytest.mark.parametrize("line, message", [("nosuch = 1", "unknown config key: 'nosuch'"),
                                           ("d_model = abc", "bad value for d_model: 'abc' (expected int)")])
def test_config_file_error_names_the_line(tmp_path, capsys, line, message):
    f = tmp_path / "c.txt"
    f.write_text(f"# comment\nr_t = 0.5\n{line}\n")
    assert dispatch(["config-keys", "--config", str(f)]) == 3
    assert capsys.readouterr().err == f"error: {f}:3: {message}\n"


def test_round_trip_dump_load(tmp_path):
    values = config.resolve(None, ["--r_t", "0.4", "--seed", "9"])
    out = tmp_path / "resolved.txt"
    config.dump(values, out)
    again = config.load_file(out)
    assert again == values


def test_converters_build_valid_configs():
    values = config.defaults()
    mc = config.to_model_config(values, n_features=45)
    assert mc.d_model == 128 and mc.window == 30 and mc.n_features == 45
    tc = config.to_train_config(values, "pretrain")
    assert tc.epochs == values["epochs"] and tc.r_t == 0.3
    ft = config.to_train_config(values, "finetune")
    assert ft.epochs == values["finetune_epochs"]


def test_every_config_field_reaches_the_built_config():
    # a non-default value for every field: one the converters drop reads its default
    model_keys = {"d_model": 16, "gat_heads": 2, "gat_dim": 8, "tgm_blocks": 2, "tgm_heads": 4,
                  "sigma_h": 2.5, "window": 12, "leaky_slope": 0.1, "d_a": 8, "ffn_hidden": 24,
                  "head_hidden": 40, "use_gat": False}
    train_keys = {"batch_size": 3, "n_sub": 5, "r_t": 0.2, "r_g": 0.4, "beta": 0.5,
                  "lambda_m": 0.6, "seed": 11, "early_stop_patience": 4,
                  "use_temporal_loss": False, "use_graph_loss": False}
    keys = {**model_keys, **train_keys, "lr": 0.01, "epochs": 7, "finetune_epochs": 9}
    values = config.resolve(None, [t for k, v in keys.items() for t in (f"--{k}", str(v))])
    mc = config.to_model_config(values, n_features=5)
    assert asdict(mc) == dict(model_keys, n_features=5, decoder_blocks=1)
    for phase, epochs in (("pretrain", 7), ("finetune", 9)):
        tc = config.to_train_config(values, phase)
        assert asdict(tc) == dict(train_keys, learning_rate=0.01, epochs=epochs)
    default_model, default_train = ModelConfig(n_features=5), TrainConfig()
    assert [f.name for f in fields(ModelConfig) if getattr(mc, f.name) == getattr(default_model, f.name)] \
        == ["n_features", "decoder_blocks"]
    assert not [f.name for f in fields(TrainConfig) if getattr(tc, f.name) == getattr(default_train, f.name)]
    # decoder_blocks has one valid value; another one reaches ModelConfig's check
    with pytest.raises(ConfigError, match="single block"):
        config.to_model_config(config.resolve(None, ["--decoder_blocks", "2"]), n_features=5)


# CLI ------------------------------------------------------------------------------


def test_cli_usage_errors_exit_2():
    assert dispatch(["definitely-not-a-command"]) == 2
    assert dispatch([]) == 2


def test_cli_config_errors_exit_3(tmp_path, capsys):
    out = tmp_path / "d"
    for bad in (["--not_a_key", "1"], ["--synth_lag", "0"], ["--span_mode", "shared"],
                ["--mask_mode", "node"], ["--alternate_tasks", "true"],
                ["--freeze_encoder", "false"], ["--jobs", "2"], ["--standardize", "false"]):
        assert dispatch(["synth-data", "--out", str(out)] + bad) == 3, bad
        assert not out.exists()
    assert "ValueError" not in capsys.readouterr().err


def _backtest(tmp_path, extra):
    """Run `backtest` on 3 dates x 20 names; returns the exit code and the --out path."""
    rows = "".join(f"2021-01-0{d},S{i},{(i * d) % 7 - 3.0}\n" for d in range(1, 4) for i in range(20))
    (tmp_path / "p.csv").write_text("date,symbol,score\n" + rows)
    (tmp_path / "r.csv").write_text("date,symbol,return\n" + rows)
    out = tmp_path / "bt"
    return dispatch(["backtest", "--predictions", str(tmp_path / "p.csv"),
                     "--returns", str(tmp_path / "r.csv"), "--out", str(out)] + extra), out


@pytest.mark.parametrize("bad", [["--top_k", "-1"], ["--top_k", "21"], ["--top_k", "500"],
                                 ["--trading_days", "0"], ["--trading_days", "-1"],
                                 ["--ic_method", "spearman"]])
def test_backtest_bad_value_exits_3_without_out_dir(tmp_path, capsys, bad):
    code, out = _backtest(tmp_path, bad)
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(f"error: {bad[0][2:]} ") and err.count("\n") == 1
    assert not out.exists()


def test_backtest_top_k_may_hold_the_whole_universe(tmp_path):
    code, out = _backtest(tmp_path, ["--top_k", "20", "--trading_days", "1"])
    assert code == 0 and (out / "metrics.csv").exists()


def test_cli_synth_and_build_graph(tmp_path, capsys):
    out = tmp_path / "synth"
    code = dispatch(["synth-data", "--out", str(out), "--synth_length", "40",
                     "--synth_clusters", "2", "--synth_nodes_per_cluster", "3"])
    assert code == 0
    assert (out / "panel.csv").exists()
    assert (out / "returns.csv").exists()
    assert (out / "graph.txt").exists()
    assert (out / "config.txt").exists()

    code = dispatch(["build-graph", "--data", str(out / "panel.csv"), "--kind", "distance",
                     "--out", str(tmp_path / "dist.txt"), "--knn_k", "2",
                     "--split_mode", "fraction"])
    assert code == 0
    header = (tmp_path / "dist.txt").read_text().splitlines()[0]
    assert header.startswith("tcgpn-graph v1 directed=0")
    # the distance graph comes from the training dates only
    panel, _ = load_panel(out / "panel.csv")
    written = load_graph(tmp_path / "dist.txt", panel.node_ids)
    expected = build_distance_graph(split_by_fraction(panel, 0.7, 0.15)[0], 2)
    assert np.array_equal(written.weights, expected.weights)
    assert not np.array_equal(written.weights, build_distance_graph(panel, 2).weights)


@pytest.mark.parametrize("k", ["0", "500"])
def test_cli_build_graph_knn_k_out_of_range_exits_3(tmp_path, capsys, k):
    out = tmp_path / "synth"
    dispatch(["synth-data", "--out", str(out), "--synth_length", "40",
              "--synth_clusters", "2", "--synth_nodes_per_cluster", "3"])
    graph = tmp_path / "dist.txt"
    assert dispatch(["build-graph", "--data", str(out / "panel.csv"), "--kind", "distance",
                     "--out", str(graph), "--knn_k", k, "--split_mode", "fraction"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: knn_k must be in [1, 5]") and err.count("\n") == 1
    assert not graph.exists()


def test_cli_build_industry_graph(tmp_path):
    out = tmp_path / "synth"
    dispatch(["synth-data", "--out", str(out), "--synth_length", "30",
              "--synth_clusters", "2", "--synth_nodes_per_cluster", "2"])
    import csv
    from tcgpn.data import load_panel
    panel, _ = load_panel(out / "panel.csv")
    meta = tmp_path / "meta.csv"
    with open(meta, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["symbol", "industry", "registered_capital", "turnover"])
        for i, sym in enumerate(panel.node_ids):
            w.writerow([sym, f"ind{i % 2}", 1.0 + i, 2.0 + i])
    code = dispatch(["build-graph", "--data", str(out / "panel.csv"), "--kind", "industry",
                     "--meta", str(meta), "--out", str(tmp_path / "ind.txt")])
    assert code == 0
    assert (tmp_path / "ind.txt").read_text().startswith("tcgpn-graph v1 directed=1")


def test_cli_industry_graph_requires_meta(tmp_path):
    out = tmp_path / "synth"
    dispatch(["synth-data", "--out", str(out), "--synth_length", "30"])
    code = dispatch(["build-graph", "--data", str(out / "panel.csv"), "--kind", "industry",
                     "--out", str(tmp_path / "g.txt")])
    assert code == 3


def test_cli_gradcheck_tiny_exits_zero(capsys):
    code = dispatch(["gradcheck", "--size", "tiny"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pretrain loss" in out and "finetune loss" in out
    assert "max relative error" in out


def test_cli_config_keys_lists_table(capsys):
    assert dispatch(["config-keys"]) == 0
    out = capsys.readouterr().out
    assert "r_t" in out and "default=0.3" in out


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    """A synthetic panel (20 nodes x 60 dates, several read buffers long), its
    graph and returns, a score file and an industry metadata file."""
    out = tmp_path_factory.mktemp("utf8")
    assert dispatch(["synth-data", "--out", str(out), "--synth_length", "60"]) == 0
    returns = (out / "returns.csv").read_text()
    (out / "scores.csv").write_text(returns.replace("date,symbol,return", "date,symbol,score", 1))
    panel, _ = load_panel(out / "panel.csv")
    (out / "meta.csv").write_text("symbol,industry,registered_capital,turnover\n" + "".join(
        f"{sym},ind{i % 2},{1.0 + i},{2.0 + i}\n" for i, sym in enumerate(panel.node_ids)))
    (out / "c.txt").write_text("r_t = 0.5\nepochs = 7\nseed = 1\n")
    return out


@pytest.mark.parametrize("name, line, code, argv", [
    ("panel.csv", 1000, 1, ["build-graph", "--data", "{bad}", "--kind", "distance", "--out", "{out}",
                            "--split_mode", "fraction"]),
    ("graph.txt", 3, 1, ["predict", "--checkpoint", "{out}", "--data", "{dir}/panel.csv",
                         "--graph", "{bad}", "--out", "{out}"]),
    ("meta.csv", 4, 1, ["build-graph", "--data", "{dir}/panel.csv", "--kind", "industry",
                        "--meta", "{bad}", "--out", "{out}"]),
    ("returns.csv", 1000, 1, ["backtest", "--predictions", "{dir}/scores.csv", "--returns", "{bad}",
                              "--out", "{out}"]),
    ("c.txt", 2, 3, ["config-keys", "--config", "{bad}"]),
])
def test_non_utf8_input_names_file_and_line(synth_files, tmp_path, capsys, name, line, code, argv):
    lines = (synth_files / name).read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    bad = tmp_path / name
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    assert dispatch([a.format(bad=bad, dir=synth_files, out=out) for a in argv]) == code
    kind = "" if code == 3 else "ValueError: "
    assert capsys.readouterr().err == f"error: {kind}{bad}:{line}: not UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize("name, read", [
    ("panel.csv", lambda path, _: load_panel(path)),
    ("graph.txt", lambda path, ids: load_graph(path, ids)),
    ("meta.csv", lambda path, _: load_industry_metadata(path)),
    ("returns.csv", lambda path, _: read_score_file(path, "return")),
    ("c.txt", lambda path, _: config.load_file(path)),
])
def test_byte_order_mark_parses_as_without_it(synth_files, tmp_path, name, read):
    """A UTF-8 file that starts with EF BB BF, as spreadsheet programs save
    CSV, reads exactly as the same file without it."""
    bom = tmp_path / name
    bom.write_bytes(b"\xef\xbb\xbf" + (synth_files / name).read_bytes())
    ids = load_panel(synth_files / "panel.csv")[0].node_ids
    assert pickle.dumps(read(bom, ids)) == pickle.dumps(read(synth_files / name, ids))
