"""Config parsing/round-trip and CLI dispatch, exit codes, artifacts."""

import numpy as np
import pytest

from tcgpn import config
from tcgpn.cli import dispatch
from tcgpn.config import ConfigError
from tcgpn.data import load_panel, split_by_fraction
from tcgpn.graphs import build_distance_graph, load_graph


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
    f.write_text("# comment\nr_t = 0.5\nepochs = 7\nfreeze_encoder = false\n")
    values = config.resolve(f, ["--lr", "0.01", "--use_gat=false"])
    assert values["r_t"] == 0.5 and values["epochs"] == 7
    assert values["freeze_encoder"] is False
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


# CLI ------------------------------------------------------------------------------


def test_cli_usage_errors_exit_2():
    assert dispatch(["definitely-not-a-command"]) == 2
    assert dispatch([]) == 2


def test_cli_config_errors_exit_3(tmp_path, capsys):
    out = tmp_path / "d"
    for bad in (["--not_a_key", "1"], ["--synth_lag", "0"], ["--span_mode", "shared"],
                ["--mask_mode", "node"], ["--alternate_tasks", "true"]):
        assert dispatch(["synth-data", "--out", str(out)] + bad) == 3, bad
        assert not out.exists()
    assert "ValueError" not in capsys.readouterr().err


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
