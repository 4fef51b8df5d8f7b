"""End-to-end CLI pipeline on a miniature synthetic dataset: synth-data ->
pretrain -> finetune -> predict -> backtest, plus determinism and sweep."""

import numpy as np
import pytest

from tcgpn import cli, model
from tcgpn.cli import dispatch
from tcgpn.tensorcore import load_checkpoint, save_checkpoint

TINY = [
    "--split_mode", "fraction", "--window", "10", "--stride", "2",
    "--d_model", "8", "--gat_heads", "1", "--gat_dim", "4",
    "--tgm_blocks", "1", "--tgm_heads", "2", "--d_a", "4",
    "--ffn_hidden", "16", "--head_hidden", "16", "--sigma_h", "2.5",
    "--epochs", "2", "--finetune_epochs", "2", "--batch_size", "4",
    "--early_stop_patience", "50",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert dispatch(["synth-data", "--out", str(synth), "--synth_length", "90",
                     "--synth_clusters", "2", "--synth_nodes_per_cluster", "3",
                     "--seed", "1"]) == 0
    return root, synth


def run_dirs(base):
    return sorted(p for p in base.iterdir() if p.is_dir())


@pytest.fixture(scope="module")
def pretrained(pipeline):
    """The run directory of one CLI pretraining run, which the tests that
    fine-tune, predict or load its checkpoint start from."""
    root, synth = pipeline
    runs = root / "runs"
    assert dispatch(["pretrain", "--data", str(synth / "panel.csv"),
                     "--graph", str(synth / "graph.txt"), "--out", str(runs)] + TINY) == 0
    return run_dirs(runs)[0]


def test_full_pipeline(pipeline, pretrained, capsys):
    root, synth = pipeline
    runs = root / "runs"
    run = pretrained
    assert (run / "pretrained.ckpt").exists()
    assert (run / "config.txt").exists()
    assert (run / "inputs.sha256").exists()
    assert (run / "pretrain_log.csv").exists()

    code = dispatch(["finetune", "--checkpoint", str(run / "pretrained.ckpt"),
                     "--data", str(synth / "panel.csv"),
                     "--graph", str(synth / "graph.txt"), "--out", str(runs)] + TINY)
    assert code == 0, capsys.readouterr().err
    fine_run = [d for d in run_dirs(runs) if (d / "finetuned.ckpt").exists()][0]

    preds = root / "predictions.csv"
    code = dispatch(["predict", "--checkpoint", str(fine_run / "finetuned.ckpt"),
                     "--data", str(synth / "panel.csv"),
                     "--graph", str(synth / "graph.txt"),
                     "--split", "test", "--out", str(preds)] + TINY)
    assert code == 0, capsys.readouterr().err
    lines = preds.read_text().strip().splitlines()
    assert lines[0] == "date,symbol,score" and len(lines) > 1
    # a pretraining checkpoint holds an untrained head: predict refuses it
    untrained = root / "untrained.csv"
    code = dispatch(["predict", "--checkpoint", str(run / "pretrained.ckpt"),
                     "--data", str(synth / "panel.csv"), "--graph", str(synth / "graph.txt"),
                     "--out", str(untrained)] + TINY)
    err = capsys.readouterr().err
    assert code == 3 and err.count("\n") == 1 and not untrained.exists()
    assert f"{run / 'pretrained.ckpt'}: checkpoint phase is 'pretrain'" in err

    bt = root / "bt"
    code = dispatch(["backtest", "--predictions", str(preds),
                     "--returns", str(synth / "returns.csv"),
                     "--out", str(bt), "--top_k", "2"])
    assert code == 0, capsys.readouterr().err
    assert (bt / "metrics.csv").exists()
    assert (bt / "ic_series.csv").exists()
    assert (bt / "pnl.svg").exists()
    out = capsys.readouterr().out
    assert "sharpe" in out and "mdd" in out


def test_checkpoint_moves_between_universes_of_different_size(tmp_path, capsys):
    """No parameter depends on the node count: a checkpoint pretrained on a
    10-node panel fine-tunes and predicts on a 40-node panel, which the
    forward-only passes split into more than one node chunk."""
    inputs = {}
    for nodes in (10, 40):
        synth = tmp_path / f"synth{nodes}"
        assert dispatch(["synth-data", "--out", str(synth), "--synth_length", "90", "--synth_clusters", "2",
                         "--synth_nodes_per_cluster", str(nodes // 2), "--seed", "1"]) == 0
        inputs[nodes] = ["--data", str(synth / "panel.csv"), "--graph", str(synth / "graph.txt")]
    assert 40 > model.NODE_CHUNK
    assert dispatch(["pretrain", "--out", str(tmp_path / "pre")] + inputs[10] + TINY) == 0
    pre = run_dirs(tmp_path / "pre")[0] / "pretrained.ckpt"
    assert dispatch(["finetune", "--checkpoint", str(pre), "--out", str(tmp_path / "fine")] + inputs[40] + TINY) == 0
    fine = run_dirs(tmp_path / "fine")[0] / "finetuned.ckpt"
    preds = tmp_path / "predictions.csv"
    assert dispatch(["predict", "--checkpoint", str(fine), "--out", str(preds)] + inputs[40] + TINY) == 0, \
        capsys.readouterr().err
    by_date = {}
    for line in preds.read_text().splitlines()[1:]:
        date, symbol, score = line.split(",")
        by_date.setdefault(date, {})[symbol] = float(score)
    assert by_date
    for scores in by_date.values():
        assert len(scores) == 40 and np.all(np.isfinite(list(scores.values())))


def test_pretrain_determinism_across_cli_runs(pipeline):
    root, synth = pipeline
    runs_a = root / "det_a"
    runs_b = root / "det_b"
    args = ["pretrain", "--data", str(synth / "panel.csv"),
            "--graph", str(synth / "graph.txt"), "--seed", "7"] + TINY
    assert dispatch(args + ["--out", str(runs_a)]) == 0
    assert dispatch(args + ["--out", str(runs_b)]) == 0
    ck_a = (run_dirs(runs_a)[0] / "pretrained.ckpt").read_bytes()
    ck_b = (run_dirs(runs_b)[0] / "pretrained.ckpt").read_bytes()
    assert ck_a == ck_b


def test_checkpoint_config_mismatch_rejected(pipeline, pretrained, capsys):
    root, synth = pipeline
    run = pretrained
    inputs = ["--data", str(synth / "panel.csv"), "--graph", str(synth / "graph.txt")]
    wrong = [a if a != "8" else "16" for a in TINY]  # d_model 8 -> 16
    code = dispatch(["finetune", "--checkpoint", str(run / "pretrained.ckpt"),
                     "--out", str(root / "x")] + inputs + wrong)
    assert code == 3
    # a saved model config the model does not know is a checkpoint error too
    params, saved = load_checkpoint(run / "pretrained.ckpt")
    bad = root / "unknown_key.ckpt"
    save_checkpoint(bad, params, config=dict(saved, model=dict(saved["model"], bogus=1)))
    capsys.readouterr()
    for command in (["finetune", "--out", str(root / "x")], ["predict", "--out", str(root / "p.csv")]):
        assert dispatch(command + ["--checkpoint", str(bad)] + inputs + TINY) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown_key.ckpt: checkpoint model config" in err
        assert "TypeError" not in err
    # a model key that leaves every shape alone must still match the checkpoint's
    other_sigma = [a if a != "2.5" else "3.0" for a in TINY]
    for command in (["finetune", "--out", str(root / "x")], ["predict", "--out", str(root / "p.csv")]):
        assert dispatch(command + ["--checkpoint", str(run / "pretrained.ckpt")] + inputs + other_sigma) == 3
        assert "sigma_h=3.0 (saved 2.5)" in capsys.readouterr().err
    assert not (root / "x").exists() and not (root / "p.csv").exists()


@pytest.mark.parametrize("bad", [["--lambda_m", "-0.1"], ["--r_t", "1.0"], ["--batch_size", "0"],
                                 ["--d_model", "8", "--tgm_heads", "3"],
                                 ["--n_sub", "1"], ["--n_sub", "-5"],
                                 ["--epochs", "0", "--finetune_epochs", "0"], ["--lr", "0"],
                                 ["--beta", "-1"], ["--window", "100"], ["--window", "0"],
                                 ["--stride", "0"], ["--train_frac", "1.5"], ["--split_mode", "year"],
                                 ["--split_mode", "year", "--train_years", "0"],
                                 ["--leaky_slope", "0"], ["--leaky_slope", "1.5"]])
def test_bad_training_value_exits_3_without_run_dir(pipeline, tmp_path, capsys, bad):
    root, synth = pipeline
    inputs = ["--data", str(synth / "panel.csv"), "--graph", str(synth / "graph.txt")]
    for command in (["pretrain"], ["finetune", "--checkpoint", str(tmp_path / "absent.ckpt")]):
        out = tmp_path / "runs"
        assert dispatch(command + inputs + ["--out", str(out)] + TINY + bad) == 3
        assert not out.exists()
    assert "ValueError" not in capsys.readouterr().err


def test_predict_on_a_split_without_a_window_exits_3_without_out_file(pipeline, tmp_path, capsys):
    # the 14-date test split holds no 14-step window; the training split does
    root, synth = pipeline
    out = tmp_path / "p.csv"
    assert dispatch(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                     "--data", str(synth / "panel.csv"), "--graph", str(synth / "graph.txt"),
                     "--split", "test", "--out", str(out)] + TINY + ["--window", "14"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "window=14" in err and "test split has 14" in err
    assert not out.exists()


def test_sweep_grid(pipeline):
    root, _ = pipeline
    out = root / "sweep"
    code = dispatch(["sweep", "--grid", "r_t=0.2,0.4", "--out", str(out),
                     "--synth_length", "60", "--synth_clusters", "2",
                     "--synth_nodes_per_cluster", "3"] + TINY)
    assert code == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "r_t,pretrain_val_loss,val_ic"
    assert len(summary) == 3
    points = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert points == ["point_000_r_t=0.2", "point_001_r_t=0.4"]
    for p in points:
        assert (out / p / "config.txt").exists()
        assert (out / p / "pretrained.ckpt").exists()


def test_sweep_honours_split_mode(tmp_path, capsys):
    # a 400-date synthetic panel spans 2 calendar years; the year split needs 12
    code = dispatch(["sweep", "--grid", "r_t=0.2", "--out", str(tmp_path / "sweep"),
                     "--synth_length", "400"] + TINY + ["--split_mode", "year"])
    assert code == 3
    assert "panel spans 2 calendar years, need 12" in capsys.readouterr().err


def test_sweep_on_its_defaults_names_the_remedy_without_point_dir(tmp_path, capsys):
    # the default 600-date synthetic panel spans 2 calendar years; the default year split needs 12
    out = tmp_path / "sweep"
    assert dispatch(["sweep", "--grid", "r_t=0.2,0.3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: split_mode=year: panel spans 2 calendar years, need 12; "
                                       "pass --split_mode fraction, or a panel that spans more "
                                       "calendar years\n")
    assert not out.exists()


def test_sweep_without_a_training_window_exits_3_without_point_dir(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = dispatch(["sweep", "--grid", "r_t=0.2", "--out", str(out), "--synth_length", "120"]
                    + TINY + ["--window", "100"])
    assert code == 3 and "window=100" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_a_bad_later_point_exits_3_before_any_point_trains(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "_sweep_point", lambda prepared, point, run_dir: trained.append(point))
    out = tmp_path / "sweep"
    code = dispatch(["sweep", "--grid", "window=10,100", "--out", str(out), "--split_mode", "fraction",
                     "--synth_length", "120"] + TINY)
    assert code == 3 and "window=100" in capsys.readouterr().err
    assert trained == [] and not out.exists()
