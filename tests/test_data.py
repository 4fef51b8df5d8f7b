"""Panel loading, windowing, splits and the synthetic generator."""

import numpy as np
import pytest

from tcgpn import data
from tcgpn.data import (SyntheticSpec, TimePanel, gen_synthetic, load_panel,
                        split_by_fraction, split_by_year, window_samples)


def write_csv(path, rows, features=("f1",)):
    header = "date,symbol," + ",".join(features) + ",target"
    path.write_text("\n".join([header] + rows) + "\n")


def make_panel(n=3, d=40, f=2, seed=0, start="2020-01-01"):
    rng = np.random.default_rng(seed)
    dates = [str(np.datetime64(start) + np.timedelta64(i, "D")) for i in range(d)]
    return TimePanel(
        node_ids=[f"s{i}" for i in range(n)],
        dates=dates,
        features=rng.normal(size=(n, d, f)),
        targets=rng.normal(size=(n, d)),
        feature_names=[f"f{j}" for j in range(f)],
    )


# loading -------------------------------------------------------------------------


def test_load_small_panel_shapes(tmp_path):
    p = tmp_path / "p.csv"
    write_csv(p, [
        "2020-01-01,a,1.0,0.1", "2020-01-02,a,2.0,0.2", "2020-01-03,a,3.0,0.3",
        "2020-01-01,b,4.0,0.4", "2020-01-02,b,5.0,0.5", "2020-01-03,b,6.0,0.6",
    ])
    panel, dropped_dates = load_panel(p)
    assert panel.n_nodes == 2 and panel.n_dates == 3 and panel.n_features == 1
    assert panel.node_ids == ["a", "b"]
    assert panel.features[0, 1, 0] == 2.0
    assert panel.targets[1, 2] == 0.6
    assert dropped_dates == []


def test_load_intersects_dates_and_reports(tmp_path):
    p = tmp_path / "p.csv"
    write_csv(p, [
        "2020-01-01,a,1.0,0.1", "2020-01-02,a,2.0,0.2", "2020-01-03,a,3.0,0.3",
        "2020-01-01,b,4.0,0.4", "2020-01-03,b,6.0,0.6",
    ])
    panel, dropped_dates = load_panel(p)
    assert panel.dates == ["2020-01-01", "2020-01-03"]
    assert dropped_dates == ["2020-01-02"]


def test_load_forty_five_feature_columns(tmp_path):
    feats = [f"x{i}" for i in range(45)]
    vals = ",".join(["1.0"] * 45)
    p = tmp_path / "p.csv"
    write_csv(p, [f"2020-01-0{d},s,{vals},0.5" for d in (1, 2)], features=feats)
    panel, _ = load_panel(p)
    assert panel.n_features == 45


def test_load_rejects_bad_rows(tmp_path):
    p = tmp_path / "bad1.csv"
    write_csv(p, ["2020-01-02,a,1.0,0.1", "2020-01-01,a,1.0,0.1"])
    with pytest.raises(ValueError, match="non-monotone"):
        load_panel(p)
    p2 = tmp_path / "bad2.csv"
    write_csv(p2, ["2020-01-01,a,oops,0.1"])
    with pytest.raises(ValueError, match="unparseable|bad"):
        load_panel(p2)
    p3 = tmp_path / "bad3.csv"
    p3.write_text("date,symbol,wrong\n")
    with pytest.raises(ValueError, match="header"):
        load_panel(p3)
    p4 = tmp_path / "bad4.csv"
    write_csv(p4, ["2020-13-40,a,1.0,0.1"])
    with pytest.raises(ValueError, match="bad date"):
        load_panel(p4)
    p5 = tmp_path / "bad5.csv"
    for cell in ("nan", "inf", "-inf"):
        for row in (f"2020-01-02,a,{cell},0.2", f"2020-01-02,a,1.0,{cell}"):
            write_csv(p5, ["2020-01-01,a,1.0,0.1", row])
            with pytest.raises(ValueError, match=r"bad5\.csv:3: non-finite"):
                load_panel(p5)


def test_load_rejects_non_canonical_dates(tmp_path):
    # ISO forms Python 3.11+ parses but 3.10 does not; as strings they sort wrongly
    p = tmp_path / "iso.csv"
    for d in ("20200102", "2020-W01-3", "2020-1-02", " 2020-01-02"):
        write_csv(p, ["2020-01-01,a,1.0,0.1", f"{d},a,1.0,0.1"])
        with pytest.raises(ValueError, match=rf"iso\.csv:3: bad date '{d}'"):
            load_panel(p)


def test_save_load_round_trip(tmp_path):
    panel = make_panel(n=2, d=5, f=3, seed=4)
    path = tmp_path / "panel.csv"
    data.save_panel(path, panel)
    loaded, _ = load_panel(path)
    assert np.array_equal(loaded.features, panel.features)  # repr round-trips exactly
    assert np.array_equal(loaded.targets, panel.targets)
    assert loaded.dates == panel.dates


# windowing -----------------------------------------------------------------------


def test_window_counts():
    assert len(window_samples(make_panel(d=32), 30, 1)) == 2
    assert len(window_samples(make_panel(d=31), 30, 1)) == 1
    assert window_samples(make_panel(d=30), 30, 1) == []


def test_last_window_target_is_final_date():
    panel = make_panel(d=40)
    windows = window_samples(panel, 30, 1)
    assert panel.dates[windows[-1].end_index + 1] == panel.dates[-1]
    assert np.array_equal(windows[-1].target, panel.targets[:, -1])


def test_no_lookahead_every_feature_before_target():
    panel = make_panel(d=45)
    for w in window_samples(panel, 30, 4):
        assert w.end_date == panel.dates[w.end_index] < panel.dates[w.end_index + 1]
        assert np.array_equal(w.target, panel.targets[:, w.end_index + 1])
        assert w.panel.shape[1] == 30


def test_window_stride():
    windows = window_samples(make_panel(d=40), 10, 5)
    ends = [w.end_index for w in windows]
    assert ends == [9, 14, 19, 24, 29, 34]  # targets stay inside the panel
    assert all(np.array_equal(w.panel, make_panel(d=40).features[:, e - 9:e + 1])
               for w, e in zip(windows, ends))


# splits --------------------------------------------------------------------------


def _year_panel(years, rows_per_year=4, n=2):
    dates = []
    for y in years:
        for m in range(rows_per_year):
            dates.append(f"{y}-{m + 1:02d}-15")
    d = len(dates)
    rng = np.random.default_rng(0)
    return TimePanel(node_ids=[f"s{i}" for i in range(n)], dates=dates,
                     features=rng.normal(size=(n, d, 1)), targets=rng.normal(size=(n, d)),
                     feature_names=["f0"])


def test_split_twelve_years_ten_one_one():
    panel = _year_panel(range(2010, 2022))
    train, val, test = split_by_year(panel, 10, 1, 1)
    assert {d[:4] for d in train.dates} == {str(y) for y in range(2010, 2020)}
    assert {d[:4] for d in val.dates} == {"2020"}
    assert {d[:4] for d in test.dates} == {"2021"}


def test_split_three_years_one_each():
    panel = _year_panel(range(2018, 2021))
    train, val, test = split_by_year(panel, 1, 1, 1)
    assert len(train.dates) == len(val.dates) == len(test.dates) == 4


def test_split_ordering_property():
    panel = _year_panel(range(2008, 2022))
    train, val, test = split_by_year(panel, 10, 1, 1)
    assert max(train.dates) < min(val.dates) < min(test.dates)


def test_split_insufficient_span_rejected():
    with pytest.raises(ValueError, match="years"):
        split_by_year(_year_panel(range(2019, 2021)), 10, 1, 1)


def test_split_by_fraction_covers_panel():
    panel = make_panel(d=100)
    a, b, c = split_by_fraction(panel, 0.7, 0.15)
    assert a.n_dates + b.n_dates + c.n_dates == 100
    assert max(a.dates) < min(b.dates) < min(c.dates)


# standardization -------------------------------------------------------------------


def test_standardize_uses_given_stats():
    panel = make_panel(d=50, f=2, seed=9)
    stats = data.feature_stats(panel)
    z = data.standardize(panel, stats)
    flat = z.features.reshape(-1, 2)
    assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(flat.std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(z.targets, panel.targets)


# synthetic -----------------------------------------------------------------------


def test_synthetic_noise_free_followers_replay_leader():
    spec = SyntheticSpec(n_clusters=2, nodes_per_cluster=3, lag=2, noise_std=0.0,
                         length=60, seed=5)
    panel, truth = gen_synthetic(spec)
    change = panel.features[:, :, 0]
    for c in range(2):
        lead = change[3 * c]
        for k in (1, 2):
            follower = change[3 * c + k]
            # boundary entries hold the zero placeholder, compare past them
            assert np.allclose(follower[3:], lead[1:-2])
    assert np.array_equal(panel.targets, change)


def test_synthetic_truth_graph_block_diagonal():
    spec = SyntheticSpec(n_clusters=3, nodes_per_cluster=2, length=30, seed=0)
    _, truth = gen_synthetic(spec)
    w = truth.weights
    expected = np.zeros((6, 6))
    for c in range(3):
        expected[2 * c:2 * c + 2, 2 * c:2 * c + 2] = 1.0
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(w, expected)


def test_synthetic_lead_lag_oracle_reaches_correlation_one():
    spec = SyntheticSpec(n_clusters=4, nodes_per_cluster=5, lag=1, noise_std=0.0,
                         length=80, seed=3)
    panel, _ = gen_synthetic(spec)
    windows = window_samples(panel, 30, 7)
    followers = [i for i, nid in enumerate(panel.node_ids) if "F" in nid]
    change = panel.features[:, :, 0]
    for w in windows:
        e = w.end_index
        preds = []
        for i in followers:
            cluster = panel.node_ids[i][:3]
            lead_idx = panel.node_ids.index(cluster + "LEAD")
            preds.append(change[lead_idx, e])  # the leader's current move
        preds = np.array(preds)
        real = w.target[followers]
        r = np.corrcoef(preds, real)[0, 1]
        assert r == pytest.approx(1.0, abs=1e-9)


def test_synthetic_reproducible():
    spec = SyntheticSpec(length=50, seed=11)
    p1, g1 = gen_synthetic(spec)
    p2, g2 = gen_synthetic(spec)
    assert np.array_equal(p1.features, p2.features)
    assert np.array_equal(p1.targets, p2.targets)
    assert np.array_equal(g1.weights, g2.weights)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(lag=0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_std=-1.0)


def test_panel_invariants_enforced():
    with pytest.raises(ValueError, match="increasing"):
        TimePanel(["a"], ["2020-01-02", "2020-01-01"], np.zeros((1, 2, 1)),
                  np.zeros((1, 2)), ["f"])
    with pytest.raises(ValueError, match="finite"):
        TimePanel(["a"], ["2020-01-01"], np.full((1, 1, 1), np.nan),
                  np.zeros((1, 1)), ["f"])
    with pytest.raises(ValueError, match="duplicate"):
        TimePanel(["a", "a"], ["2020-01-01"], np.zeros((2, 1, 1)),
                  np.zeros((2, 1)), ["f"])
