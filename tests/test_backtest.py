"""Metrics engine vs brute-force oracles, strategy mechanics, file IO."""

import math

import numpy as np
import pytest

from tcgpn import backtest
from tcgpn.backtest import (ConstantInputError, MetricsReport, PnlSeries,
                            compute_metrics, daily_ic, ic_series, max_drawdown,
                            read_score_file, run_strategy)


def brute_force_metrics(daily, trading_days=252):
    """Independent O(n^2) reference implementation of all nine metrics."""
    daily = list(map(float, daily))
    n = len(daily)
    cumulative = [sum(daily[:i + 1]) for i in range(n)]
    pnl = cumulative[-1]
    mean = sum(daily) / n
    ar = mean * trading_days
    var = sum((d - mean) ** 2 for d in daily) / (n - 1)
    vol = math.sqrt(var) * math.sqrt(trading_days)
    sharpe = ar / vol if vol > 0 else None
    mdd = 0.0
    for i in range(n):
        for j in range(i, n):
            mdd = max(mdd, cumulative[i] - cumulative[j])
    calmar = ar / mdd if mdd > 0 else None
    winr = sum(1 for d in daily if d > 0) / n
    gains = [d for d in daily if d > 0]
    pains = [d for d in daily if d < 0]
    pl = (sum(gains) / len(gains)) / abs(sum(pains) / len(pains)) if gains and pains else None
    return dict(pnl=pnl, ar=ar, vol=vol, sharpe=sharpe, mdd=mdd, calmar=calmar,
                winr=winr, pl_ratio=pl)


def dates_for(n):
    base = np.datetime64("2021-01-01")
    return [str(base + np.timedelta64(i, "D")) for i in range(n)]


def test_hand_case_plus_one_minus_two_plus_one():
    pnl = PnlSeries.from_daily(dates_for(3), [1.0, -2.0, 1.0])
    assert np.allclose(pnl.cumulative, [1.0, -1.0, 0.0])
    m = compute_metrics(pnl)
    assert m.mdd == pytest.approx(2.0)
    assert m.pnl == pytest.approx(0.0)
    assert m.winr == pytest.approx(2.0 / 3.0)
    assert m.pl_ratio == pytest.approx(0.5)


def test_metrics_match_bruteforce_on_100_random_series():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        daily = rng.normal(0, 0.01, size=n)
        if trial % 7 == 0:
            daily = np.abs(daily)  # exercise the no-drawdown branch
        pnl = PnlSeries.from_daily(dates_for(n), daily)
        got = compute_metrics(pnl)
        want = brute_force_metrics(daily)
        for key, expected in want.items():
            actual = getattr(got, key)
            if expected is None:
                assert actual is None, key
            else:
                assert actual == pytest.approx(expected, abs=1e-9), (key, trial)


def test_strictly_increasing_curve_has_no_drawdown():
    pnl = PnlSeries.from_daily(dates_for(5), [0.1, 0.2, 0.1, 0.3, 0.2])
    m = compute_metrics(pnl)
    assert m.mdd == 0.0
    assert m.calmar is None


def test_single_pass_mdd_equals_pairwise_definition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cum = np.cumsum(rng.normal(size=rng.integers(2, 80)))
        brute = max(cum[i] - cum[j] for i in range(len(cum)) for j in range(i, len(cum)))
        assert max_drawdown(cum) == max(brute, 0.0)


def test_scaling_invariances():
    rng = np.random.default_rng(2)
    daily = rng.normal(0, 0.02, size=60)
    a = compute_metrics(PnlSeries.from_daily(dates_for(60), daily))
    b = compute_metrics(PnlSeries.from_daily(dates_for(60), 3.0 * daily))
    for key in ("pnl", "ar", "vol", "mdd"):
        assert getattr(b, key) == pytest.approx(3.0 * getattr(a, key), abs=1e-9)
    for key in ("sharpe", "calmar", "winr", "pl_ratio"):
        assert getattr(b, key) == pytest.approx(getattr(a, key), abs=1e-9)


def test_metrics_report_ratio_invariants():
    rng = np.random.default_rng(3)
    daily = rng.normal(0, 0.01, 40)
    m = compute_metrics(PnlSeries.from_daily(dates_for(40), daily))
    assert m.sharpe == pytest.approx(m.ar / m.vol, abs=1e-9)
    assert m.calmar == pytest.approx(m.ar / m.mdd, abs=1e-9)
    assert 0.0 <= m.winr <= 1.0 and m.mdd >= 0.0


def test_metrics_need_two_days():
    with pytest.raises(ValueError):
        compute_metrics(PnlSeries.from_daily(dates_for(1), [0.1]))


# IC ------------------------------------------------------------------------------


def test_daily_ic_perfect_and_reversed():
    y = np.array([0.3, 0.1, -0.2, 0.5])
    assert daily_ic(y, y) == pytest.approx(1.0)
    sym = np.array([-2.0, -1.0, 1.0, 2.0])
    assert daily_ic(sym[::-1], sym) == pytest.approx(-1.0)


def test_daily_ic_hand_value():
    assert daily_ic(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4])) == pytest.approx(0.8)


def test_daily_ic_constant_raises():
    with pytest.raises(ConstantInputError):
        daily_ic(np.ones(4), np.array([1.0, 2, 3, 4]))


def test_rank_ic_handles_ties_and_monotone_maps():
    rng = np.random.default_rng(4)
    x = rng.normal(size=20)
    y = np.exp(x) + 0.1 * 0  # strictly monotone in x
    assert daily_ic(x, y, method="rank") == pytest.approx(1.0)
    with_ties = np.round(x, 1)
    v = daily_ic(with_ties, y, method="rank")
    assert 0.9 < v <= 1.0


def test_rank_ic_equals_pearson_of_average_ranks_with_ties_and_signed_zeros():
    def average_ranks(v):  # 0-based; a tie group shares the mean of its positions
        return np.array([np.sum(v < a) + (np.sum(v == a) - 1) / 2 for a in v])

    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=n)
        y = rng.integers(-2, 3, size=n).astype(float)
        try:
            expected = daily_ic(average_ranks(x), average_ranks(y))
        except ConstantInputError:
            with pytest.raises(ConstantInputError):
                daily_ic(x, y, method="rank")
            continue
        assert daily_ic(x, y, method="rank") == expected


def _preds_returns():
    predictions = {
        "2021-01-01": {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0},
        "2021-01-02": {"a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0},
    }
    returns = {
        "2021-01-02": {"a": 0.10, "b": 0.02, "c": -0.05, "d": 0.01},
        "2021-01-03": {"a": -0.01, "b": 0.00, "c": 0.04, "d": 0.06},
    }
    return predictions, returns


def test_strategy_holds_topk_with_next_day_returns():
    predictions, returns = _preds_returns()
    pnl, report = run_strategy(predictions, returns, k=2)
    assert pnl.dates == ["2021-01-02", "2021-01-03"]
    assert pnl.daily[0] == pytest.approx((0.10 + 0.02) / 2)  # held a, b
    assert pnl.daily[1] == pytest.approx((0.06 + 0.04) / 2)  # held d, c
    assert not report.dropped_names


def test_strategy_k_equals_universe_is_mean_return():
    predictions, returns = _preds_returns()
    pnl, _ = run_strategy(predictions, returns, k=4)
    assert pnl.daily[0] == pytest.approx(np.mean([0.10, 0.02, -0.05, 0.01]))


def test_strategy_perfect_foresight_maximal():
    rng = np.random.default_rng(5)
    returns_vec = rng.normal(size=10)
    syms = [f"s{i}" for i in range(10)]
    predictions = {"2021-01-01": dict(zip(syms, returns_vec))}
    returns = {"2021-01-02": dict(zip(syms, returns_vec))}
    pnl, _ = run_strategy(predictions, returns, k=3)
    assert pnl.daily[0] == pytest.approx(np.mean(np.sort(returns_vec)[-3:]))


def test_strategy_tie_break_lexicographic():
    predictions = {"2021-01-01": {"b": 1.0, "a": 1.0, "c": 1.0}}
    returns = {"2021-01-02": {"a": 0.3, "b": 0.1, "c": 0.5}}
    pnl, _ = run_strategy(predictions, returns, k=2)
    assert pnl.daily[0] == pytest.approx((0.3 + 0.1) / 2)  # a then b


def test_strategy_score_shift_invariant():
    predictions, returns = _preds_returns()
    shifted = {d: {s: v + 42.0 for s, v in per.items()} for d, per in predictions.items()}
    a, _ = run_strategy(predictions, returns, k=2)
    b, _ = run_strategy(shifted, returns, k=2)
    assert np.array_equal(a.daily, b.daily)


def test_strategy_missing_return_drops_name_and_logs():
    predictions = {"2021-01-01": {"a": 2.0, "b": 1.0}}
    returns = {"2021-01-02": {"b": 0.04}}
    pnl, report = run_strategy(predictions, returns, k=2)
    assert pnl.daily[0] == pytest.approx(0.04)
    assert report.dropped_names == [("2021-01-01", "a")]


def test_strategy_rejects_bad_k():
    predictions, returns = _preds_returns()
    with pytest.raises(ValueError):
        run_strategy(predictions, returns, k=0)
    with pytest.raises(ValueError):
        run_strategy(predictions, returns, k=5)


def test_ic_series_skips_constant_and_unmatchable():
    predictions = {
        "2021-01-01": {"a": 1.0, "b": 2.0},
        "2021-01-02": {"a": 1.0, "b": 1.0},  # constant -> skipped
        "2021-01-09": {"a": 1.0, "b": 2.0},  # no later return date -> skipped
    }
    returns = {
        "2021-01-02": {"a": 0.1, "b": 0.2},
        "2021-01-03": {"a": 0.1, "b": 0.2},
    }
    dates, ics, skipped = ic_series(predictions, returns)
    assert dates == ["2021-01-01"]
    assert ics[0] == pytest.approx(1.0)
    assert skipped == 2


def test_cumulative_is_exact_prefix_sum():
    rng = np.random.default_rng(6)
    daily = rng.normal(size=30)
    pnl = PnlSeries.from_daily(dates_for(30), daily)
    acc = 0.0
    for i in range(30):
        acc += daily[i]  # sequential accumulation, bit-for-bit
        assert pnl.cumulative[i] == acc


# files ----------------------------------------------------------------------------


def test_score_file_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,symbol,score\n2021-01-01,a,0.5\n2021-01-01,b,-0.25\n")
    table = read_score_file(path, "score")
    assert table == {"2021-01-01": {"a": 0.5, "b": -0.25}}
    with pytest.raises(ValueError, match="header"):
        read_score_file(path, "return")
    for rows, message in [
        ("2021-01-01,a,0.5\n2021-01-01,b,nan\n", r"bad\.csv:3: non-finite"),
        ("2021-01-01,a,inf\n", r"bad\.csv:2: non-finite"),
        ("2021-01-01,a,0.5\n2021-01-02,a,0.5\n2021-01-01,a,0.7\n",
         r"bad\.csv:4: duplicate row for \(2021-01-01, a\)"),
        ("2021-01-01,a,0.5\n2020-13-45,a,0.5\n", r"bad\.csv:3: bad date '2020-13-45'"),
        ("2021-01-01,a,0.5\n20210102,a,0.5\n", r"bad\.csv:3: bad date '20210102'"),
        ("2021-W01-3,a,0.5\n", r"bad\.csv:2: bad date '2021-W01-3'"),
    ]:
        (tmp_path / "bad.csv").write_text("date,symbol,score\n" + rows)
        with pytest.raises(ValueError, match=message):
            read_score_file(tmp_path / "bad.csv", "score")


def test_outputs_written(tmp_path):
    pnl = PnlSeries.from_daily(dates_for(3), [1.0, -2.0, 1.0])
    m = compute_metrics(pnl, ic=0.5)
    backtest.write_metrics_csv(tmp_path / "m.csv", m)
    text = (tmp_path / "m.csv").read_text()
    assert "mdd,2.0" in text and "ic,0.5" in text
    backtest.write_ic_csv(tmp_path / "ic.csv", ["2021-01-01"], [0.25])
    assert "2021-01-01,0.25" in (tmp_path / "ic.csv").read_text()
    backtest.write_pnl_svg(tmp_path / "c.svg", pnl)
    svg = (tmp_path / "c.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
