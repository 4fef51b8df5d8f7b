"""Prediction files to portfolio metrics.

Strategy: each prediction date, hold the k highest-scored names equal-weight;
the day's PnL is the mean realized return of the held names on the next
available return date. Ties break by symbol, lexicographically. PnL
cumulates additively, and the nine metrics are computed on that curve.

File formats: predictions CSV `date,symbol,score`; returns CSV
`date,symbol,return` where a row's return is the one realized ON that date.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import check_date
from .tensorcore.checkpoint import atomic_write, open_text

TRADING_DAYS_PER_YEAR = 252
PNL_SVG_SIZE = (720, 320, 40)  # pnl.svg's width, height and plot margin in pixels


class ConstantInputError(ValueError):
    """Cross-section had zero variance; the date is skipped and counted."""


@dataclass
class PnlSeries:
    dates: list[str]
    daily: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def from_daily(cls, dates: list[str], daily) -> "PnlSeries":
        daily = np.asarray(daily, dtype=np.float64)
        return cls(dates=list(dates), daily=daily, cumulative=np.cumsum(daily))


@dataclass
class StrategyReport:
    dropped_names: list[tuple[str, str]] = field(default_factory=list)  # (date, symbol)
    skipped_dates: list[str] = field(default_factory=list)


@dataclass
class MetricsReport:
    ic: float | None
    pnl: float
    ar: float
    vol: float
    sharpe: float | None
    mdd: float
    calmar: float | None
    winr: float
    pl_ratio: float | None
    n_days: int


# score/return alignment --------------------------------------------------------


def read_score_file(path: str | Path, value_name: str) -> dict[str, dict[str, float]]:
    """Read a `date,symbol,<value_name>` CSV into {date: {symbol: value}}.
    Values must be finite and each (date, symbol) may appear once."""
    table: dict[str, dict[str, float]] = {}
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "symbol", value_name]:
            raise ValueError(f"{path}: expected header date,symbol,{value_name}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns")
            d, sym, raw = rec
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite number {raw!r}")
            per = table.get(d)
            if per is None:  # validate each date once, where it first appears
                check_date(path, lineno, d)
                per = table[d] = {}
            elif sym in per:
                raise ValueError(f"{path}:{lineno}: duplicate row for ({d}, {sym})")
            per[sym] = value
    if not table:
        raise ValueError(f"{path}: no rows")
    return table


def _date_pairs(predictions: dict, returns: dict):
    """Each prediction date in order, with the first return date after it
    (None when there is none)."""
    return_dates = sorted(returns)
    for d in sorted(predictions):
        i = bisect.bisect_right(return_dates, d)
        yield d, return_dates[i] if i < len(return_dates) else None


def daily_ic(pred: np.ndarray, realized: np.ndarray, method: str = "pearson") -> float:
    """Cross-sectional correlation between scores and realized returns, in
    the precision of the inputs."""
    pred = np.asarray(pred)
    realized = np.asarray(realized)
    if pred.shape != realized.shape or pred.size < 2:
        raise ValueError("need two equal-length vectors with >= 2 entries")
    if method == "rank":
        pred = _average_ranks(pred)
        realized = _average_ranks(realized)
    elif method != "pearson":
        raise ValueError(f"unknown IC method: {method}")
    if np.std(pred) == 0 or np.std(realized) == 0:
        raise ConstantInputError("constant cross-section")
    pc = pred - pred.mean()
    rc = realized - realized.mean()
    return float((pc * rc).sum() / (np.sqrt((pc * pc).sum()) * np.sqrt((rc * rc).sum())))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """0-based ranks; equal values share the mean of their first and last position."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    return (0.5 * (last - counts + 1 + last))[group]


def ic_series(predictions: dict[str, dict[str, float]],
              returns: dict[str, dict[str, float]], method: str = "pearson"
              ) -> tuple[list[str], list[float], int]:
    """Per-prediction-date IC against next-date returns; constant or
    unmatchable cross-sections are skipped and counted."""
    dates, ics, skipped = [], [], 0
    for d, rd in _date_pairs(predictions, returns):
        if rd is None:
            skipped += 1
            continue
        common = sorted(set(predictions[d]) & set(returns[rd]))
        if len(common) < 2:
            skipped += 1
            continue
        p = np.array([predictions[d][s] for s in common])
        r = np.array([returns[rd][s] for s in common])
        try:
            ics.append(daily_ic(p, r, method=method))
            dates.append(d)
        except ConstantInputError:
            skipped += 1
    return dates, ics, skipped


def run_strategy(predictions: dict[str, dict[str, float]],
                 returns: dict[str, dict[str, float]], k: int
                 ) -> tuple[PnlSeries, StrategyReport]:
    """Top-k long, equal weight, rebalanced every prediction date."""
    universe = {s for per in predictions.values() for s in per}
    if k < 1 or k > len(universe):
        raise ValueError(f"k must be in [1, {len(universe)}], got {k}")
    report = StrategyReport()
    dates, daily = [], []
    for d, rd in _date_pairs(predictions, returns):
        if rd is None:
            report.skipped_dates.append(d)
            continue
        ranked = sorted(predictions[d].items(), key=lambda kv: (-kv[1], kv[0]))
        held = [sym for sym, _ in ranked[:k]]
        rets = []
        for sym in held:
            r = returns[rd].get(sym)
            if r is None:
                report.dropped_names.append((d, sym))
            else:
                rets.append(r)
        if not rets:
            report.skipped_dates.append(d)
            continue
        dates.append(rd)
        daily.append(float(np.mean(rets)))
    if not daily:
        raise ValueError("strategy produced no tradeable dates")
    return PnlSeries.from_daily(dates, daily), report


def max_drawdown(cumulative: np.ndarray) -> float:
    """Largest peak-to-trough decline of the cumulative curve (single pass,
    identical to the max over all index pairs i <= j of cum[i] - cum[j])."""
    return float(np.max(np.maximum.accumulate(cumulative) - cumulative, initial=0.0))


def compute_metrics(pnl: PnlSeries, trading_days_per_year: int = TRADING_DAYS_PER_YEAR,
                    ic: float | None = None) -> MetricsReport:
    """The nine portfolio metrics. Annualization uses the configured day
    count; VOL uses the sample standard deviation (ddof=1). Ratios with a
    zero denominator are reported as absent (None), never infinity."""
    daily = pnl.daily
    n = len(daily)
    if n < 2:
        raise ValueError("need at least two days of PnL")
    total = float(pnl.cumulative[-1])
    ar = float(daily.mean()) * trading_days_per_year
    vol = float(daily.std(ddof=1)) * math.sqrt(trading_days_per_year)
    sharpe = ar / vol if vol > 0 else None
    mdd = max_drawdown(pnl.cumulative)
    calmar = ar / mdd if mdd > 0 else None
    winr = float(np.count_nonzero(daily > 0)) / n
    gains = daily[daily > 0]
    pains = daily[daily < 0]
    if len(gains) and len(pains):
        pl_ratio = float(gains.mean()) / abs(float(pains.mean()))
    else:
        pl_ratio = None
    return MetricsReport(ic=ic, pnl=total, ar=ar, vol=vol, sharpe=sharpe, mdd=mdd,
                         calmar=calmar, winr=winr, pl_ratio=pl_ratio, n_days=n)


# output -------------------------------------------------------------------------


def write_metrics_csv(path: str | Path, report: MetricsReport) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows([key, "" if value is None else repr(float(value))]
                         for key, value in asdict(report).items())


def write_ic_csv(path: str | Path, dates: list[str], ics: list[float]) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "ic"])
        writer.writerows([d, repr(float(v))] for d, v in zip(dates, ics))


def write_pnl_svg(path: str | Path, pnl: PnlSeries) -> None:
    """Static cumulative-PnL curve as a standalone SVG polyline."""
    cum = np.concatenate([[0.0], pnl.cumulative])
    lo, hi = float(cum.min()), float(cum.max())
    span = (hi - lo) or 1.0
    width, height, margin = PNL_SVG_SIZE
    xs = np.linspace(margin, width - margin, len(cum))
    ys = height - margin - (cum - lo) / span * (height - 2 * margin)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    first, last = pnl.dates[0], pnl.dates[-1]
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="100%" height="100%" fill="white"/>
<text x="{margin}" y="20" font-size="13" font-family="sans-serif">cumulative PnL {first} to {last} (final {pnl.cumulative[-1]:.4f})</text>
<text x="4" y="{height - margin}" font-size="11" font-family="sans-serif">{lo:.3f}</text>
<text x="4" y="{margin}" font-size="11" font-family="sans-serif">{hi:.3f}</text>
<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#999"/>
<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
</svg>
"""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(svg)
