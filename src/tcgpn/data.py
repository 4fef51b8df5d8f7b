"""Panel ingestion, windowing, chronological splits and the synthetic
lead-lag generator used for desk-scale verification.

Panel CSV schema: header `date,symbol,<feature...>,target`, ISO-8601 dates,
one row per (date, symbol). The target on a row is the label realized ON
that date (e.g. the close-to-close change ending that day), so a window of
features up to date d is paired with the target at the next date: no row in
the panel ever leaks future information into its own features.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date as _date
from pathlib import Path

import numpy as np

from .graphs import CorrelationGraph
from .tensorcore.checkpoint import atomic_write, open_text


@dataclass
class TimePanel:
    node_ids: list[str]
    dates: list[str]  # ISO-8601, strictly increasing
    features: np.ndarray  # (N, D, F)
    targets: np.ndarray  # (N, D), target realized at each date
    feature_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        n, d = len(self.node_ids), len(self.dates)
        if self.features.shape[:2] != (n, d):
            raise ValueError(f"features shape {self.features.shape} != ({n}, {d}, F)")
        if self.targets.shape != (n, d):
            raise ValueError(f"targets shape {self.targets.shape} != ({n}, {d})")
        if len(set(self.node_ids)) != n:
            raise ValueError("duplicate node_ids")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(d - 1)):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("panel contains non-finite values")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    def slice_dates(self, start: int, stop: int) -> "TimePanel":
        return replace(self, dates=self.dates[start:stop], features=self.features[:, start:stop, :].copy(),
                       targets=self.targets[:, start:stop].copy())


@dataclass
class WindowSample:
    """One model input: T steps of features per node, plus the target vector
    realized on the date right after the window."""

    panel: np.ndarray  # (N, T, F)
    target: np.ndarray  # (N,)
    end_date: str  # last input date
    end_index: int  # index of end_date in the source panel
    node_ids: list[str]

    @property
    def n_nodes(self) -> int:
        return self.panel.shape[0]


@dataclass
class SyntheticSpec:
    """Lead-lag benchmark: per cluster one AR(1) leader, followers replay the
    leader `lag` steps later plus observation noise."""

    n_clusters: int = 4
    nodes_per_cluster: int = 5
    lag: int = 1
    noise_std: float = 0.0
    length: int = 600
    seed: int = 0
    phi: float = 0.95
    start_date: str = "2015-01-01"

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError("lag must be a positive number of steps")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")


def check_date(path, lineno: int, d: str) -> None:
    """Accept a date only in canonical YYYY-MM-DD form. Dates are compared as
    strings, so other ISO forms that Python 3.11+ parses (20200102,
    2020-W01-3) would sort wrongly, and Python 3.10 rejects them."""
    try:
        ok = _date.fromisoformat(d).isoformat() == d
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{path}:{lineno}: bad date {d!r}")


def load_panel(path: str | Path) -> tuple[TimePanel, list[str]]:
    """Read the panel CSV. Only dates on which every node has a row are kept;
    returns the panel and the dropped dates."""
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header[:2] != ["date", "symbol"] or header[-1] != "target" or len(header) < 4:
            raise ValueError(f"{path}: header must be date,symbol,<features...>,target")
        rows: dict[str, dict[str, tuple]] = {}
        last_date: dict[str, str] = {}
        checked_dates: set[str] = set()
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(rec)}")
            d, sym = rec[0], rec[1]
            if d not in checked_dates:
                check_date(path, lineno, d)
                checked_dates.add(d)
            if sym in last_date and d <= last_date[sym]:
                raise ValueError(f"{path}:{lineno}: non-monotone dates for {sym!r} ({d} after {last_date[sym]})")
            last_date[sym] = d
            try:
                values = tuple(map(float, rec[2:]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable number in {rec[2:]!r}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite number in {rec[2:]!r}")
            rows.setdefault(sym, {})[d] = values

    if not rows:
        raise ValueError(f"{path}: no data rows")
    node_ids = sorted(rows)
    all_dates = sorted({d for per in rows.values() for d in per})
    dates = [d for d in all_dates if all(d in rows[s] for s in node_ids)]
    if not dates:
        raise ValueError(f"{path}: no date is covered by every node")
    kept = set(dates)
    table = np.array([[rows[s][d] for d in dates] for s in node_ids])  # (N, D, F+1)
    panel = TimePanel(node_ids=node_ids, dates=dates, features=table[:, :, :-1],
                      targets=table[:, :, -1], feature_names=header[2:-1])
    return panel, [d for d in all_dates if d not in kept]


def window_samples(panel: TimePanel, window: int, stride: int = 1) -> list[WindowSample]:
    """Slice the panel into samples of `window` steps whose target is the
    next date's label. Returns [] with no valid window."""
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window} and {stride}")
    d = panel.n_dates
    if window > d - 1:
        return []
    samples = []
    for end in range(window - 1, d - 1, stride):
        samples.append(WindowSample(
            panel=panel.features[:, end - window + 1:end + 1, :],
            target=panel.targets[:, end + 1],
            end_date=panel.dates[end],
            end_index=end,
            node_ids=list(panel.node_ids),
        ))
    return samples


def split_by_year(panel: TimePanel, train_years: int = 10, val_years: int = 1,
                  test_years: int = 1) -> tuple[TimePanel, TimePanel, TimePanel]:
    """Contiguous chronological split over the panel's most recent calendar
    years; windows built per split never straddle a boundary."""
    if min(train_years, val_years, test_years) < 1:
        raise ValueError(f"train_years, val_years and test_years must be >= 1, "
                         f"got {train_years}, {val_years} and {test_years}")
    years = sorted({d[:4] for d in panel.dates})
    need = train_years + val_years + test_years
    if len(years) < need:
        raise ValueError(f"panel spans {len(years)} calendar years, need {need}")
    use = years[-need:]
    cuts = (use[:train_years], use[train_years:train_years + val_years], use[train_years + val_years:])

    def part(year_set):
        idx = [i for i, d in enumerate(panel.dates) if d[:4] in year_set]
        return panel.slice_dates(idx[0], idx[-1] + 1)

    return tuple(part(set(span)) for span in cuts)


def split_by_fraction(panel: TimePanel, train_frac: float = 0.7,
                      val_frac: float = 0.15) -> tuple[TimePanel, TimePanel, TimePanel]:
    """Chronological split by date counts; handy for synthetic panels that
    span less than a full year."""
    if not (0 < train_frac < 1 and 0 < val_frac < 1 and train_frac + val_frac < 1):
        raise ValueError(f"train_frac and val_frac must be positive and sum below 1, "
                         f"got {train_frac} and {val_frac}")
    d = panel.n_dates
    a = int(round(d * train_frac))
    b = int(round(d * (train_frac + val_frac)))
    return panel.slice_dates(0, a), panel.slice_dates(a, b), panel.slice_dates(b, d)


def save_panel(path: str | Path, panel: TimePanel) -> None:
    """Write the panel CSV schema (date,symbol,<features...>,target)."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "symbol"] + list(panel.feature_names) + ["target"])
        for i, sym in enumerate(panel.node_ids):
            for j, d in enumerate(panel.dates):
                row = [d, sym] + [repr(float(v)) for v in panel.features[i, j]]
                row.append(repr(float(panel.targets[i, j])))
                writer.writerow(row)


def save_returns(path: str | Path, panel: TimePanel) -> None:
    """Write the realized-target series as a returns CSV (date,symbol,return)."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "symbol", "return"])
        writer.writerows([d, sym, repr(float(panel.targets[i, j]))]
                         for i, sym in enumerate(panel.node_ids) for j, d in enumerate(panel.dates))


# standardization -------------------------------------------------------------


def feature_stats(panel: TimePanel) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std over all nodes and dates (compute on the
    training split only, then apply everywhere)."""
    flat = panel.features.reshape(-1, panel.n_features)
    mu = flat.mean(axis=0)
    sd = flat.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return mu, sd


def standardize(panel: TimePanel, stats: tuple[np.ndarray, np.ndarray]) -> TimePanel:
    mu, sd = stats
    return replace(panel, features=(panel.features - mu) / sd)


# synthetic benchmark ----------------------------------------------------------


def gen_synthetic(spec: SyntheticSpec) -> tuple[TimePanel, CorrelationGraph]:
    """Lead-lag panel with known structure. Within each cluster, the leader is
    an AR(1) series and every follower equals the leader delayed by spec.lag
    (plus noise); the ground-truth graph links cluster members with weight 1.

    Features are stationary one-step differences of the series plus causal
    rolling transforms of those differences; with phi near 1 the raw level
    wanders far outside the training range on held-out dates, so it is not
    exposed as a feature. Targets are the changes themselves, indexed by
    their realization date.
    """
    rng = np.random.default_rng(spec.seed)
    d, lag = spec.length, spec.lag
    n = spec.n_clusters * spec.nodes_per_cluster
    series = np.zeros((n, d))
    node_ids = []
    truth = np.zeros((n, n))
    pos = 0
    for c in range(spec.n_clusters):
        path = np.zeros(d + lag)
        innov = rng.normal(0.0, 1.0, size=d + lag)
        for t in range(1, d + lag):
            path[t] = spec.phi * path[t - 1] + innov[t]
        members = range(pos, pos + spec.nodes_per_cluster)
        for k, i in enumerate(members):
            if k == 0:
                series[i] = path[lag:]
                node_ids.append(f"C{c:02d}LEAD")
            else:
                noise = rng.normal(0.0, spec.noise_std, size=d) if spec.noise_std > 0 else 0.0
                series[i] = path[:d] + noise
                node_ids.append(f"C{c:02d}F{k:02d}")
        truth[pos:pos + spec.nodes_per_cluster, pos:pos + spec.nodes_per_cluster] = 1.0
        pos += spec.nodes_per_cluster
    np.fill_diagonal(truth, 0.0)

    change = np.zeros_like(series)
    change[:, 1:] = series[:, 1:] - series[:, :-1]
    lagged = np.zeros_like(series)
    lagged[:, 1:] = change[:, :-1]
    win = 5
    roll_mean = np.zeros_like(series)
    roll_std = np.zeros_like(series)
    for t in range(d):
        lo = max(0, t - win + 1)
        roll_mean[:, t] = change[:, lo:t + 1].mean(axis=1)
        roll_std[:, t] = change[:, lo:t + 1].std(axis=1)
    features = np.stack([change, lagged, roll_mean, roll_std], axis=2)

    start = np.datetime64(spec.start_date)
    dates = [str(start + np.timedelta64(i, "D")) for i in range(d)]
    panel = TimePanel(node_ids=node_ids, dates=dates, features=features,
                      targets=change,
                      feature_names=["change", "change_lag1", "change_roll_mean",
                                     "change_roll_std"])
    graph = CorrelationGraph(n_nodes=n, weights=truth, directed=False, node_ids=node_ids)
    return panel, graph
