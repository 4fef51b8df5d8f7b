"""Correlation graphs over time-series nodes: industry and distance graph
construction, edge masking, and a text file format.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensorcore.checkpoint import atomic_write


@dataclass
class CorrelationGraph:
    """Weighted adjacency over N nodes. Self-weights are stored as zero;
    self-loops are added only inside the graph attention layer."""

    n_nodes: int
    weights: np.ndarray  # (N, N), non-negative, zero diagonal
    directed: bool
    node_ids: list[str]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(f"weights shape {self.weights.shape} != ({self.n_nodes}, {self.n_nodes})")
        if len(self.node_ids) != self.n_nodes:
            raise ValueError("node_ids length mismatch")
        if len(set(self.node_ids)) != self.n_nodes:
            raise ValueError("duplicate node_ids")
        if np.any(np.diag(self.weights) != 0):
            raise ValueError("self-weights must be zero")
        if np.any(self.weights < 0):
            raise ValueError("edge weights must be non-negative")

    def nnz(self) -> int:
        return int(np.count_nonzero(self.weights))

    def subgraph(self, indices: Sequence[int]) -> "CorrelationGraph":
        idx = np.asarray(indices)
        return CorrelationGraph(
            n_nodes=len(idx),
            weights=self.weights[np.ix_(idx, idx)].copy(),
            directed=self.directed,
            node_ids=[self.node_ids[i] for i in idx],
        )


@dataclass
class MaskedGraph:
    """A graph with some edges hidden from the model input.

    mask_kept is false exactly at the hidden entries, so reconstruction can
    be supervised on everything the model was allowed to see.
    """

    base: CorrelationGraph
    mask_kept: np.ndarray  # (N, N) bool, False where masked

    def connectivity(self) -> np.ndarray:
        """Boolean adjacency the attention layer may use (no self-loops):
        the base graph's edges minus the hidden ones."""
        return (self.base.weights != 0) & self.mask_kept


def build_industry_graph(nodes: Sequence[tuple[str, str, float, float]]) -> CorrelationGraph:
    """Directed leadership graph from (node_id, industry, registered_capital,
    turnover) rows: within an industry, edge i->j weighs how much j leads i
    by capital and turnover ratios; across industries there is no edge."""
    ids = [n[0] for n in nodes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node_id in industry metadata")
    industries = np.array([n[1] for n in nodes])
    cap = np.array([float(n[2]) for n in nodes])
    turn = np.array([float(n[3]) for n in nodes])
    if np.any(cap <= 0) or np.any(turn <= 0):
        raise ValueError("registered capital and turnover must be strictly positive")
    n = len(nodes)
    same = (industries[:, None] == industries[None, :]) & ~np.eye(n, dtype=bool)
    weights = np.where(same, cap[None, :] / cap[:, None] + turn[None, :] / turn[:, None], 0.0)
    return CorrelationGraph(n_nodes=n, weights=weights, directed=True, node_ids=list(ids))


def build_distance_graph(panel, k_neighbors: int) -> CorrelationGraph:
    """Symmetric graph over the union of each node's k nearest neighbors by
    Euclidean distance d between whole node series. A kept edge weighs
    exp(-(d / sigma)^2) with sigma the mean kept distance (the Gaussian
    kernel of DCRNN, Li et al., ICLR 2018): closer pairs weigh more, identical
    series weigh 1, and every kept edge stays nonzero."""
    feats = np.asarray(panel.features, dtype=np.float64)
    n = feats.shape[0]
    if n < 2:
        raise ValueError("distance graph needs at least 2 nodes")
    if not 0 < k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    flat = feats.reshape(n, -1)
    sq = np.sum(flat * flat, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    np.clip(d2, 0.0, None, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)  # never a node's own neighbour; ties go to the lower index
    keep = np.zeros((n, n), dtype=bool)
    np.put_along_axis(keep, np.argsort(dist, axis=1, kind="stable")[:, :k_neighbors], True, axis=1)
    keep |= keep.T  # union over both endpoints preserves symmetry
    sigma = dist[keep].mean()
    similarity = np.exp(-(dist / sigma) ** 2) if sigma > 0 else np.ones_like(dist)
    # the floor stops a far outlier's kernel value underflowing and deleting a kept edge
    weights = np.where(keep, np.maximum(similarity, np.finfo(np.float64).tiny), 0.0)
    return CorrelationGraph(n_nodes=n, weights=weights, directed=False,
                            node_ids=list(panel.node_ids))


def mask_edges(graph: CorrelationGraph, r_g: float, seed: int) -> MaskedGraph:
    """Hide floor(r_g * E) of the graph's E nonzero entries from the model
    input, drawn uniformly without replacement."""
    if not 0.0 <= r_g < 1.0:
        raise ValueError(f"r_g must be in [0, 1), got {r_g}")
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(graph.weights)
    chosen = rng.choice(len(rows), size=int(np.floor(r_g * len(rows))), replace=False)
    mask_kept = np.ones(graph.weights.shape, dtype=bool)
    mask_kept[rows[chosen], cols[chosen]] = False
    return MaskedGraph(base=graph, mask_kept=mask_kept)


# file format ----------------------------------------------------------------


def save_graph(path: str | Path, graph: CorrelationGraph) -> None:
    """Write `tcgpn-graph v1` text format: a header line then one
    `src_id,dst_id,weight` line per stored edge (undirected graphs store
    each edge once, with src index < dst index)."""
    lines = [f"tcgpn-graph v1 directed={int(graph.directed)} n={graph.n_nodes}"]
    rows, cols = np.nonzero(graph.weights)
    for i, j in zip(rows, cols):
        if not graph.directed and i > j:
            continue
        lines.append(f"{graph.node_ids[i]},{graph.node_ids[j]},{float(graph.weights[i, j])!r}")
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str | Path, node_ids: Sequence[str]) -> CorrelationGraph:
    """Read the text format, resolving and validating ids against the given
    node universe (typically the panel's)."""
    text = Path(path).read_text(encoding="utf-8").rstrip().splitlines()  # keep line numbers
    if not text:
        raise ValueError(f"{path}: empty graph file")
    header = re.fullmatch(r"tcgpn-graph v1 directed=([01]) n=(\d+)", text[0].strip())
    if header is None:
        raise ValueError(f"{path}:1: bad header {text[0]!r}, expected "
                         "'tcgpn-graph v1 directed=0|1 n=<int>'")
    directed, n = header.group(1) == "1", int(header.group(2))
    if n != len(node_ids):
        raise ValueError(f"{path}:1: header n={n} but panel has {len(node_ids)} nodes")
    index = {nid: k for k, nid in enumerate(node_ids)}
    weights = np.zeros((n, n))
    seen: dict[tuple[int, int], int] = {}  # edge -> line it was first given on
    for lineno, line in enumerate(text[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected src,dst,weight")
        src, dst, w = parts
        if src not in index or dst not in index:
            raise ValueError(f"{path}:{lineno}: unknown node id {src!r} or {dst!r}")
        if src == dst:
            raise ValueError(f"{path}:{lineno}: self-edge {src!r}")
        try:
            value = float(w)
        except ValueError:
            value = np.nan
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"{path}:{lineno}: bad weight {w!r}")
        i, j = index[src], index[dst]
        edge = (i, j) if directed else (min(i, j), max(i, j))
        if edge in seen:
            raise ValueError(f"{path}:{lineno}: repeated edge {src},{dst} "
                             f"(first given on line {seen[edge]})")
        seen[edge] = lineno
        weights[i, j] = value
        if not directed:
            weights[j, i] = value
    return CorrelationGraph(n_nodes=n, weights=weights, directed=directed, node_ids=list(node_ids))


_INDUSTRY_COLUMNS = ("symbol", "industry", "registered_capital", "turnover")


def load_industry_metadata(path: str | Path) -> list[tuple[str, str, float, float]]:
    """Read an industry metadata CSV with header columns symbol, industry,
    registered_capital and turnover (in any order) into build_industry_graph
    rows; both numbers must be finite and positive."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _INDUSTRY_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}:1: missing column {', '.join(missing)}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            if any(rec[c] is None for c in _INDUSTRY_COLUMNS):
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
            numbers = []
            for col in _INDUSTRY_COLUMNS[2:]:
                try:
                    value = float(rec[col])
                except ValueError:
                    value = np.nan
                if not 0 < value < np.inf:
                    raise ValueError(f"{where}: bad {col} {rec[col]!r}")
                numbers.append(value)
            rows.append((rec["symbol"], rec["industry"], *numbers))
    return rows
