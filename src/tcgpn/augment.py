"""Pretraining augmentations: node random sampling and contiguous-span
temporal masking. Graph masking lives in graphs.mask_edges; a
MaskedSample bundles all three for one training example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import WindowSample
from .graphs import CorrelationGraph, MaskedGraph, mask_edges


@dataclass
class MaskedPanel:
    """Window with one contiguous span of steps zeroed per node.

    mask_positions is True where a step was HIDDEN; values hold the original
    numbers elsewhere and exact zeros at hidden steps.
    """

    values: np.ndarray  # (N, T, F)
    mask_positions: np.ndarray  # (N, T) bool


@dataclass
class MaskedSample:
    """One pretraining example: masked panel + masked graph + the untouched
    values used as reconstruction supervision (the untouched weights are
    graph.base.weights)."""

    panel: MaskedPanel
    graph: MaskedGraph
    original_values: np.ndarray  # (N, T, F)


def sample_nodes(window: WindowSample, graph: CorrelationGraph, n_sub: int,
                 seed: int) -> tuple[WindowSample, CorrelationGraph]:
    """Restrict a sample to a uniform random node subset, in random order.
    Attention cost is quadratic in nodes, so training on subsets bounds
    memory while multiple draws still cover the full universe."""
    n = window.n_nodes
    if graph.n_nodes != n:
        raise ValueError("window and graph node counts differ")
    if not 1 < n_sub <= n:
        raise ValueError(f"n_sub must be in (1, {n}], got {n_sub}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=n_sub, replace=False)
    return _subset(window, graph, idx)


def _subset(window: WindowSample, graph: CorrelationGraph,
            idx: np.ndarray) -> tuple[WindowSample, CorrelationGraph]:
    idx = np.asarray(idx)
    return replace(window, panel=window.panel[idx], target=window.target[idx],
                   node_ids=[window.node_ids[i] for i in idx]), graph.subgraph(idx)


def mask_temporal(window: WindowSample, r_t: float, seed: int) -> MaskedPanel:
    """Hide floor(r_t * T) contiguous steps per node. Each node's start is
    drawn uniformly and independently, so neighbors still observe what a
    node is missing."""
    if not 0.0 <= r_t < 1.0:
        raise ValueError(f"r_t must be in [0, 1), got {r_t}")
    n, t = window.panel.shape[:2]
    span = int(np.floor(r_t * t))
    starts = np.random.default_rng(seed).integers(0, t - span + 1, size=(n, 1))
    mask = (starts <= np.arange(t)) & (np.arange(t) < starts + span)
    values = window.panel.copy()
    values[mask] = 0.0
    return MaskedPanel(values=values, mask_positions=mask)


def make_masked_sample(window: WindowSample, graph: CorrelationGraph, r_t: float,
                       r_g: float, seed: int, n_sub: int = 0) -> MaskedSample:
    """Compose node sampling, temporal masking and graph masking with
    deterministic per-stage seeds derived from `seed`. A sample keeps n_sub
    random nodes when 0 < n_sub < N; n_sub 0, or N or more, keeps every node
    in order."""
    ss = np.random.SeedSequence(seed).spawn(3)
    seeds = [int(s.generate_state(1)[0]) for s in ss]
    if n_sub and n_sub < window.n_nodes:
        window, graph = sample_nodes(window, graph, n_sub, seeds[0])
    return MaskedSample(
        panel=mask_temporal(window, r_t, seeds[1]),
        graph=mask_edges(graph, r_g, seeds[2]),
        original_values=window.panel,
    )
