"""Node sampling and temporal masking."""

import hashlib

import numpy as np
import pytest

from tcgpn import augment
from tcgpn.augment import _subset, make_masked_sample, mask_temporal, sample_nodes
from tcgpn.data import SyntheticSpec, gen_synthetic, window_samples


def make_inputs(n_clusters=2, nodes=3, d=50, seed=0):
    panel, graph = gen_synthetic(SyntheticSpec(n_clusters=n_clusters, nodes_per_cluster=nodes,
                                               length=d, seed=seed))
    windows = window_samples(panel, 20, 10)
    return windows[0], graph


def test_sample_all_nodes_is_permutation():
    window, graph = make_inputs()
    sub_w, sub_g = sample_nodes(window, graph, n_sub=window.n_nodes, seed=4)
    assert sorted(sub_w.node_ids) == sorted(window.node_ids)
    order = [window.node_ids.index(nid) for nid in sub_w.node_ids]
    assert np.array_equal(sub_w.panel, window.panel[order])
    assert np.array_equal(sub_w.target, window.target[order])


def test_subsample_adjacency_is_submatrix():
    window, graph = make_inputs()
    sub_w, sub_g = sample_nodes(window, graph, n_sub=4, seed=1)
    idx = [window.node_ids.index(nid) for nid in sub_w.node_ids]
    assert np.array_equal(sub_g.weights, graph.weights[np.ix_(idx, idx)])


def test_sample_rejects_bad_counts():
    window, graph = make_inputs()
    with pytest.raises(ValueError):
        sample_nodes(window, graph, n_sub=window.n_nodes + 1, seed=0)
    with pytest.raises(ValueError):
        sample_nodes(window, graph, n_sub=1, seed=0)


def test_attention_cost_shrinks_quadratically():
    # 500 -> 50 nodes cuts the pairwise-logit tensor by exactly 100x
    full, sub = 500, 50
    assert (full * full) // (sub * sub) == 100


def test_sampling_equivariant_under_relabeling():
    window, graph = make_inputs(seed=3)
    rng = np.random.default_rng(0)
    idx = rng.choice(window.n_nodes, size=4, replace=False)

    direct_w, direct_g = _subset(window, graph, idx)

    perm = rng.permutation(window.n_nodes)
    relabeled_w, relabeled_g = _subset(window, graph, perm)
    inv = {p: i for i, p in enumerate(perm)}
    idx_in_relabeled = np.array([inv[i] for i in idx])
    via_w, via_g = _subset(relabeled_w, relabeled_g, idx_in_relabeled)

    assert via_w.node_ids == direct_w.node_ids
    assert np.array_equal(via_w.panel, direct_w.panel)
    assert np.array_equal(via_g.weights, direct_g.weights)


def test_mask_zero_rate_is_identity():
    window, _ = make_inputs()
    mp = mask_temporal(window, 0.0, seed=9)
    assert not mp.mask_positions.any()
    assert np.array_equal(mp.values, window.panel)


def test_mask_span_length_thirty_percent_of_thirty_is_nine():
    panel, graph = gen_synthetic(SyntheticSpec(length=80, seed=0))
    window = window_samples(panel, 30, 1)[0]
    mp = mask_temporal(window, 0.3, seed=2)
    per_node = mp.mask_positions.sum(axis=1)
    assert np.all(per_node == 9)


def test_mask_span_contiguous_and_zeroed():
    window, _ = make_inputs(d=60)
    mp = mask_temporal(window, 0.4, seed=7)
    span = int(0.4 * window.panel.shape[1])
    for i in range(window.n_nodes):
        s = int(np.argmax(mp.mask_positions[i]))  # first hidden step
        assert mp.mask_positions[i, s:s + span].all()
        assert mp.mask_positions[i].sum() == span
        assert np.all(mp.values[i, s:s + span] == 0.0)
        untouched = ~mp.mask_positions[i]
        assert np.array_equal(mp.values[i][untouched], window.panel[i][untouched])


def test_mask_valid_start_range_boundaries():
    window, _ = make_inputs(d=40)
    window = augment.WindowSample(panel=window.panel[:, :10], target=window.target,
                                  end_date=window.end_date, end_index=window.end_index,
                                  node_ids=window.node_ids)
    starts = set()
    for seed in range(300):
        mp = mask_temporal(window, 0.5, seed=seed)
        starts.update(np.argmax(mp.mask_positions, axis=1).tolist())
    assert starts == set(range(0, 6))  # T=10, span 5: starts 0..5 inclusive


def test_thousand_draws_nearly_all_unique():
    window, graph = make_inputs(d=60)
    seen = set()
    for seed in range(1000):
        ms = make_masked_sample(window, graph, r_t=0.3, r_g=0.3, seed=seed)
        key = hashlib.sha256(
            ms.panel.mask_positions.tobytes() + ms.graph.mask_kept.tobytes()).hexdigest()
        seen.add(key)
    assert len(seen) >= 999


def test_masked_sample_consistent_node_sets():
    window, graph = make_inputs()
    ms = make_masked_sample(window, graph, r_t=0.2, r_g=0.2, seed=11, n_sub=4)
    assert len(ms.graph.base.node_ids) == 4
    assert ms.panel.values.shape[0] == 4
    assert ms.graph.mask_kept.shape == (4, 4)
    rows = [window.node_ids.index(nid) for nid in ms.graph.base.node_ids]
    assert np.array_equal(ms.original_values, window.panel[rows])
    assert np.array_equal(ms.graph.base.weights, graph.weights[np.ix_(rows, rows)])
