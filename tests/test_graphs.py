"""Graph construction, edge masking, and the file format."""

import re

import numpy as np
import pytest

from tcgpn import graphs
from tcgpn.data import SyntheticSpec, gen_synthetic
from tcgpn.graphs import (CorrelationGraph, MaskedGraph, build_distance_graph,
                          build_industry_graph, load_graph, mask_edges, save_graph)


class FakePanel:
    def __init__(self, features, node_ids=None):
        self.features = np.asarray(features, dtype=float)
        self.node_ids = node_ids or [f"S{i}" for i in range(self.features.shape[0])]


# industry graph ---------------------------------------------------------------


def test_industry_equal_metrics_give_weight_two_both_ways():
    g = build_industry_graph([("a", "tech", 5.0, 9.0), ("b", "tech", 5.0, 9.0)])
    assert g.weights[0, 1] == pytest.approx(2.0)
    assert g.weights[1, 0] == pytest.approx(2.0)
    assert g.directed


def test_industry_cross_industry_weight_is_exactly_zero():
    g = build_industry_graph([("a", "tech", 1.0, 1.0), ("b", "bank", 1.0, 1.0)])
    assert g.weights[0, 1] == 0.0 and g.weights[1, 0] == 0.0


def test_industry_ratio_weights():
    g = build_industry_graph([("a", "tech", 2.0, 4.0), ("b", "tech", 1.0, 2.0)])
    assert g.weights[0, 1] == pytest.approx(1.0)  # 1/2 + 2/4
    assert g.weights[1, 0] == pytest.approx(4.0)  # 2/1 + 4/2


def test_industry_rejects_non_positive_and_duplicates():
    with pytest.raises(ValueError):
        build_industry_graph([("a", "t", 0.0, 1.0), ("b", "t", 1.0, 1.0)])
    with pytest.raises(ValueError):
        build_industry_graph([("a", "t", 1.0, -1.0), ("b", "t", 1.0, 1.0)])
    with pytest.raises(ValueError):
        build_industry_graph([("a", "t", 1.0, 1.0), ("a", "t", 1.0, 1.0)])


def test_industry_zero_block_structure_random():
    rng = np.random.default_rng(0)
    industries = ["x", "x", "y", "y", "y", "z"]
    rows = [(f"n{i}", industries[i], rng.uniform(1, 9), rng.uniform(1, 9))
            for i in range(6)]
    g = build_industry_graph(rows)
    for i in range(6):
        for j in range(6):
            if industries[i] != industries[j]:
                assert g.weights[i, j] == 0.0
            elif i != j:
                assert g.weights[i, j] > 0.0


# distance graph ----------------------------------------------------------------


def test_distance_identical_series_weight_one():
    panel = FakePanel(np.stack([np.ones((4, 1)), np.ones((4, 1)), np.zeros((4, 1))]))
    g = build_distance_graph(panel, k_neighbors=1)
    # kept distances 0, 0, 2, 2 give sigma 1
    assert g.weights[0, 1] == g.weights[1, 0] == 1.0  # zero distance keeps the edge at weight 1
    assert g.weights[0, 2] == pytest.approx(np.exp(-4.0))


def test_distance_euclidean_value():
    # series A = (0, 0), B = (3, 4), C = (3, 0): |AC| = 3, |BC| = 4, |AB| = 5
    panel = FakePanel(np.array([[[0.0], [0.0]], [[3.0], [4.0]], [[3.0], [0.0]]]))
    g = build_distance_graph(panel, k_neighbors=1)
    sigma = 3.5  # mean of the kept distances 3, 3, 4, 4
    assert g.weights[0, 2] == g.weights[2, 0] == pytest.approx(np.exp(-(3.0 / sigma) ** 2))
    assert g.weights[1, 2] == g.weights[2, 1] == pytest.approx(np.exp(-(4.0 / sigma) ** 2))
    assert g.weights[0, 1] == 0.0  # not among either endpoint's nearest neighbour


def test_distance_knn_union_against_bruteforce():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(5, 6, 2))
    panel = FakePanel(feats)
    g = build_distance_graph(panel, k_neighbors=2)

    # brute-force oracle on the same 5x5 distance matrix
    flat = feats.reshape(5, -1)
    dist = np.sqrt(((flat[:, None] - flat[None]) ** 2).sum(-1))
    keep = np.zeros((5, 5), bool)
    for i in range(5):
        order = [j for j in np.argsort(dist[i]) if j != i][:2]
        keep[i, order] = True
    keep |= keep.T
    sigma = dist[keep].mean()
    expected = np.where(keep, np.exp(-(dist / sigma) ** 2), 0.0)
    assert np.allclose(g.weights, expected)
    assert np.all((g.weights[keep] > 0) & (g.weights[keep] <= 1))

    nz_per_row = (g.weights != 0).sum(axis=1)
    assert np.all(nz_per_row >= 2) and np.all(nz_per_row <= 4)
    assert np.array_equal(g.weights, g.weights.T)


def test_distance_knn_ties_keep_the_lower_index():
    # integer series make many exactly equal distances; each row keeps its k
    # nearest by (distance, index), never itself
    rng = np.random.default_rng(8)
    for n, k in [(6, 1), (9, 3), (12, 5), (20, 19)]:
        feats = rng.integers(0, 2, size=(n, 3, 2)).astype(float)
        g = build_distance_graph(FakePanel(feats), k_neighbors=k)
        flat = feats.reshape(n, -1)
        d2 = ((flat[:, None] - flat[None]) ** 2).sum(-1)
        keep = np.zeros((n, n), bool)
        for i in range(n):
            keep[i, [j for _, j in sorted((d2[i, j], j) for j in range(n) if j != i)[:k]]] = True
        assert np.array_equal(g.weights != 0, keep | keep.T)


def test_distance_symmetry_and_zero_diag_property():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        panel = FakePanel(rng.normal(size=(7, 5, 3)))
        g = build_distance_graph(panel, k_neighbors=3)
        assert np.array_equal(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0)


def test_distance_rejects_tiny_or_bad_k():
    panel = FakePanel(np.zeros((1, 3, 1)))
    with pytest.raises(ValueError):
        build_distance_graph(panel, 1)
    panel = FakePanel(np.zeros((3, 3, 1)))
    with pytest.raises(ValueError):
        build_distance_graph(panel, 3)


# masking ------------------------------------------------------------------------


def _toy_graph():
    w = np.array([
        [0.0, 2.0, 2.0, 0.0],
        [1.0, 0.0, 0.0, 3.0],
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
    ])
    return CorrelationGraph(4, w, directed=True, node_ids=list("abcd"))


def test_mask_rate_zero_keeps_every_edge():
    g = CorrelationGraph(3, np.array([[0.0, 2.0, 2.0], [0, 0, 0], [1.0, 0, 0]]),
                         directed=True, node_ids=list("abc"))
    m = mask_edges(g, 0.0, seed=0)
    assert m.mask_kept.all()
    assert np.array_equal(m.connectivity(), g.weights != 0)
    assert np.array_equal(g.weights[0], [0.0, 2.0, 2.0])  # base untouched


def test_mask_exact_count():
    rng = np.random.default_rng(0)
    w = np.zeros((10, 10))
    off_diag = [(i, j) for i in range(10) for j in range(10) if i != j]
    pick = rng.choice(len(off_diag), size=40, replace=False)
    for p in pick:
        w[off_diag[p]] = rng.uniform(0.5, 2.0)
    g = CorrelationGraph(10, w, directed=True, node_ids=[f"n{i}" for i in range(10)])
    assert g.nnz() == 40
    m = mask_edges(g, 0.3, seed=1)
    assert (~m.mask_kept).sum() == 12  # floor(0.3 * 40)


def test_mask_connectivity_is_kept_edges_only():
    g = _toy_graph()
    for seed in range(8):
        m = mask_edges(g, 0.4, seed=seed)
        conn = m.connectivity()
        assert not conn[~m.mask_kept].any()
        assert not conn[g.weights == 0].any()
        assert conn[m.mask_kept & (g.weights != 0)].all()
        assert m.mask_kept[g.weights == 0].all()  # only edges are hidden


def test_mask_permutation_commutes_with_replayed_edge_set():
    g = _toy_graph()
    rng = np.random.default_rng(3)
    perm = rng.permutation(4)
    direct = mask_edges(g, 0.5, seed=4)

    permuted_graph = CorrelationGraph(4, g.weights[np.ix_(perm, perm)], directed=True,
                                      node_ids=[g.node_ids[i] for i in perm])
    via_perm = MaskedGraph(permuted_graph, direct.mask_kept[np.ix_(perm, perm)])
    assert np.array_equal(via_perm.connectivity(), direct.connectivity()[np.ix_(perm, perm)])


def test_mask_rejects_bad_rate():
    with pytest.raises(ValueError):
        mask_edges(_toy_graph(), 1.0, seed=0)


# file format ---------------------------------------------------------------------


def test_graph_file_round_trip_directed(tmp_path):
    g = _toy_graph()
    path = tmp_path / "g.txt"
    save_graph(path, g)
    text = path.read_text().splitlines()
    assert text[0] == "tcgpn-graph v1 directed=1 n=4"
    loaded = load_graph(path, g.node_ids)
    assert np.allclose(loaded.weights, g.weights)
    assert loaded.directed


def test_graph_file_round_trip_undirected_synthetic(tmp_path):
    panel, truth = gen_synthetic(SyntheticSpec(n_clusters=2, nodes_per_cluster=3,
                                               length=40, seed=1))
    path = tmp_path / "g.txt"
    save_graph(path, truth)
    loaded = load_graph(path, truth.node_ids)
    assert np.array_equal(loaded.weights, truth.weights)
    # undirected file stores each edge once
    n_lines = len(path.read_text().splitlines()) - 1
    assert n_lines == truth.nnz() // 2


def test_graph_loader_validates_ids_and_header(tmp_path):
    g = _toy_graph()
    path = tmp_path / "g.txt"
    save_graph(path, g)
    with pytest.raises(ValueError, match="n="):
        load_graph(path, ["a", "b"])
    bad = tmp_path / "bad.txt"
    bad.write_text("tcgpn-graph v2 directed=1 n=4\n")
    with pytest.raises(ValueError, match="header"):
        load_graph(bad, g.node_ids)
    unknown = tmp_path / "unk.txt"
    unknown.write_text("tcgpn-graph v1 directed=1 n=4\nzz,b,1.0\n")
    with pytest.raises(ValueError, match="unknown node"):
        load_graph(unknown, g.node_ids)
    for header in ("tcgpn-graph v1 directed=yes n=4", "tcgpn-graph v1 directed=1 n=two",
                   "\ntcgpn-graph v1 directed=1 n=4"):
        bad.write_text(header + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:1: bad header"):
            load_graph(bad, g.node_ids)
    bad.write_text("tcgpn-graph v1 directed=1 n=4\na,b,1.0\na,b,x\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:3: bad weight 'x'$"):
        load_graph(bad, g.node_ids)


def test_graph_loader_rejects_self_and_repeated_edges(tmp_path):
    ids = list("abcd")
    path = tmp_path / "g.txt"
    where = re.escape(str(path))
    for directed in ("0", "1"):
        path.write_text(f"tcgpn-graph v1 directed={directed} n=4\na,b,1.0\nc,c,1.0\n")
        with pytest.raises(ValueError, match=f"^{where}:3: self-edge 'c'$"):
            load_graph(path, ids)
        path.write_text(f"tcgpn-graph v1 directed={directed} n=4\na,b,1.0\nc,d,1.0\na,b,2.0\n")
        with pytest.raises(ValueError, match=f"^{where}:4: repeated edge a,b \\(first given on line 2\\)$"):
            load_graph(path, ids)
    # undirected: b,a names the edge a,b again
    path.write_text("tcgpn-graph v1 directed=0 n=4\na,b,1.0\nb,a,2.0\n")
    with pytest.raises(ValueError, match=f"^{where}:3: repeated edge b,a \\(first given on line 2\\)$"):
        load_graph(path, ids)
    # directed: b,a is a different edge from a,b
    path.write_text("tcgpn-graph v1 directed=1 n=4\na,b,1.0\nb,a,2.0\n")
    loaded = load_graph(path, ids)
    assert loaded.weights[0, 1] == 1.0 and loaded.weights[1, 0] == 2.0


def test_industry_metadata_round_trip(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("turnover,symbol,industry,registered_capital\n2.0,a,x,1.0\n4,b,x,2e0\n")
    rows = graphs.load_industry_metadata(meta)
    assert rows == [("a", "x", 1.0, 2.0), ("b", "x", 2.0, 4.0)]


def test_industry_metadata_missing_column_names_file_and_line(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("symbol,industry,registered_capital\na,x,1.0\n")
    with pytest.raises(ValueError, match=r"meta\.csv:1: missing column turnover$"):
        graphs.load_industry_metadata(meta)
    meta.write_text("symbol,industry,registered_capital,turnover\na,x,1.0,2.0\nb,x,3.0\n")
    with pytest.raises(ValueError, match=r"meta\.csv:3: expected 4 fields$"):
        graphs.load_industry_metadata(meta)


def test_industry_metadata_bad_number_names_file_and_line(tmp_path):
    meta = tmp_path / "meta.csv"
    for bad in ("abc", "nan", "-1", "0"):
        meta.write_text(f"symbol,industry,registered_capital,turnover\na,x,1.0,2.0\nb,x,3.0,{bad}\n")
        with pytest.raises(ValueError, match=rf"meta\.csv:3: bad turnover '{bad}'$"):
            graphs.load_industry_metadata(meta)


def test_industry_metadata_repeated_symbol_names_both_lines(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("symbol,industry,registered_capital,turnover\na,x,1.0,2.0\nb,x,3.0,4.0\na,y,5.0,6.0\n")
    with pytest.raises(ValueError, match=r"meta\.csv:4: symbol a repeated \(first on line 2\)$"):
        graphs.load_industry_metadata(meta)
