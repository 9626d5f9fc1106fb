from itertools import combinations

import numpy as np
import pytest

from conftest import random_graph
from tenalign.graphs import (
    Graph,
    clique_tensor,
    enumerate_cliques,
    load_edge_list,
    save_edge_list,
)
from tenalign.tensors import ttv_same


def complete_graph(n):
    return Graph.from_edges(n, combinations(range(n), 2))


def brute_force_cliques(graph, k):
    out = []
    for subset in combinations(range(graph.n), k):
        if all(graph.has_edge(u, v) for u, v in combinations(subset, 2)):
            out.append(subset)
    return out


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(4, [(2, 0), (0, 2), (1, 3)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_self_loops_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = Graph.from_edges(3, [(0, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0, 2]]))

    def test_adjacency_and_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
        assert g.adjacency[0].tolist() == [1, 2]
        assert g.degree().tolist() == [2, 1, 2, 1]

    @pytest.mark.parametrize(
        "n,p,seed", [(0, 0.0, 0), (1, 0.0, 0), (7, 0.0, 1), (30, 0.2, 2), (200, 0.05, 3)]
    )
    def test_adjacency_and_degree_equal_former_loops(self, n, p, seed):
        g = random_graph(n, p, np.random.default_rng(seed))
        neigh = [[] for _ in range(n)]
        deg = np.zeros(n, dtype=np.int64)
        for u, v in g.edges:
            neigh[u].append(v)
            neigh[v].append(u)
            deg[u] += 1
            deg[v] += 1
        want = [np.asarray(sorted(a), dtype=np.int64) for a in neigh]
        assert len(g.adjacency) == n
        for got, ref in zip(g.adjacency, want):
            assert got.dtype == np.int64 and got.tolist() == ref.tolist()
        assert g.degree().dtype == np.int64
        assert g.degree().tolist() == deg.tolist()


class TestEnumeration:
    def test_single_triangle(self):
        g = complete_graph(3)
        assert enumerate_cliques(g, 3).tolist() == [[0, 1, 2]]

    def test_path_has_no_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert enumerate_cliques(g, 3).size == 0

    def test_k4_counts(self):
        g = complete_graph(4)
        assert enumerate_cliques(g, 3).shape[0] == 4
        assert enumerate_cliques(g, 4).shape[0] == 1

    def test_k2_returns_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert enumerate_cliques(g, 2).tolist() == g.edges.tolist()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_brute_force(self, k, rng):
        g = random_graph(10, 0.5, rng)
        got = [tuple(row) for row in enumerate_cliques(g, k).tolist()]
        assert got == brute_force_cliques(g, k)

    def test_monotone_under_edge_addition(self, rng):
        g = random_graph(12, 0.4, rng)
        non_edges = [
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if not g.has_edge(u, v)
        ]
        u, v = non_edges[0]
        bigger = Graph.from_edges(12, list(map(tuple, g.edges.tolist())) + [(u, v)])
        for k in (3, 4, 5):
            assert (
                enumerate_cliques(bigger, k).shape[0]
                >= enumerate_cliques(g, k).shape[0]
            )

    @pytest.mark.parametrize("k", [1, 10])
    def test_size_range(self, k):
        with pytest.raises(ValueError):
            enumerate_cliques(complete_graph(4), k)


class TestCliqueTensor:
    def test_k4_hyperedges(self):
        assert clique_tensor(complete_graph(4), 3).nnz == 4

    def test_bipartite_is_empty(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert clique_tensor(g, 3).nnz == 0

    def test_contraction_consistency(self):
        t = clique_tensor(complete_graph(3), 3)
        assert ttv_same(t, np.ones(3), 2).tolist() == [2.0, 2.0, 2.0]


class TestEdgeListIO:
    def test_round_trip_with_isolated_vertex(self, tmp_path, rng):
        g = Graph.from_edges(7, [(0, 1), (2, 4)])  # vertices 5, 6 isolated
        path = tmp_path / "g.el"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.n == 7
        assert np.array_equal(loaded.edges, g.edges)

    def test_merges_duplicates_and_reversals(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("1 2\n2 1\n1 2\n# comment\n3 1\n")
        g = load_edge_list(path)
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_drops_self_loops_with_warning(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("1 1\n1 2\n")
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_edge_list(path)
        assert g.edges.tolist() == [[0, 1]]

    def test_rejects_zero_based_ids(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_edge_list(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="malformed"):
            load_edge_list(path)
