from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_set, random_graph
from tenalign import graphs
from tenalign.graphs import (
    MAX_MOTIF,
    Graph,
    RowCodes,
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
    edges = edge_set(graph)
    for subset in combinations(range(graph.n), k):
        if all(pair in edges for pair in combinations(subset, 2)):
            out.append(subset)
    return out


def recursive_cliques(graph, k):
    """The former recursive ordered-extension enumerator (test oracle)."""
    if k == 2:
        return graph.edges.copy()
    adj = graph.adjacency
    out = []
    prefix = np.empty(k, dtype=np.int64)

    def extend(depth, cands):
        if depth == k - 1:
            for v in cands:
                prefix[depth] = v
                out.append(tuple(prefix))
            return
        for i, v in enumerate(cands):
            higher = cands[i + 1:]
            if higher.size + depth + 1 < k:
                break
            prefix[depth] = v
            nxt = higher[np.isin(higher, adj[v], assume_unique=True)]
            if nxt.size + depth + 1 >= k:
                extend(depth + 1, nxt)

    for u in range(graph.n):
        neigh = adj[u]
        higher = neigh[neigh > u]
        if higher.size >= k - 1:
            prefix[0] = u
            extend(1, higher)
    return np.asarray(out, dtype=np.int64).reshape(-1, k)


def assert_join_equals_recursion(graph):
    for k in range(3, MAX_MOTIF + 1):
        got = enumerate_cliques(graph, k)
        want = recursive_cliques(graph, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), (graph, k)


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
            if (u, v) not in edge_set(g)
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


class TestCliqueJoinOracle:
    """The level-wise join against the recursion it replaced, k = 3..MAX_MOTIF."""

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_edgeless(self, n):
        assert_join_equals_recursion(Graph(n, np.empty((0, 2), dtype=np.int64)))

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_complete(self, n):
        assert_join_equals_recursion(complete_graph(n))

    @pytest.mark.parametrize(
        "n,p,seed", [(12, 0.6, 1), (40, 0.5, 2), (60, 0.3, 3), (120, 0.1, 4), (200, 0.08, 5)]
    )
    def test_random(self, n, p, seed):
        assert_join_equals_recursion(random_graph(n, p, np.random.default_rng(seed)))

    @pytest.mark.filterwarnings("ignore:dropped .* self-loop")
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 16).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))),
            )
        )
    )
    def test_drawn_graph(self, drawn):
        n, raw = drawn
        assert_join_equals_recursion(Graph.from_edges(n, raw if n else []))


def set_member_oracle(table, rows):
    keys = set(map(tuple, np.asarray(table).tolist()))
    return np.array([tuple(r) in keys for r in np.asarray(rows).tolist()], dtype=bool)


class TestRowCodes:
    def test_matches_set_lookup(self, rng):
        table = np.unique(rng.integers(0, 7, size=(40, 3)), axis=0)
        rows = rng.integers(0, 7, size=(200, 3))
        got = RowCodes(table, 7).contains(rows.T)
        assert np.array_equal(got, set_member_oracle(table, rows))

    def test_empty_table(self):
        rows = np.array([[0, 1], [1, 2]])
        got = RowCodes(np.empty((0, 2), dtype=np.int64), 3).contains(rows.T)
        assert got.tolist() == [False, False]

    @pytest.mark.parametrize("limit", [1, 5_000, 2**20])
    def test_prefix_sets_keep_codes_exact(self, limit, rng, monkeypatch):
        # a low code limit makes some or all folds first look up the prefixes
        base = 60
        table = np.unique(np.sort(rng.integers(0, base, size=(300, 5)), axis=1), axis=0)
        rows = np.concatenate((table[::3], np.sort(rng.integers(0, base, size=(300, 5)), axis=1)))
        monkeypatch.setattr(graphs, "CODE_LIMIT", limit)
        got = RowCodes(table, base).contains(rows.T)
        assert np.array_equal(got, set_member_oracle(table, rows))
        assert got[: table[::3].shape[0]].all()


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
