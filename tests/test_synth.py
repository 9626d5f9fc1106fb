import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from conftest import edge_set
from tenalign.matching import Matching, accuracy
from tenalign.synth import (
    AlignmentProblem,
    duplication_noise,
    er_noise,
    make_problem,
    permute,
    rgg,
)
from tenalign.graphs import Graph


class TestRgg:
    def test_single_vertex(self):
        g = rgg(1, seed=0)
        assert g.n == 1 and g.num_edges == 0

    def test_two_vertices_forced_edge(self):
        g = rgg(2, seed=0)
        assert g.edges.tolist() == [[0, 1]]

    def test_deterministic(self):
        a, b = rgg(60, seed=4), rgg(60, seed=4)
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(a.edges, rgg(60, seed=5).edges)

    def test_mean_degree_tracks_lognormal_target(self):
        # Monte-Carlo estimate of the clamped round-half-up lognormal mean
        rng = np.random.default_rng(123)
        draws = np.floor(rng.lognormal(math.log(5.0), 1.0, size=200_000) + 0.5)
        expected = float(np.clip(draws, 1, 999).mean())
        degrees = []
        for seed in range(8):
            g = rgg(1000, seed=seed)
            degrees.append(2.0 * g.num_edges / g.n)
        mean_degree = np.mean(degrees)
        # the symmetrized union of per-point picks has between sum(k)/2 and
        # sum(k) edges, so the mean degree lies in [E[k], 2 E[k]]; measured
        # reciprocal-pick overlap sits near 23%
        assert expected * 0.98 <= mean_degree <= 2 * expected * 1.02
        assert mean_degree >= 1.3 * expected  # well clear of full overlap


def er_noise_oracle(graph, p, seed=0):
    """The former ``er_noise``: one coin call per row, set lookups per pair."""
    rng = np.random.default_rng(seed)
    n = graph.n
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return graph
    rho = graph.num_edges / total_pairs
    if rho >= 1.0:
        warnings.warn("complete graph: no non-edges to add, using q = 0", stacklevel=2)
        q = 0.0
    else:
        q = p * rho / (1.0 - rho)
    keep = rng.random(graph.num_edges) >= p
    new_edges = {tuple(e) for e in graph.edges[keep].tolist()}
    existing = edge_set(graph)
    if q > 0.0:
        for u in range(n - 1):
            draws = rng.random(n - u - 1)
            for h in np.nonzero(draws < q)[0]:
                pair = (u, u + 1 + int(h))
                if pair not in existing:
                    new_edges.add(pair)
    return Graph(n, np.array(sorted(new_edges), dtype=np.int64).reshape(-1, 2))


def _run_recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


class TestErNoise:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
    def test_matches_row_loop(self, n):
        graphs = [rgg(n, seed=5), Graph(n, np.empty((0, 2), dtype=np.int64))]
        if n <= 100:
            graphs.append(Graph.from_edges(n, combinations(range(n), 2)))
        for g in graphs:
            for p in (0.0, 0.05, 0.5, 1.0):
                for seed in (0, 1, 2):
                    got, got_warned = _run_recording_warnings(er_noise, g, p, seed)
                    ref, ref_warned = _run_recording_warnings(er_noise_oracle, g, p, seed)
                    assert got.n == ref.n and got_warned == ref_warned
                    assert got.edges.dtype == ref.edges.dtype
                    assert got.edges.tobytes() == ref.edges.tobytes()

    def test_p_zero_is_identity(self, rng):
        g = rgg(40, seed=1)
        assert np.array_equal(er_noise(g, 0.0, seed=2).edges, g.edges)

    def test_p_one_removes_all_original_edges(self):
        g = rgg(40, seed=1)
        noisy = er_noise(g, 1.0, seed=2)
        assert not (edge_set(noisy) & edge_set(g))

    def test_deletions_within_binomial_band(self):
        g = rgg(300, seed=7)
        e = g.num_edges
        p = 0.05
        deleted = []
        for seed in range(100):
            noisy = er_noise(g, p, seed=seed)
            deleted.append(len(edge_set(g) - edge_set(noisy)))
        sigma = math.sqrt(e * p * (1 - p))
        assert abs(np.mean(deleted) - e * p) <= 3 * sigma / math.sqrt(100)

    def test_expected_edge_count_preserved(self):
        g = rgg(120, seed=3)
        counts = [er_noise(g, 0.1, seed=s).num_edges for s in range(200)]
        # additions balance deletions in expectation
        sigma = math.sqrt(g.num_edges * 0.1)  # upper bound on the std dev scale
        assert abs(np.mean(counts) - g.num_edges) <= 3 * sigma
        assert np.std(counts) > 0

    def test_complete_graph_warns(self):
        g = Graph.from_edges(4, combinations(range(4), 2))
        with pytest.warns(UserWarning, match="complete"):
            er_noise(g, 0.5, seed=0)

    def test_p_validated(self):
        with pytest.raises(ValueError):
            er_noise(rgg(5, seed=0), 1.5, seed=0)


class TestDuplication:
    def test_frac_zero_identity(self):
        g = rgg(30, seed=2)
        out = duplication_noise(g, 0.0, 0.5, seed=3)
        assert out.n == g.n and np.array_equal(out.edges, g.edges)

    def test_full_copy(self):
        g = rgg(20, seed=2)
        out = duplication_noise(g, 1 / 20, 1.0, seed=3)
        assert out.n == 21
        new_neighbors = set(out.adjacency[20].tolist())
        # the copy's neighborhood equals some existing vertex's neighborhood
        assert any(
            new_neighbors == set(g.adjacency[v].tolist()) for v in range(20)
        )

    def test_isolated_copy(self):
        g = rgg(20, seed=2)
        out = duplication_noise(g, 1 / 20, 0.0, seed=3)
        assert out.n == 21
        assert out.degree()[20] == 0

    def test_growth_count(self):
        g = rgg(40, seed=2)
        out = duplication_noise(g, 0.25, 0.5, seed=3)
        assert out.n == 50


class TestPermute:
    def test_degree_multiset_preserved(self):
        g = rgg(50, seed=6)
        relabeled, _ = permute(g, seed=7)
        assert sorted(relabeled.degree().tolist()) == sorted(g.degree().tolist())

    def test_inverse_recovers_graph(self):
        g = rgg(50, seed=6)
        relabeled, perm = permute(g, seed=7)
        inverse = np.argsort(perm)
        back = {tuple(sorted((inverse[u], inverse[v]))) for u, v in relabeled.edges}
        assert back == edge_set(g)

    def test_single_vertex_identity(self):
        g = Graph(1, np.empty((0, 2), dtype=int))
        relabeled, perm = permute(g, seed=0)
        assert perm.tolist() == [0]
        assert relabeled.n == 1


class TestMakeProblem:
    def test_truth_achieves_full_accuracy(self):
        problem = make_problem(50, "er", {"p": 0.05}, seed=0)
        mt = Matching(
            problem.graph_a.n,
            problem.graph_b.n,
            [(i, int(problem.truth[i])) for i in range(50)],
        )
        assert accuracy(mt, problem.truth) == 1.0

    def test_zero_noise_gives_isomorphic_pair(self):
        problem = make_problem(40, "er", {"p": 0.0}, seed=1)
        sigma = problem.truth
        mapped = {
            tuple(sorted((sigma[u], sigma[v]))) for u, v in problem.graph_a.edges
        }
        assert mapped == edge_set(problem.graph_b)

    def test_duplication_grows_both_sides(self):
        problem = make_problem(40, "duplication", {"frac": 0.25, "p_edge": 0.5}, seed=2)
        assert problem.graph_a.n == 50
        assert problem.graph_b.n == 50
        assert len(problem.truth) == 40

    def test_reproducible(self):
        a = make_problem(30, "duplication", None, seed=9)
        b = make_problem(30, "duplication", None, seed=9)
        assert np.array_equal(a.graph_a.edges, b.graph_a.edges)
        assert np.array_equal(a.graph_b.edges, b.graph_b.edges)
        assert np.array_equal(a.truth, b.truth)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown"):
            make_problem(10, "banana", None, seed=0)

    def test_unused_params_rejected(self):
        with pytest.raises(ValueError, match="unused"):
            make_problem(10, "er", {"p": 0.1, "frac": 0.5}, seed=0)

    def test_truth_must_be_injective(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="injective"):
            AlignmentProblem(g, g, np.array([0, 0]))
