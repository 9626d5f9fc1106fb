from itertools import combinations

import numpy as np
import pytest

from tenalign import refine
from tenalign.align import AlignOptions, FactorPair, lambda_tame
from tenalign.errors import NumericalFailureError
from tenalign.graphs import Graph, clique_tensor, nearest_rows
from tenalign.matching import Matching, edges_aligned, motifs_aligned
from tenalign.refine import RefineOptions, RefineStats, local_search
from tenalign.synth import make_problem


def knn(F, row, k):
    return nearest_rows(F, k)[row]


class TestKnn:
    def test_duplicate_rows_come_first(self, rng):
        F = rng.standard_normal((6, 3))
        F[4] = F[1]
        got = knn(F, 1, 3)
        assert got[0] == 4  # exact duplicate at distance zero

    def test_identity_rows_tie_breaks_low_index(self):
        F = np.eye(4)
        assert knn(F, 0, 1).tolist() == [1]

    def test_matches_brute_force(self, rng):
        F = rng.standard_normal((20, 3))
        for row in range(20):
            got = knn(F, row, 5)
            dist = np.linalg.norm(F - F[row], axis=1) ** 2
            dist[row] = np.inf
            ref = np.lexsort((np.arange(20), dist))[:5]
            assert got.tolist() == ref.tolist()


def k4_with_tail():
    """K4 on 0..3 plus a path 3-4-5; every vertex has a distinct role."""
    edges = list(combinations(range(4), 2)) + [(3, 4), (4, 5)]
    return Graph.from_edges(6, edges)


class TestLocalSearch:
    def test_empty_matching_unchanged(self, triangle):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        factors = FactorPair(np.ones((3, 1)), np.ones((3, 1)))
        mt = Matching(3, 3)
        assert local_search(mt, g, g, triangle, triangle, factors) is mt

    def test_optimal_matching_unchanged(self, triangle):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        factors = FactorPair(np.ones((3, 1)), np.ones((3, 1)))
        mt = Matching(3, 3, [(0, 0), (1, 1), (2, 2)], 3.0)
        stats = RefineStats()
        out = local_search(
            mt, g, g, triangle, triangle, factors, RefineOptions(k_neighbors=2), stats=stats
        )
        assert motifs_aligned(out, triangle, triangle) == 1
        assert set(out.pairs) == set(mt.pairs)
        assert (stats.sweeps, stats.swaps_per_sweep, stats.converged) == (1, [0], True)

    def test_repairs_swapped_labels(self):
        g = k4_with_tail()
        t = clique_tensor(g, 3)
        n = g.n
        # identity is optimal; corrupt it by swapping the images of 0 and 5
        pairs = [(i, i) for i in range(n)]
        pairs[0], pairs[5] = (0, 5), (5, 0)
        mt = Matching(n, n, pairs)
        before = (motifs_aligned(mt, t, t), edges_aligned(mt, g, g))
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((n, 2))
        factors = FactorPair(emb, emb.copy())
        out = local_search(
            mt, g, g, t, t, factors, RefineOptions(k_neighbors=5, max_sweeps=1)
        )
        after = (motifs_aligned(out, t, t), edges_aligned(out, g, g))
        assert after > before
        assert after == (t.nnz, g.num_edges)  # optimum restored in one sweep

    def test_monotone_on_random_problems(self):
        for seed in range(3):
            problem = make_problem(40, "duplication", {"frac": 0.2, "p_edge": 0.5}, seed=seed)
            ta = clique_tensor(problem.graph_a, 3)
            tb = clique_tensor(problem.graph_b, 3)
            if ta.nnz == 0 or tb.nnz == 0:
                continue
            out = lambda_tame(ta, tb, AlignOptions(alpha=0.5, beta=1.0, max_iter=8))
            mt = out.best_matching
            before = (
                motifs_aligned(mt, ta, tb),
                edges_aligned(mt, problem.graph_a, problem.graph_b),
            )
            refined = local_search(
                mt, problem.graph_a, problem.graph_b, ta, tb, out.best_factors,
                RefineOptions(max_sweeps=5),
            )
            after = (
                motifs_aligned(refined, ta, tb),
                edges_aligned(refined, problem.graph_a, problem.graph_b),
            )
            assert after >= before

    def test_output_is_valid_matching(self):
        problem = make_problem(30, "er", {"p": 0.1}, seed=9)
        ta = clique_tensor(problem.graph_a, 3)
        tb = clique_tensor(problem.graph_b, 3)
        out = lambda_tame(ta, tb, AlignOptions(alpha=0.5, beta=1.0, max_iter=6))
        refined = local_search(
            out.best_matching, problem.graph_a, problem.graph_b, ta, tb,
            out.best_factors,
        )
        rows = [i for i, _ in refined.pairs]
        cols = [j for _, j in refined.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    def test_factor_shape_validated(self, triangle):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        factors = FactorPair(np.ones((4, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            local_search(
                Matching(3, 3, [(0, 0)]), g, g, triangle, triangle, factors
            )


    def test_tensor_shapes_validated(self, triangle):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        factors = FactorPair(np.ones((3, 1)), np.ones((3, 1)))
        mt = Matching(3, 3, [(0, 0)])
        big = clique_tensor(k4_with_tail(), 3)
        with pytest.raises(ValueError, match="dimensions"):
            local_search(mt, g, g, triangle, big, factors)
        edges = clique_tensor(g, 2)
        with pytest.raises(ValueError, match="order"):
            local_search(mt, g, g, triangle, edges, factors)

    def test_monotonicity_guard_raises(self, monkeypatch):
        # swaps mis-scored as improvements take the optimal identity matching
        # to a worse one; the final check raises even under python -O
        g = k4_with_tail()
        t = clique_tensor(g, 3)
        mt = Matching(g.n, g.n, [(i, i) for i in range(g.n)])
        emb = np.random.default_rng(0).standard_normal((g.n, 2))
        factors = FactorPair(emb, emb.copy())
        monkeypatch.setattr(refine._SwapState, "first_gain", lambda self, i, ip, x, j: 0)
        with pytest.raises(NumericalFailureError, match=r"\(4, 8\) -> "):
            local_search(mt, g, g, t, t, factors, RefineOptions(max_sweeps=1))


class TestRefineStats:
    def refined_stats(self, max_sweeps):
        problem = make_problem(30, "er", {"p": 0.1}, seed=9)
        ta = clique_tensor(problem.graph_a, 3)
        tb = clique_tensor(problem.graph_b, 3)
        out = lambda_tame(ta, tb, AlignOptions(alpha=0.5, beta=1.0, max_iter=6))
        stats = RefineStats()
        local_search(
            out.best_matching, problem.graph_a, problem.graph_b, ta, tb,
            out.best_factors, RefineOptions(max_sweeps=max_sweeps), stats=stats,
        )
        return stats

    def test_per_sweep_swaps_add_up(self):
        stats = self.refined_stats(10)
        assert stats.swaps_accepted > 0
        assert len(stats.swaps_per_sweep) == stats.sweeps
        assert sum(stats.swaps_per_sweep) == stats.swaps_accepted
        assert stats.converged and stats.swaps_per_sweep[-1] == 0
        assert all(count > 0 for count in stats.swaps_per_sweep[:-1])

    def test_cut_at_max_sweeps_is_not_converged(self):
        stats = self.refined_stats(1)
        assert stats.sweeps == 1 and stats.swaps_per_sweep == [stats.swaps_accepted]
        assert stats.swaps_accepted > 0 and not stats.converged

    def test_no_sweep_is_not_converged(self):
        stats = self.refined_stats(0)
        assert (stats.sweeps, stats.swaps_per_sweep, stats.converged) == (0, [], False)


class TestRefineOptions:
    def test_auto_resolves_to_twice_rank(self):
        assert RefineOptions().resolve_k(7) == 14

    def test_explicit_k(self):
        assert RefineOptions(k_neighbors=3).resolve_k(50) == 3

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RefineOptions(k_neighbors=0).resolve_k(5)

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            RefineOptions(max_sweeps=-1)
        assert RefineOptions(max_sweeps=0).max_sweeps == 0
