from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import random_graph, random_motif
from tenalign.errors import NumericalFailureError
from tenalign.graphs import Graph, clique_tensor
from tenalign.matching import (
    Matching,
    accuracy,
    edges_aligned,
    max_weight_matching,
    motifs_aligned,
)
from tenalign.tensors import MotifTensor


def greedy_matching(X):
    """Greedy matching by descending entry; a lower bound (test oracle)."""
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    order = np.argsort(X, axis=None, kind="stable")[::-1]
    used_r = np.zeros(m, dtype=bool)
    used_c = np.zeros(n, dtype=bool)
    pairs = []
    weight = 0.0
    for flat in order:
        i, j = divmod(int(flat), n)
        if X[i, j] <= 0:
            break
        if not used_r[i] and not used_c[j]:
            used_r[i] = used_c[j] = True
            pairs.append((i, j))
            weight += float(X[i, j])
    return Matching(m, n, pairs, weight)


def set_count(matching, rows_a, rows_b):
    """The former aligned count through a Python set of B's rows (oracle)."""
    if rows_a.shape[0] == 0 or len(matching) == 0:
        return 0
    images = matching.row_map()[rows_a]
    images = np.sort(images[np.all(images >= 0, axis=1)], axis=1)
    b_keys = {tuple(row) for row in rows_b.tolist()}
    return sum(1 for row in images.tolist() if tuple(row) in b_keys)


def random_matching(n_a, n_b, size, rng):
    rows = rng.permutation(n_a)[:size]
    cols = rng.permutation(n_b)[:size]
    return Matching(n_a, n_b, list(zip(rows.tolist(), cols.tolist())))


def exhaustive_best_weight(X):
    """Maximum total weight over every partial matching (test oracle)."""
    m, n = X.shape
    best = 0.0
    rows = list(range(m))
    for size in range(0, min(m, n) + 1):
        for row_subset in combinations(rows, size):
            for col_subset in permutations(range(n), size):
                w = sum(X[i, j] for i, j in zip(row_subset, col_subset))
                best = max(best, w)
    return best


class TestMaxWeight:
    def test_identity(self):
        mt = max_weight_matching(np.eye(3))
        assert mt.pairs == ((0, 0), (1, 1), (2, 2))
        assert mt.weight == 3.0

    def test_antidiagonal(self):
        mt = max_weight_matching(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert mt.pairs == ((0, 1), (1, 0))
        assert mt.weight == 2.0

    def test_all_positive_is_full_size(self, rng):
        X = rng.random((4, 6)) + 0.1
        assert len(max_weight_matching(X)) == 4

    def test_negative_entries_never_forced(self):
        X = np.array([[5.0, -1.0], [-1.0, -2.0]])
        mt = max_weight_matching(X)
        assert mt.pairs == ((0, 0),)
        assert mt.weight == 5.0

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(60):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            # dyadic rationals keep float sums exact
            X = rng.integers(-40, 80, size=(m, n)).astype(np.float64) / 64.0
            mt = max_weight_matching(X)
            assert mt.weight == exhaustive_best_weight(X)

    def test_feasibility(self, rng):
        X = rng.standard_normal((8, 5))
        mt = max_weight_matching(X)
        rows = [i for i, _ in mt.pairs]
        cols = [j for _, j in mt.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    def test_beats_greedy(self, rng):
        for _ in range(20):
            X = rng.random((6, 6))
            assert max_weight_matching(X).weight >= greedy_matching(X).weight - 1e-12

    def test_beats_random_permutations(self, rng):
        X = rng.random((7, 7))
        best = max_weight_matching(X).weight
        for _ in range(50):
            perm = rng.permutation(7)
            assert best >= X[np.arange(7), perm].sum() - 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalFailureError):
            max_weight_matching(np.array([[np.nan]]))


class TestMatchingType:
    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError):
            Matching(3, 3, [(0, 0), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Matching(2, 2, [(0, 5)])

    def test_row_map(self):
        mt = Matching(3, 4, [(2, 1), (0, 3)])
        assert mt.row_map().tolist() == [3, -1, 1]


class TestScores:
    def test_identity_triangle(self, triangle):
        mt = Matching(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert motifs_aligned(mt, triangle, triangle) == 1

    def test_empty_matching(self, triangle):
        assert motifs_aligned(Matching(3, 3), triangle, triangle) == 0

    def test_k4_identity(self):
        from tenalign.graphs import clique_tensor

        g = Graph.from_edges(4, combinations(range(4), 2))
        t = clique_tensor(g, 3)
        mt = Matching(4, 4, [(i, i) for i in range(4)])
        assert motifs_aligned(mt, t, t) == 4

    def test_identity_counts_nnz(self, rng):
        t = random_motif(3, 6, rng)
        mt = Matching(6, 6, [(i, i) for i in range(6)])
        assert motifs_aligned(mt, t, t) == t.nnz

    def test_partial_matching_drops_incomplete(self, triangle):
        mt = Matching(3, 3, [(0, 0), (1, 1)])
        assert motifs_aligned(mt, triangle, triangle) == 0

    def test_edges_identity(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        mt = Matching(4, 4, [(i, i) for i in range(4)])
        assert edges_aligned(mt, g, g) == 3

    def test_edges_empty_matching(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert edges_aligned(Matching(3, 3), g, g) == 0

    def test_edges_swapped_pair_on_path(self):
        # path 0-1-2-3; swapping images of 0 and 1 keeps only edge (0,1)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        mt = Matching(4, 4, [(0, 1), (1, 0), (2, 2), (3, 3)])
        assert edges_aligned(mt, g, g) == 2  # (0,1)->(1,0) ok, (2,3) ok, (1,2)->(0,2) not


class TestSortedCodeCounts:
    """The sorted-code counts against the Python-set count they replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_matchings_on_graphs(self, seed):
        rng = np.random.default_rng(seed)
        ga, gb = random_graph(40, 0.4, rng), random_graph(45, 0.4, rng)
        ta, tb = clique_tensor(ga, 4), clique_tensor(gb, 4)
        for size in (0, 1, 20, 39, 40):
            mt = random_matching(40, 45, size, rng)
            assert motifs_aligned(mt, ta, tb) == set_count(mt, ta.hyperedges, tb.hyperedges)
            assert edges_aligned(mt, ga, gb) == set_count(mt, ga.edges, gb.edges)

    def test_order_nine_beyond_int64(self):
        # 140**9 > 2**63, so the 9-digit codes must go through prefix sets
        rng = np.random.default_rng(9)
        dim = 140
        assert dim ** 9 > np.iinfo(np.int64).max
        rows_a = np.unique(np.sort(rng.choice(dim, size=(400, 9)), axis=1), axis=0)
        rows_a = rows_a[np.all(np.diff(rows_a, axis=1) > 0, axis=1)]
        perm = rng.permutation(dim)
        rows_b = np.sort(perm[rows_a], axis=1)
        rows_b[::3, -1] = np.maximum(rows_b[::3, -1], dim - 1)  # ids at the top
        rows_b = np.unique(rows_b, axis=0)
        rows_b = rows_b[np.all(np.diff(rows_b, axis=1) > 0, axis=1)]
        ta = MotifTensor(9, dim, rows_a, np.ones(rows_a.shape[0]))
        tb = MotifTensor(9, dim, rows_b, np.ones(rows_b.shape[0]))
        counts = []
        for size in (dim, dim - 1, dim // 2):
            keep = np.sort(rng.permutation(dim)[:size])
            mt = Matching(dim, dim, list(zip(keep.tolist(), perm[keep].tolist())))
            counts.append(motifs_aligned(mt, ta, tb))
            assert counts[-1] == set_count(mt, ta.hyperedges, tb.hyperedges)
        assert 0 < counts[0] < ta.nnz  # some images are B rows, some are not

    def test_order_nine_codes_cannot_wrap(self):
        # at dim 164 these rows' base-164 codes differ by exactly 2**64, so a
        # fold that wrapped around in int64 would find ``low`` among B's rows
        dim = 164
        low = [0, 1, 22, 23, 24, 31, 32, 82, 123]
        high = [35, 42, 43, 93, 128, 129, 137, 138, 139]
        fold = lambda row: sum(v * dim ** (8 - c) for c, v in enumerate(row))  # noqa: E731
        assert fold(high) - fold(low) == 2**64
        ta = MotifTensor.from_hyperedges(9, dim, [low, high])
        tb = MotifTensor.from_hyperedges(9, dim, [high])
        identity = Matching(dim, dim, [(i, i) for i in range(dim)])
        assert motifs_aligned(identity, ta, tb) == 1
        assert motifs_aligned(identity, tb, ta) == 1


class TestAccuracy:
    def test_perfect(self):
        mt = Matching(3, 3, [(0, 2), (1, 0), (2, 1)])
        assert accuracy(mt, np.array([2, 0, 1])) == 1.0

    def test_empty(self):
        assert accuracy(Matching(3, 3), np.array([0, 1, 2])) == 0.0

    def test_half_correct(self):
        mt = Matching(4, 4, [(0, 0), (1, 1), (2, 3), (3, 2)])
        assert accuracy(mt, np.array([0, 1, 2, 3])) == 0.5

    def test_relabeling_invariance(self, rng):
        truth = rng.permutation(6)
        pairs = [(i, int(truth[i])) for i in range(4)]
        mt = Matching(6, 6, pairs)
        base = accuracy(mt, truth)
        relabel = rng.permutation(6)  # rename B-side vertices in both
        mt2 = Matching(6, 6, [(i, int(relabel[j])) for i, j in pairs])
        assert accuracy(mt2, relabel[truth]) == base

    def test_extra_vertices_not_counted(self):
        # matched duplicates beyond the reference set do not change accuracy
        mt = Matching(5, 5, [(0, 0), (1, 1), (4, 4)])
        assert accuracy(mt, np.array([0, 1])) == 1.0
