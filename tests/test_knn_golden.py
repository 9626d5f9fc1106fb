"""Golden tests: the shared kNN helper against the loops it replaced.

``synth.rgg`` and the refinement kNN table each had their own chunked
brute-force neighbour loop.  Both now call ``graphs.nearest_rows``; the old
loops are kept here verbatim as oracles, because seeded problems (and so the
benchmark inputs) depend on ``rgg`` edges bit for bit.
"""

import math

import numpy as np
import pytest

from tenalign import graphs
from tenalign.graphs import Graph, nearest_rows
from tenalign.synth import rgg


def rgg_oracle(n, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    if n == 1:
        return Graph(1, np.empty((0, 2), dtype=np.int64))
    ks = np.floor(rng.lognormal(mean=math.log(5.0), sigma=1.0, size=n) + 0.5)
    ks = np.clip(ks, 1, n - 1).astype(np.int64)
    edges = set()
    chunk = max(1, 8_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = points[lo:hi, None, :] - points[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        for row in range(lo, hi):
            d = dist[row - lo].copy()
            d[row] = np.inf
            kk = int(ks[row])
            idx = np.argpartition(d, kk - 1)[:kk]
            idx = idx[np.lexsort((idx, d[idx]))]
            for j in idx:
                edges.add((min(row, int(j)), max(row, int(j))))
    return Graph(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))


def _pairwise_sq(F, rows):
    diff = F[rows, None, :] - F[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def knn_table_oracle(F, k):
    n = F.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dists = _pairwise_sq(F, np.arange(lo, hi))
        for r in range(lo, hi):
            d = dists[r - lo]
            d[r] = np.inf
            idx = np.argpartition(d, k - 1)[:k]
            out[r] = idx[np.lexsort((idx, d[idx]))]
    return out


def tied_factors(n, r, rng):
    """Integer-valued rows with many duplicates, so distances tie often."""
    F = rng.integers(0, 3, size=(n, r)).astype(np.float64)
    F[n // 2:] = F[: n - n // 2]
    return F


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200, 1000])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_rgg_edges_bit_identical(n, seed):
    assert np.array_equal(rgg(n, seed).edges, rgg_oracle(n, seed).edges)


def test_rgg_spawned_seeds_bit_identical():
    for child in np.random.SeedSequence(2024).spawn(4):
        assert np.array_equal(rgg(300, child).edges, rgg_oracle(300, child).edges)


@pytest.mark.parametrize("n,r,k", [(2, 1, 1), (9, 2, 4), (40, 3, 8), (120, 5, 10)])
def test_knn_table_bit_identical(n, r, k, rng):
    # local search builds its neighbour table as nearest_rows over all rows
    for F in (rng.standard_normal((n, r)), tied_factors(n, r, rng)):
        table = np.array(nearest_rows(F, k))
        assert np.array_equal(table, knn_table_oracle(F.copy(), k))


def test_chunking_does_not_change_neighbours(monkeypatch, rng):
    # the chunk bounds rows times points times width: blocks of 7 rows here,
    # where a bound on rows times points alone would give 7 * width rows,
    # one block at width 16
    for width in (3, 16):
        F = tied_factors(50, width, rng)
        ks = rng.integers(1, 49, size=50)
        whole = nearest_rows(F, ks)
        monkeypatch.setattr(graphs, "KNN_CHUNK", 7 * 50 * width)
        blocked = nearest_rows(F, ks)
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))
