"""Shared fixtures and random-instance helpers."""

import os

# One BLAS thread for the tests that call library functions directly (cli.main
# pins one thread itself): on a busy host a second OpenBLAS thread spin-waits
# for a core and makes the QR and SVD calls of the low-rank tests several
# times slower.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from tenalign.graphs import Graph, clique_tensor
from tenalign.synth import make_problem
from tenalign.tensors import MotifTensor


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def triangle():
    """Single-triangle motif tensor on three vertices."""
    return MotifTensor(3, 3, [(0, 1, 2)], [1.0])


def random_motif(order, dim, rng, density=0.6, weighted=True):
    """Random sparse symmetric tensor with at least one hyperedge."""
    tuples = list(combinations(range(dim), order))
    if not tuples:
        raise ValueError(f"no {order}-subsets of {dim} vertices")
    pick = [t for t in tuples if rng.random() < density]
    if not pick:
        pick = [tuples[int(rng.integers(len(tuples)))]]
    weights = rng.random(len(pick)) + 0.5 if weighted else np.ones(len(pick))
    return MotifTensor(order, dim, pick, weights)


@lru_cache(maxsize=None)
def shared_face_pair(order, weighted):
    """The order-``order`` clique tensors of both graphs of a 40-vertex
    duplication problem, whose faces sit in several hyperedges each.  With
    ``weighted``, the weights alternate between 1 and 2 along the stored
    hyperedges, so that many face tuples carry two weights."""
    problem = make_problem(40, "duplication", {"frac": 0.25, "p_edge": 0.5}, seed=1)
    pair = []
    for graph in (problem.graph_a, problem.graph_b):
        t = clique_tensor(graph, order)
        if weighted:
            t = MotifTensor(order, t.dim, t.hyperedges, 1.0 + np.arange(t.nnz) % 2)
        pair.append(t)
    return tuple(pair)


def random_graph(n, p, rng):
    """Erdos-Renyi style random graph."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def edge_set(graph):
    """The edges of ``graph`` as a set of ``(u, v)`` tuples, ``u < v``."""
    return set(map(tuple, graph.edges.tolist()))


def dense_contract(dense, x, p):
    """Oracle contraction of the leading p modes via tensordot."""
    out = np.asarray(dense, dtype=np.float64)
    for _ in range(p):
        out = np.tensordot(out, x, axes=([0], [0]))
    return out
