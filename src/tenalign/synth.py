"""Synthetic alignment problems: geometric reference graphs plus noise.

A problem starts from one random geometric reference graph; two copies are
perturbed independently by a noise model, the second copy's vertex labels
are randomized, and the label permutation is kept as ground truth.  All
randomness flows from a single integer seed through spawned substreams, so
equal parameters reproduce problems bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, RowCodes, nearest_rows

__all__ = [
    "AlignmentProblem",
    "rgg",
    "er_noise",
    "duplication_noise",
    "permute",
    "make_problem",
]


@dataclass(frozen=True)
class AlignmentProblem:
    """Two graphs, the ground-truth map from reference ids to B ids, provenance."""

    graph_a: Graph
    graph_b: Graph
    truth: np.ndarray  # truth[i] = B-vertex matching reference vertex i
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        truth = np.asarray(self.truth, dtype=np.int64)
        if truth.size:
            if truth.min() < 0 or truth.max() >= self.graph_b.n:
                raise ValueError("truth images out of range")
            if np.unique(truth).size != truth.size:
                raise ValueError("truth must be injective")
        truth.setflags(write=False)
        object.__setattr__(self, "truth", truth)


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def rgg(n: int, seed=0) -> Graph:
    """Random geometric graph on ``n`` uniform points in the unit square.

    Each point links to its ``k_i`` nearest neighbors, with ``k_i`` a
    round-half-up lognormal draw (median 5, sigma 1) clamped to
    ``[1, n - 1]``; directed picks are symmetrized by union.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    points = rng.random((n, 2))
    if n == 1:
        return Graph(1, np.empty((0, 2), dtype=np.int64))
    ks = np.floor(rng.lognormal(mean=math.log(5.0), sigma=1.0, size=n) + 0.5)
    ks = np.clip(ks, 1, n - 1).astype(np.int64)
    near = nearest_rows(points, np.arange(n), ks)
    pairs = np.column_stack([np.repeat(np.arange(n), ks), np.concatenate(near)])
    return Graph(n, np.unique(np.sort(pairs, axis=1), axis=0))


def er_noise(graph: Graph, p: float, seed=0) -> Graph:
    """Delete each edge w.p. ``p``; add each non-edge w.p. ``q = p rho / (1 - rho)``.

    ``rho`` is the input edge density, which makes the expected edge count
    invariant.  On a complete graph ``q`` is undefined and treated as 0 with
    a warning.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = _rng(seed)
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
    edges = [graph.edges[keep]]
    if q > 0.0:
        # one coin per pair u < v in row order: pair (u, v) draws coin
        # starts[u] + v - u - 1
        hits = np.flatnonzero(rng.random(total_pairs) < q)
        starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
        u = np.searchsorted(starts, hits, side="right") - 1
        v = hits - starts[u] + u + 1
        added = ~RowCodes(graph.edges, n).contains((u, v))
        edges.append(np.column_stack((u[added], v[added])))
    return Graph(n, np.concatenate(edges))


def duplication_noise(graph: Graph, frac: float, p_edge: float, seed=0) -> Graph:
    """Incremental partial duplication: grow by ``ceil(frac * n)`` vertices.

    Each step copies a uniformly chosen existing vertex (duplicates made in
    earlier steps included), keeping each of its current edges independently
    with probability ``p_edge``.
    """
    if frac < 0:
        raise ValueError("frac must be nonnegative")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("p_edge must lie in [0, 1]")
    rng = _rng(seed)
    n = graph.n
    steps = math.ceil(frac * n)
    adjacency = {v: set(map(int, graph.adjacency[v])) for v in range(n)}
    for _ in range(steps):
        source = int(rng.integers(0, n))
        new_id = n
        kept = {u for u in sorted(adjacency[source]) if rng.random() < p_edge}
        adjacency[new_id] = kept
        for u in kept:
            adjacency[u].add(new_id)
        n += 1
    edges = [(u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v]
    return Graph(n, np.array(sorted(set(edges)), dtype=np.int64).reshape(-1, 2))


def permute(graph: Graph, seed=0):
    """Uniformly relabel all vertices; returns the graph and the permutation.

    ``perm[old] = new``.
    """
    rng = _rng(seed)
    perm = rng.permutation(graph.n)
    if graph.num_edges:
        relabeled = perm[graph.edges]
        relabeled = np.sort(relabeled, axis=1)
    else:
        relabeled = graph.edges
    return Graph(graph.n, relabeled), perm


def make_problem(n: int, model: str, params: dict | None = None, seed=0) -> AlignmentProblem:
    """One reference graph, two independent perturbations, permuted B side.

    ``model`` is ``"er"`` (param ``p``, default 0.05) or ``"duplication"``
    (params ``frac`` default 0.25 and ``p_edge`` default 0.5).  The truth
    maps each reference vertex to its relabeled image in graph B.
    """
    params = dict(params or {})
    if isinstance(seed, np.random.SeedSequence):
        seq, seed_label = seed, {"entropy": str(seed.entropy), "spawn_key": list(seed.spawn_key)}
    else:
        seq, seed_label = np.random.SeedSequence(seed), seed
    seeds = seq.spawn(4)
    reference = rgg(n, seeds[0])
    if model == "er":
        p = float(params.pop("p", 0.05))
        graph_a = er_noise(reference, p, seeds[1])
        graph_b0 = er_noise(reference, p, seeds[2])
        used = {"p": p}
    elif model == "duplication":
        frac = float(params.pop("frac", 0.25))
        p_edge = float(params.pop("p_edge", 0.5))
        graph_a = duplication_noise(reference, frac, p_edge, seeds[1])
        graph_b0 = duplication_noise(reference, frac, p_edge, seeds[2])
        used = {"frac": frac, "p_edge": p_edge}
    else:
        raise ValueError(f"unknown noise model {model!r}")
    if params:
        raise ValueError(f"unused parameters for model {model!r}: {sorted(params)}")
    graph_b, perm = permute(graph_b0, seeds[3])
    truth = perm[:n]
    provenance = {"model": model, "n": n, "seed": seed_label, "params": used}
    return AlignmentProblem(graph_a, graph_b, truth, provenance)
