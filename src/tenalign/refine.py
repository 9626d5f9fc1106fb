"""Embedding-aware greedy local search over match swaps.

The low-rank factors of an alignment iterate embed each vertex; rows of the
factor matrices that are close in 2-norm are natural alternative matches.
Sweeps visit matched pairs by descending iterate weight and greedily apply
the first swap whose (motifs aligned, edges aligned) score improves
lexicographically, exchanging partners when the candidate is already
matched.  Scores never regress and each accepted swap strictly improves the
lexicographic score, so termination is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import FactorPair
from .errors import NumericalFailureError
from .graphs import Graph, nearest_rows
from .matching import Matching
from .tensors import MotifTensor

__all__ = ["RefineOptions", "knn_embedding_neighbors", "local_search"]


@dataclass(frozen=True)
class RefineOptions:
    """``k_neighbors="auto"`` resolves to twice the embedding rank."""

    k_neighbors: int | str = "auto"
    max_sweeps: int = 10

    def resolve_k(self, rank: int) -> int:
        if self.k_neighbors == "auto":
            return max(1, 2 * rank)
        k = int(self.k_neighbors)
        if k < 1:
            raise ValueError("k_neighbors must be >= 1")
        return k


def knn_embedding_neighbors(F: np.ndarray, row: int, k: int) -> np.ndarray:
    """Indices of the ``k`` rows of ``F`` closest to ``F[row]`` (self excluded).

    Exact brute-force distances; ties break toward the lower index.
    """
    n = np.shape(F)[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    return nearest_rows(F, [row], k)[0]


class _SwapState:
    """Incrementally scored matching over the A-side hyperedges and edges.

    Everything the inner candidate loop touches is a plain Python structure;
    per-element numpy indexing is far too slow at this call density.
    """

    def __init__(self, matching, graph_a, graph_b, tensor_a, tensor_b):
        self.m, self.n = graph_a.n, graph_b.n
        self.match_a = [-1] * self.m
        self.match_b = [-1] * self.n
        for i, j in matching.pairs:
            self.match_a[i] = j
            self.match_b[j] = i
        self.hyper_rows = [tuple(row) for row in tensor_a.hyperedges.tolist()]
        self.b_hyper = {tuple(row) for row in tensor_b.hyperedges.tolist()}
        indptr, ids = tensor_a.incidence
        self.h_inc = [
            ids[indptr[v]:indptr[v + 1]].tolist() for v in range(self.m)
        ]
        self.a_edge_rows = [tuple(row) for row in graph_a.edges.tolist()]
        self.b_edges = graph_b.edge_set
        self.e_inc = [[] for _ in range(self.m)]
        for eid, (u, v) in enumerate(self.a_edge_rows):
            self.e_inc[u].append(eid)
            self.e_inc[v].append(eid)
        self.h_ok = [self._hyper_ok(e, None) for e in range(len(self.hyper_rows))]
        self.e_ok = [self._edge_ok(e, None) for e in range(len(self.a_edge_rows))]
        self.motifs = sum(self.h_ok)
        self.edges = sum(self.e_ok)

    def _hyper_ok(self, eid: int, override) -> bool:
        ma = self.match_a
        img = []
        if override:
            for v in self.hyper_rows[eid]:
                t = override.get(v)
                if t is None:
                    t = ma[v]
                if t < 0:
                    return False
                img.append(t)
        else:
            for v in self.hyper_rows[eid]:
                t = ma[v]
                if t < 0:
                    return False
                img.append(t)
        img.sort()
        return tuple(img) in self.b_hyper

    def _edge_ok(self, eid: int, override) -> bool:
        u, v = self.a_edge_rows[eid]
        ma = self.match_a
        if override:
            iu = override.get(u)
            if iu is None:
                iu = ma[u]
            iv = override.get(v)
            if iv is None:
                iv = ma[v]
        else:
            iu, iv = ma[u], ma[v]
        if iu < 0 or iv < 0:
            return False
        key = (iu, iv) if iu < iv else (iv, iu)
        return key in self.b_edges

    def swap_delta(self, override) -> tuple:
        """(d_motifs, d_edges) of remapping the override's A-vertices."""
        verts = list(override)
        if len(verts) == 1:
            h_ids = self.h_inc[verts[0]]
            e_ids = self.e_inc[verts[0]]
        else:
            h_ids = set()
            e_ids = set()
            for v in verts:
                h_ids.update(self.h_inc[v])
                e_ids.update(self.e_inc[v])
        h_ok, e_ok = self.h_ok, self.e_ok
        dm = 0
        for e in h_ids:
            dm += self._hyper_ok(e, override) - h_ok[e]
        de = 0
        for e in e_ids:
            de += self._edge_ok(e, override) - e_ok[e]
        return dm, de

    def apply(self, override) -> None:
        affected_b = set()
        for v, target in override.items():
            old = self.match_a[v]
            if old >= 0:
                affected_b.add(old)
            self.match_a[v] = target
            if target >= 0:
                affected_b.add(target)
        for b in affected_b:
            self.match_b[b] = -1
        for v in override:
            t = self.match_a[v]
            if t >= 0:
                self.match_b[t] = v
        for v in override:
            for e in self.h_inc[v]:
                ok = self._hyper_ok(e, None)
                self.motifs += ok - self.h_ok[e]
                self.h_ok[e] = ok
            for e in self.e_inc[v]:
                ok = self._edge_ok(e, None)
                self.edges += ok - self.e_ok[e]
                self.e_ok[e] = ok


def local_search(
    matching: Matching,
    graph_a: Graph,
    graph_b: Graph,
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    factors: FactorPair,
    opts: RefineOptions = RefineOptions(),
) -> Matching:
    """Greedy swap refinement; output never scores below the input.

    For each matched pair ``(i, i')`` the candidate replacements are the
    embedding K-nearest rows and graph neighbors on either side.  A swap is
    applied immediately when it strictly increases motifs aligned, or keeps
    motifs while strictly increasing edges aligned; when the candidate is
    already matched the two pairs exchange partners and the combined effect
    is scored.  Sweeps repeat until no change or ``max_sweeps``.
    """
    if len(matching) == 0:
        return matching
    if factors.u.shape[0] != graph_a.n or factors.v.shape[0] != graph_b.n:
        raise ValueError("factor rows must match graph sizes")
    state = _SwapState(matching, graph_a, graph_b, tensor_a, tensor_b)
    start_score = (state.motifs, state.edges)
    k_a = min(opts.resolve_k(factors.rank), graph_a.n - 1)
    k_b = min(opts.resolve_k(factors.rank), graph_b.n - 1)
    knn_a = nearest_rows(factors.u, np.arange(graph_a.n), k_a) if k_a >= 1 else None
    knn_b = nearest_rows(factors.v, np.arange(graph_b.n), k_b) if k_b >= 1 else None
    adj_a, adj_b = graph_a.adjacency, graph_b.adjacency

    for _ in range(opts.max_sweeps):
        ma = np.asarray(state.match_a)
        rows = np.nonzero(ma >= 0)[0]
        weights = np.einsum("ij,ij->i", factors.u[rows], factors.v[ma[rows]])
        order = np.lexsort((rows, -weights))
        changed = False
        for i in rows[order]:
            i = int(i)
            ip = state.match_a[i]
            if ip < 0:
                continue
            if _improve_pair(state, i, ip, knn_a, knn_b, adj_a, adj_b):
                changed = True
        if not changed:
            break

    if (state.motifs, state.edges) < start_score:
        raise NumericalFailureError(
            f"refinement lowered the (motifs, edges) score: "
            f"{start_score} -> {(state.motifs, state.edges)}"
        )
    pairs = [
        (i, state.match_a[i]) for i in range(graph_a.n) if state.match_a[i] >= 0
    ]
    weight = float(
        sum(np.dot(factors.u[i], factors.v[j]) for i, j in pairs)
    )
    return Matching(graph_a.n, graph_b.n, pairs, weight)


def _improve_pair(state, i, ip, knn_a, knn_b, adj_a, adj_b) -> bool:
    """Try candidate swaps for matched pair (i, ip); apply the first improvement."""
    seen = set()
    candidates_b = []
    if knn_b is not None:
        candidates_b.extend(int(j) for j in knn_b[ip])
    candidates_b.extend(int(j) for j in adj_b[ip])
    for jp in candidates_b:
        if jp == ip or jp in seen:
            continue
        seen.add(jp)
        j = state.match_b[jp]
        override = {i: jp}
        if j >= 0:
            override[j] = ip
        dm, de = state.swap_delta(override)
        if dm > 0 or (dm == 0 and de > 0):
            state.apply(override)
            return True
    seen = set()
    candidates_a = []
    if knn_a is not None:
        candidates_a.extend(int(j) for j in knn_a[i])
    candidates_a.extend(int(j) for j in adj_a[i])
    for j in candidates_a:
        if j == i or j in seen:
            continue
        seen.add(j)
        jp = state.match_a[j]
        override = {j: ip, i: jp}
        dm, de = state.swap_delta(override)
        if dm > 0 or (dm == 0 and de > 0):
            state.apply(override)
            return True
    return False
