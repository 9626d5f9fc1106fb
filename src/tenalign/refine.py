"""Embedding-aware greedy local search over match swaps.

The low-rank factors of an alignment iterate embed each vertex; rows of the
factor matrices that are close in 2-norm are natural alternative matches.
Sweeps visit matched pairs by descending iterate weight and greedily apply
the first swap whose (motifs aligned, edges aligned) score improves
lexicographically, exchanging partners when the candidate is already
matched.  Scores never regress and each accepted swap strictly improves the
lexicographic score, so termination is guaranteed.

The scoring is array-based.  Every A hyperedge and edge carries a flag
saying whether its image under the matching is a B row; the B rows are a
hash set of exact int64 codes of their sorted tuples.  All candidate swaps
of a pair, B side first and then A side, are scored in one vectorized pass
over the rows they touch, so the first improvement in candidate order is
the same one a candidate-by-candidate loop finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import FactorPair
from .errors import NumericalFailureError
from .graphs import Graph, RowCodes, nearest_rows
from .matching import Matching
from .tensors import MotifTensor

__all__ = ["RefineOptions", "RefineStats", "local_search"]


@dataclass(frozen=True)
class RefineOptions:
    """``k_neighbors="auto"`` resolves to twice the embedding rank."""

    k_neighbors: int | str = "auto"
    max_sweeps: int = 10

    def __post_init__(self):
        if self.k_neighbors != "auto" and int(self.k_neighbors) < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be nonnegative")

    def resolve_k(self, rank: int) -> int:
        if self.k_neighbors == "auto":
            return max(1, 2 * rank)
        return int(self.k_neighbors)


@dataclass
class RefineStats:
    """Work counters of one :func:`local_search` call.

    ``candidates_scored`` counts, per visited pair, the candidates up to and
    including the accepted one in candidate order (B side, then A side), so
    it does not depend on how the candidates are batched.
    """

    sweeps: int = 0
    candidates_scored: int = 0
    swaps_accepted: int = 0


_EMPTY = np.iinfo(np.int64).min  # below every code: marks a free hash slot
_MASK = (1 << 64) - 1


class _CodeSet:
    """Exact set of int64 codes with vectorized lookup (cuckoo hashing).

    Each code sits in one of two slots, picked by two multiplicative
    hashes, so a lookup is two gathers and two compares, with no search.
    ``find`` gives ``1 +`` the slot holding a code, or 0 when absent, so
    every result lies below ``bound``.
    """

    def __init__(self, codes: np.ndarray):
        rng = np.random.default_rng(0x7E4A)
        bits = max(2, int(codes.size).bit_length())
        codes = codes.tolist()
        while True:
            mults = [int(m) | 1 for m in rng.integers(1 << 62, 1 << 63, size=2)]
            table = self._place(codes, bits, mults)
            if table is not None:
                break
            bits += 1
        self.size = 1 << bits
        self.bound = 2 * self.size + 1
        self.shift = np.uint64(64 - bits)
        self.mults = [np.uint64(m) for m in mults]
        self.table = np.array(table, dtype=np.int64)

    @staticmethod
    def _place(codes, bits, mults):
        size, shift = 1 << bits, 64 - bits
        table = [int(_EMPTY)] * (2 * size)
        for code in codes:
            for kick in range(4 * bits):
                side = kick & 1
                slot = side * size + (((code & _MASK) * mults[side] & _MASK) >> shift)
                code, table[slot] = table[slot], code
                if code == _EMPTY:
                    break
            else:
                return None
        return table

    def _slots(self, code):
        key = code.view(np.uint64)
        return (key * self.mults[0]) >> self.shift, ((key * self.mults[1]) >> self.shift) + self.size

    def contains(self, code: np.ndarray) -> np.ndarray:
        first, second = self._slots(code)
        return (self.table[first] == code) | (self.table[second] == code)

    def find(self, code: np.ndarray) -> np.ndarray:
        first, second = self._slots(code)
        return np.where(
            self.table[first] == code,
            first + 1,
            np.where(self.table[second] == code, second + 1, 0),
        ).astype(np.int64)


class _Layer:
    """The A rows of one kind (hyperedges or edges) scored against B.

    ``match_a`` is the matching, shared with and updated by the owning
    state.  ``cols`` holds the ``k`` columns of A's rows as separate arrays,
    since 1-D gathers are several times faster than 2-D ones.  ``ok[e]`` is
    1.0 when A row ``e`` maps onto a B row under the matching, else 0.0.
    ``base`` exceeds B's ids by one, so an unmatched vertex (-1) makes a
    row code no B row has.
    """

    def __init__(self, tensor_a: MotifTensor, rows_b: np.ndarray, base: int, match_a):
        self.match_a = match_a
        self.cols = list(tensor_a.hyperedges.T.copy())
        indptr, self.ids = tensor_a.incidence
        # one trailing zero-length entry, so that vertex -1 has no rows
        self.start = np.append(indptr[:-1], 0)
        self.count = np.append(np.diff(indptr), 0)
        self.marked = np.zeros(tensor_a.nnz, dtype=bool)
        self.codes = RowCodes(rows_b, base, _CodeSet)
        self.network = [
            (a, a + 1) for top in range(tensor_a.order - 1, 0, -1) for a in range(top)
        ]
        self.ok = self.row_ok([match_a[col] for col in self.cols]).astype(np.float64)

    def row_ok(self, images: list) -> np.ndarray:
        """Whether each row of ``images`` (``k`` columns of B ids) is a B row."""
        for a, b in self.network:  # compare-exchange sort of each row
            images[a], images[b] = (
                np.minimum(images[a], images[b]), np.maximum(images[a], images[b])
            )
        return self.codes.contains(images)

    def incident(self, v: int) -> np.ndarray:
        return self.ids[self.start[v]:self.start[v] + self.count[v]]

    def deltas(self, i, ip, x, j) -> np.ndarray:
        """Change in matched rows of each candidate swap ``c``.

        Candidate ``c`` maps ``i`` to ``x[c]`` and, when ``j[c] >= 0``,
        ``j[c]`` to ``ip``.  Its affected rows are those of ``i`` plus those
        of ``j[c]`` that do not contain ``i``.
        """
        size = x.size
        own = self.incident(i)
        counts = self.count[j]
        ends = np.cumsum(counts)
        other = self.ids[
            np.arange(ends[-1]) + np.repeat(self.start[j] - ends + counts, counts)
        ]
        # a row holding both i and j[c] is already among the rows of i
        self.marked[own] = True
        keep = ~self.marked[other]
        self.marked[own] = False
        cand = np.concatenate(
            (np.repeat(np.arange(size), own.size), np.repeat(np.arange(size), counts)[keep])
        )
        rows = np.concatenate((np.tile(own, size), other[keep]))
        x, j = x[cand], j[cand]
        images = []
        for col in self.cols:
            verts = col[rows]
            image = np.where(verts == i, x, self.match_a[verts])
            images.append(np.where(verts == j, ip, image))
        diff = self.row_ok(images) - self.ok[rows]
        return np.bincount(cand, weights=diff, minlength=size)

    def refresh(self, movers) -> int:
        """Re-score the rows of ``movers`` after a swap; return the change."""
        rows = np.unique(np.concatenate([self.incident(v) for v in movers]))
        new = self.row_ok([self.match_a[col[rows]] for col in self.cols])
        gain = int(np.sum(new - self.ok[rows]))
        self.ok[rows] = new
        return gain


class _SwapState:
    """The matching as arrays, with the A hyperedges and edges it aligns."""

    def __init__(self, matching, graph_a, graph_b, tensor_a, tensor_b):
        pairs = np.array(matching.pairs, dtype=np.int64).reshape(-1, 2)
        self.match_a = np.full(graph_a.n, -1, dtype=np.int64)
        self.match_b = np.full(graph_b.n, -1, dtype=np.int64)
        self.match_a[pairs[:, 0]] = pairs[:, 1]
        self.match_b[pairs[:, 1]] = pairs[:, 0]
        # graph A's edges as an order-2 tensor, for the same incidence form
        edges_a = MotifTensor(2, graph_a.n, graph_a.edges, np.ones(graph_a.num_edges))
        self.layers = (
            _Layer(tensor_a, tensor_b.hyperedges, graph_b.n + 1, self.match_a),
            _Layer(edges_a, graph_b.edges, graph_b.n + 1, self.match_a),
        )
        self.motifs = int(self.layers[0].ok.sum())
        self.edges = int(self.layers[1].ok.sum())

    def score(self, i, ip, x, j) -> tuple:
        """(d_motifs, d_edges) per candidate swap; see :meth:`_Layer.deltas`."""
        return tuple(layer.deltas(i, ip, x, j) for layer in self.layers)

    def apply(self, i, ip, x, j) -> None:
        """Map ``i`` to ``x`` and ``j`` (if ``>= 0``) to ``ip``."""
        self.match_a[i] = x
        if x >= 0:
            self.match_b[x] = i
        if j >= 0:
            self.match_a[j] = ip
        self.match_b[ip] = j
        movers = (i, j) if j >= 0 else (i,)
        hyper, edge = self.layers
        self.motifs += hyper.refresh(movers)
        self.edges += edge.refresh(movers)


def local_search(
    matching: Matching,
    graph_a: Graph,
    graph_b: Graph,
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    factors: FactorPair,
    opts: RefineOptions = RefineOptions(),
    stats: RefineStats | None = None,
) -> Matching:
    """Greedy swap refinement; output never scores below the input.

    For each matched pair ``(i, i')`` the candidate replacements are the
    embedding K-nearest rows and graph neighbors on either side.  A swap is
    applied immediately when it strictly increases motifs aligned, or keeps
    motifs while strictly increasing edges aligned; when the candidate is
    already matched the two pairs exchange partners and the combined effect
    is scored.  Sweeps repeat until no change or ``max_sweeps``.  All
    candidates of a pair, B side first, are scored in one vectorized pass,
    and the first improving one in candidate order is applied.  ``stats``,
    when given, receives the work counters.
    """
    if stats is None:
        stats = RefineStats()
    if len(matching) == 0:
        return matching
    if factors.u.shape[0] != graph_a.n or factors.v.shape[0] != graph_b.n:
        raise ValueError("factor rows must match graph sizes")
    if tensor_a.dim != graph_a.n or tensor_b.dim != graph_b.n:
        raise ValueError("tensor dimensions must match graph sizes")
    if tensor_a.order != tensor_b.order:
        raise ValueError("tensors must have equal order")
    state = _SwapState(matching, graph_a, graph_b, tensor_a, tensor_b)
    start_score = (state.motifs, state.edges)
    k_a = min(opts.resolve_k(factors.rank), graph_a.n - 1)
    k_b = min(opts.resolve_k(factors.rank), graph_b.n - 1)
    knn_a = nearest_rows(factors.u, np.arange(graph_a.n), k_a) if k_a >= 1 else None
    knn_b = nearest_rows(factors.v, np.arange(graph_b.n), k_b) if k_b >= 1 else None
    cands_a = _candidate_lists(knn_a, graph_a.adjacency)
    cands_b = _candidate_lists(knn_b, graph_b.adjacency)
    ma = state.match_a

    for _ in range(opts.max_sweeps):
        stats.sweeps += 1
        rows = np.nonzero(ma >= 0)[0]
        weights = np.einsum("ij,ij->i", factors.u[rows], factors.v[ma[rows]])
        order = np.lexsort((rows, -weights))
        changed = False
        for i in rows[order].tolist():
            ip = int(ma[i])
            if ip < 0:
                continue
            if _improve_pair(state, stats, i, ip, cands_a[i], cands_b[ip]):
                changed = True
        if not changed:
            break

    if (state.motifs, state.edges) < start_score:
        raise NumericalFailureError(
            f"refinement lowered the (motifs, edges) score: "
            f"{start_score} -> {(state.motifs, state.edges)}"
        )
    pairs = [(i, int(ma[i])) for i in np.nonzero(ma >= 0)[0].tolist()]
    weight = float(
        sum(np.dot(factors.u[i], factors.v[j]) for i, j in pairs)
    )
    return Matching(graph_a.n, graph_b.n, pairs, weight)


def _candidate_lists(knn, adj) -> list:
    """Per vertex: its kNN rows, then its graph neighbors, each once, self excluded."""
    out = []
    for v, neigh in enumerate(adj):
        cands = neigh if knn is None else np.concatenate((knn[v], neigh))
        cands = cands[cands != v]
        _, first = np.unique(cands, return_index=True)
        out.append(cands[np.sort(first)])
    return out


def _improve_pair(state, stats, i, ip, cands_a, cands_b) -> bool:
    """Apply the first improving swap for matched pair (i, ip), B side first.

    A B-side candidate ``jp`` maps ``i`` to ``jp`` and the A vertex matched
    to ``jp``, if any, to ``ip``; an A-side candidate ``j`` exchanges the
    partners of ``i`` and ``j``.  Both sides are scored in one pass, the B
    candidates followed by the A candidates; nothing changes until a swap
    is applied, so the first improvement in that order is the one a pass
    per side finds.
    """
    x = np.concatenate((cands_b, state.match_a[cands_a]))
    j = np.concatenate((state.match_b[cands_b], cands_a))
    return _apply_first(state, stats, i, ip, x, j)


def _apply_first(state, stats, i, ip, x, j) -> bool:
    """Score the swaps ``i -> x[c], j[c] -> ip``; apply the first improving one."""
    if x.size == 0:
        return False
    dm, de = state.score(i, ip, x, j)
    better = np.flatnonzero((dm > 0) | ((dm == 0) & (de > 0)))
    if better.size == 0:
        stats.candidates_scored += x.size
        return False
    c = int(better[0])
    stats.candidates_scored += c + 1
    stats.swaps_accepted += 1
    state.apply(i, ip, int(x[c]), int(j[c]))
    return True
