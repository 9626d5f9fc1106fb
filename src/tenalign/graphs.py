"""Undirected graphs, exact clique enumeration, and motif tensor construction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputFormatError
from .tensors import MotifTensor

__all__ = [
    "Graph",
    "load_edge_list",
    "save_edge_list",
    "enumerate_cliques",
    "clique_tensor",
    "nearest_rows",
]

MIN_MOTIF = 2
MAX_MOTIF = 9
KNN_CHUNK = 4_000_000  # bound on query rows times points per distance block


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 0-based vertex ids.

    ``edges`` has shape ``(E, 2)`` with each row sorted and rows unique and
    lexicographically ordered; self-loops and duplicates are rejected here
    (use :meth:`from_edges` to normalize raw input).
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoints out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be sorted pairs without self-loops")
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            if edges.shape[0] > 1 and np.any(np.all(edges[1:] == edges[:-1], axis=1)):
                raise ValueError("duplicate edges")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, n, raw_edges, warn_self_loops=True):
        """Normalize an edge iterable: sort endpoints, drop self-loops, dedupe."""
        cleaned = set()
        dropped = 0
        for u, v in raw_edges:
            u, v = int(u), int(v)
            if u == v:
                dropped += 1
                continue
            cleaned.add((min(u, v), max(u, v)))
        if dropped and warn_self_loops:
            warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=2)
        edges = np.array(sorted(cleaned), dtype=np.int64).reshape(-1, 2)
        return cls(n, edges)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> list:
        """Sorted neighbor array per vertex."""
        neigh = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return [np.asarray(sorted(a), dtype=np.int64) for a in neigh]

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(map(tuple, self.edges.tolist()))

    def degree(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


def parse_ints(tokens, where: str) -> list:
    """Integers from text tokens; anything else raises naming ``where``."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputFormatError(
            f"{where}: expected integers, got {' '.join(tokens)!r}"
        ) from None


def load_edge_list(path, n: int | None = None) -> Graph:
    """Read a whitespace-separated 1-based edge list.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment pins
    the vertex count (needed to round-trip graphs whose largest-id vertices
    are isolated).  Duplicate and reversed edges merge; self-loops drop with
    a warning.  Non-integer ids, ids below 1 and ids above the vertex count
    raise :class:`InputFormatError` naming the file and line.
    """
    raw = []
    max_id = max_line = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("vertices:"):
                    (n,) = parse_ints([body.split(":", 1)[1].strip()], where)
                    if n < 0:
                        raise InputFormatError(f"{where}: negative vertex count {n}")
                continue
            parts = line.split()
            if len(parts) < 2:
                raise InputFormatError(f"{where}: malformed edge line {line!r}")
            u, v = parse_ints(parts[:2], where)
            if u < 1 or v < 1:
                raise InputFormatError(f"{where}: vertex ids are 1-based, got {line!r}")
            raw.append((u - 1, v - 1))
            if max(u, v) > max_id:
                max_id, max_line = max(u, v), lineno
    if n is None:
        n = max_id
    elif max_id > n:
        raise InputFormatError(
            f"{path}:{max_line}: vertex id {max_id} exceeds the vertex count {n}"
        )
    return Graph.from_edges(n, raw)


def save_edge_list(graph: Graph, path) -> None:
    """Write a 1-based edge list with a vertex-count comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {graph.n}\n")
        for u, v in graph.edges:
            fh.write(f"{u + 1} {v + 1}\n")


def enumerate_cliques(graph: Graph, k: int) -> np.ndarray:
    """All k-vertex complete subgraphs, each once as a sorted tuple.

    Ordered extension: a clique is grown only by neighbors larger than its
    last vertex that are adjacent to every current member, so each k-subset
    is generated exactly once, in lexicographic order.
    """
    if k < MIN_MOTIF or k > MAX_MOTIF:
        raise ValueError(f"clique size must be in [{MIN_MOTIF}, {MAX_MOTIF}], got {k}")
    if k == 2:
        return graph.edges.copy()
    adj = graph.adjacency
    out: list[tuple] = []
    prefix = np.empty(k, dtype=np.int64)

    def extend(depth: int, cands: np.ndarray) -> None:
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


def clique_tensor(graph: Graph, k: int) -> MotifTensor:
    """Order-``k`` motif adjacency tensor with one unit hyperedge per clique.

    For ``k == 2`` this is the adjacency matrix viewed as a 2-mode tensor.
    The tensor may be empty (clique-free graph); alignment entry points warn
    on empty tensors since the iteration then carries no signal.
    """
    cliques = enumerate_cliques(graph, k)
    return MotifTensor(k, graph.n, cliques, np.ones(cliques.shape[0]))


def nearest_rows(points: np.ndarray, rows, ks) -> list:
    """Exact brute-force nearest neighbours of selected rows of ``points``.

    For each query ``rows[q]`` returns the indices of the ``ks[q]`` other
    rows closest in squared 2-norm, nearest first (``ks`` is one count or
    one per query).  Equal distances break toward the lower index, so the
    neighbour sets are deterministic even when distances tie.  Distances
    are computed in blocks of at most ``KNN_CHUNK`` query-point pairs to
    keep memory bounded.
    """
    points = np.asarray(points, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    ks = np.broadcast_to(np.asarray(ks, dtype=np.int64), rows.shape)
    n = points.shape[0]
    out = []
    chunk = max(1, KNN_CHUNK // max(n, 1))
    for lo in range(0, rows.size, chunk):
        block = rows[lo:lo + chunk]
        diff = points[block, None, :] - points[None, :, :]
        dists = np.einsum("ijk,ijk->ij", diff, diff)
        for d, row, k in zip(dists, block, ks[lo:lo + chunk]):
            d[row] = np.inf
            idx = np.argpartition(d, k - 1)[:k]
            out.append(idx[np.lexsort((idx, d[idx]))])
    return out
