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
KNN_CHUNK = 4_000_000  # bound on query rows times points times width per distance block
CODE_LIMIT = np.iinfo(np.int64).max  # bound on the codes of RowCodes; tests lower it


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
    def from_edges(cls, n, raw_edges):
        """Normalize an edge iterable: sort endpoints, drop self-loops with a
        warning, dedupe."""
        cleaned = set()
        dropped = 0
        for u, v in raw_edges:
            u, v = int(u), int(v)
            if u == v:
                dropped += 1
                continue
            cleaned.add((min(u, v), max(u, v)))
        if dropped:
            warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=2)
        edges = np.array(sorted(cleaned), dtype=np.int64).reshape(-1, 2)
        return cls(n, edges)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> list:
        """Sorted neighbor array per vertex."""
        u, v = self.edges.T
        ends, neigh = np.concatenate((u, v)), np.concatenate((v, u))
        neigh = neigh[np.lexsort((neigh, ends))]
        neigh.setflags(write=False)
        return np.split(neigh, np.cumsum(self.degree())[:-1]) if self.n else []

    def degree(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64, copy=False)

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


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated 1-based edge list.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment pins
    the vertex count (needed to round-trip graphs whose largest-id vertices
    are isolated).  Duplicate and reversed edges merge; self-loops drop with
    a warning.  Non-integer ids, ids below 1 and ids above the vertex count
    raise :class:`InputFormatError` naming the file and line.
    """
    raw = []
    n = None
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


class SortedCodes:
    """Exact set of sorted unique int64 ``keys``, looked up by ``searchsorted``.

    ``find`` gives ``1 +`` the position of each code, or 0 when absent, so
    every result lies below ``bound``.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.bound = keys.size + 1

    def find(self, codes: np.ndarray) -> np.ndarray:
        if self.keys.size == 0:
            return np.zeros(np.shape(codes), dtype=np.int64)
        pos = np.searchsorted(self.keys, codes)
        return np.where(self.keys[np.minimum(pos, self.keys.size - 1)] == codes, pos + 1, 0)

    def contains(self, codes: np.ndarray) -> np.ndarray:
        return self.find(codes) > 0


class RowCodes:
    """Exact membership of integer rows in a table of rows, by int64 codes.

    A row of ids in ``[0, base)`` is folded into one code as base-``base``
    digits, which is injective.  Where the next fold could pass
    ``CODE_LIMIT``, the prefix codes are first replaced by their ``find``
    result in the set of the table's distinct prefixes (0 when the table
    lacks one), which keeps the codes exact at any base and row width.  A
    query may also hold the id -1 when no table row holds ``base - 1``: it
    folds like that digit, into a code no table row has.  ``index`` builds
    the code sets from sorted unique codes; ``find`` numbers the table's
    distinct rows by their index in ``keys``.
    """

    def __init__(self, table: np.ndarray, base: int, index=SortedCodes):
        self.base = int(base)
        self.prefixes = []  # per later column: the prefix set to fold, or None
        cols = np.asarray(table, dtype=np.int64).T
        code, top = cols[0], self.base  # top bounds the codes so far
        for col in cols[1:]:
            prefix = None
            if top * self.base > CODE_LIMIT:
                prefix = index(_distinct(code))
                code, top = prefix.find(code), prefix.bound
            self.prefixes.append(prefix)
            code, top = code * self.base + col, top * self.base
        self.keys = index(_distinct(code))

    def contains(self, cols) -> np.ndarray:
        """Whether each query row, given as its ``k`` columns, is a table row."""
        return self.keys.contains(self._code(cols))

    def find(self, cols) -> np.ndarray:
        """Per query row, its number in ``keys`` (below ``keys.bound``), or 0
        when it is not a table row."""
        return self.keys.find(self._code(cols))

    def _code(self, cols) -> np.ndarray:
        code = np.asarray(cols[0], dtype=np.int64)
        for prefix, col in zip(self.prefixes, cols[1:]):
            if prefix is not None:
                code = prefix.find(code)
            code = code * self.base + col
        return code


def _distinct(code: np.ndarray) -> np.ndarray:
    """Sorted distinct values; ``np.unique`` costs many times more on short arrays."""
    code = np.sort(code)
    keep = np.ones(code.size, dtype=bool)
    keep[1:] = code[1:] != code[:-1]
    return code[keep]


def enumerate_cliques(graph: Graph, k: int) -> np.ndarray:
    """All k-vertex complete subgraphs, each once as a sorted tuple.

    A level-wise join: each j-clique, kept in lexicographic order, is grown
    by the neighbours above its last vertex, read in ascending order from the
    CSR of the ``u < v`` edges, and a grown row stays only when every earlier
    member is adjacent to the new vertex (one :class:`RowCodes` lookup per
    member).  Each k-subset is thus generated exactly once, and the result is
    in lexicographic order.
    """
    if k < MIN_MOTIF or k > MAX_MOTIF:
        raise ValueError(f"clique size must be in [{MIN_MOTIF}, {MAX_MOTIF}], got {k}")
    edges = graph.edges
    if k == 2:
        return edges.copy()
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=graph.n), out=indptr[1:])
    adjacent = RowCodes(edges, graph.n)
    cliques = edges
    for _ in range(k - 2):
        last = cliques[:, -1]
        counts = indptr[last + 1] - indptr[last]
        ends = np.cumsum(counts)
        rows = np.repeat(np.arange(cliques.shape[0]), counts)
        new = edges[np.arange(counts.sum()) + np.repeat(indptr[last] - ends + counts, counts), 1]
        for col in range(cliques.shape[1] - 1):
            keep = adjacent.contains((cliques[rows, col], new))
            rows, new = rows[keep], new[keep]
        cliques = np.column_stack((cliques[rows], new))
    return cliques.reshape(-1, k)


def clique_tensor(graph: Graph, k: int) -> MotifTensor:
    """Order-``k`` motif adjacency tensor with one unit hyperedge per clique.

    For ``k == 2`` this is the adjacency matrix viewed as a 2-mode tensor.
    The tensor may be empty (clique-free graph); alignment entry points warn
    on empty tensors since the iteration then carries no signal.
    """
    cliques = enumerate_cliques(graph, k)
    return MotifTensor(k, graph.n, cliques, np.ones(cliques.shape[0]))


def nearest_rows(points: np.ndarray, ks) -> list:
    """Exact brute-force nearest neighbours of every row of ``points``.

    For each row ``q`` returns the indices of the ``ks[q]`` other rows
    closest in squared 2-norm, nearest first (``ks`` is one count or one per
    row).  Equal distances break toward the lower index, so the neighbour
    sets are deterministic even when distances tie.  Distances are computed
    in blocks of at most ``KNN_CHUNK`` coordinate differences (query rows
    times points times width) to keep memory bounded.
    """
    points = np.asarray(points, dtype=np.float64)
    n, width = points.shape
    ks = np.broadcast_to(np.asarray(ks, dtype=np.int64), (n,))
    out = []
    chunk = max(1, KNN_CHUNK // max(n * width, 1))
    for lo in range(0, n, chunk):
        diff = points[lo:lo + chunk, None, :] - points[None, :, :]
        dists = np.einsum("ijk,ijk->ij", diff, diff)
        for row, (d, k) in enumerate(zip(dists, ks[lo:lo + chunk]), lo):
            d[row] = np.inf
            idx = np.argpartition(d, k - 1)[:k]
            out.append(idx[np.lexsort((idx, d[idx]))])
    return out
