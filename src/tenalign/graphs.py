"""Undirected graphs, exact clique enumeration, and motif tensor construction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputFormatError
from .tensors import MotifTensor, _group

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
        if not isinstance(raw_edges, np.ndarray):
            raw_edges = list(raw_edges)
        edges = np.sort(np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2), axis=1)
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            warnings.warn(f"dropped {loops.sum()} self-loop(s)", stacklevel=2)
        return cls(n, np.unique(edges[~loops], axis=0))

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> list:
        """Sorted neighbor array per vertex."""
        # edges are sorted u < v rows, so the stable grouping by end vertex
        # lists each vertex's lower neighbours, then its higher ones, ascending
        u, v = self.edges.T
        indptr, order = _group(np.concatenate((v, u)), self.n)
        neigh = np.concatenate((u, v))[order]
        neigh.setflags(write=False)
        return np.split(neigh, indptr[1:-1]) if self.n else []

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _read_pairs(path, headers: dict):
    """The 1-based id pairs and the named headers of a text file, in one pass.

    Blank lines are skipped.  A line starting with ``#`` is a comment unless
    it reads ``# key: value`` with ``key``, in any case, a key of ``headers``;
    ``headers[key]`` parses ``value``, and each key may appear once.  Other
    lines hold two integer ids of at least 1 and maybe further columns.
    Reading stops at the first line breaking these rules.  Returns the
    0-based ``(m, 2)`` ids of the pairs before it, a function giving each
    row's ``file:line``, per header its value, ``file:line`` and the count of
    rows before it, and the :class:`InputFormatError` naming the bad line (or
    None), which the caller raises after checking its own rules on the rows,
    so that its error names the first bad line of the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from None
    ids, lines, found, fault = [], [], {}, None
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        try:
            if line.startswith("#"):
                key, colon, value = line[1:].strip().partition(":")
                key = key.lower()
                if colon and key in headers:
                    if key in found:
                        raise ValueError(f"repeated '# {key}:' header")
                    found[key] = (headers[key](value), f"{path}:{lineno}", len(lines))
            elif line:
                u, v = map(int, line.split()[:2])
                if u < 1 or v < 1:
                    raise ValueError("ids are 1-based")
                ids += (u - 1, v - 1)
                lines.append(lineno)
        except ValueError as exc:
            fault = InputFormatError(f"{path}:{lineno}: malformed line {line!r}: {exc}")
            break
    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    return pairs, lambda row: f"{path}:{lines[row]}", found, fault


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated 1-based edge list (see :func:`_read_pairs`).

    A ``# vertices: N`` header pins the vertex count (needed to round-trip
    graphs whose largest-id vertices are isolated); an id above it raises
    :class:`InputFormatError` naming the line of the largest id.  Duplicate
    and reversed edges merge; self-loops drop with a warning.
    """
    pairs, where, headers, fault = _read_pairs(path, {"vertices": int})
    top = int(pairs.max(initial=-1)) + 1
    n, at, _ = headers.get("vertices", (top, None, 0))
    if n < 0:
        raise InputFormatError(f"{at}: negative vertex count {n}")
    if fault:
        raise fault
    if top > n:
        row = int(np.argmax(pairs.max(axis=1)))
        raise InputFormatError(f"{where(row)}: vertex id {top} exceeds the vertex count {n}")
    return Graph.from_edges(n, pairs)


def _write_pairs(path, headers: dict, pairs) -> None:
    """Write what :func:`_read_pairs` reads: a ``# key: value`` line per
    header, then the 0-based ``pairs`` as 1-based rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in headers.items())
        fh.writelines(f"{u + 1} {v + 1}\n" for u, v in pairs)


def save_edge_list(graph: Graph, path) -> None:
    """Write a 1-based edge list with a vertex-count header."""
    _write_pairs(path, {"vertices": graph.n}, graph.edges.tolist())


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


def _spans(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices ``start[t] .. start[t] + count[t] - 1``, for each ``t`` in turn."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(start - ends + count, count)


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
    indptr = _group(edges[:, 0], graph.n)[0]
    adjacent = RowCodes(edges, graph.n)
    cliques = edges
    for _ in range(k - 2):
        last = cliques[:, -1]
        counts = indptr[last + 1] - indptr[last]
        rows = np.repeat(np.arange(cliques.shape[0]), counts)
        new = edges[_spans(indptr[last], counts), 1]
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
