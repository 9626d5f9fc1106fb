"""Maximum-weight bipartite matching and alignment-quality scores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError
from .graphs import Graph, RowCodes
from .tensors import MotifTensor

__all__ = [
    "Matching",
    "max_weight_matching",
    "motifs_aligned",
    "edges_aligned",
    "accuracy",
]


@dataclass(frozen=True)
class Matching:
    """Partial injection between two vertex sets with a total weight.

    ``pairs`` is a tuple of ``(i, j)`` with each ``i`` and each ``j``
    appearing at most once (the row/column constraints of a matching
    matrix); ``weight`` is the sum of score-matrix entries over the pairs.
    """

    n_rows: int
    n_cols: int
    pairs: tuple = field(default_factory=tuple)
    weight: float = 0.0

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("each vertex may be matched at most once")
        if pairs and (
            min(rows) < 0
            or max(rows) >= self.n_rows
            or min(cols) < 0
            or max(cols) >= self.n_cols
        ):
            raise ValueError("matched vertex id out of range")
        object.__setattr__(self, "pairs", pairs)

    def row_map(self) -> np.ndarray:
        """Array of length ``n_rows`` mapping each row to its column or -1."""
        out = np.full(self.n_rows, -1, dtype=np.int64)
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        out[pairs[:, 0]] = pairs[:, 1]
        return out

    def __len__(self):
        return len(self.pairs)


def max_weight_matching(X: np.ndarray) -> Matching:
    """Exact maximum-weight matching of a dense score matrix.

    Nonpositive entries are never forced into the matching (partial
    matchings are allowed); with all-positive scores the result has size
    ``min(m, n)``.  Ties between equal-weight optima are resolved by the
    solver's deterministic scan order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("score matrix must be 2-D")
    if not np.all(np.isfinite(X)):
        raise NumericalFailureError("score matrix contains non-finite entries")
    # imported here, not at the top: scipy.optimize takes ~0.65 s to load
    from scipy.optimize import linear_sum_assignment

    m, n = X.shape
    clipped = np.maximum(X, 0.0)
    rows, cols = linear_sum_assignment(clipped, maximize=True)
    keep = X[rows, cols] > 0
    pairs = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    weight = float(X[rows[keep], cols[keep]].sum())
    return Matching(m, n, pairs, weight)


def motifs_aligned(matching: Matching, tensor_a: MotifTensor, tensor_b: MotifTensor) -> int:
    """Count hyperedges of ``tensor_a`` mapped onto hyperedges of ``tensor_b``.

    A hyperedge counts when every vertex is matched and the sorted image is
    a stored hyperedge of ``tensor_b`` (an unordered count: symmetric
    orientation multiplicities are not included).  The images are looked up
    among B's hyperedges by exact sorted codes (:class:`RowCodes`).
    """
    if tensor_a.order != tensor_b.order:
        raise ValueError("tensors must have equal order")
    return _rows_aligned(matching, tensor_a.hyperedges, tensor_b.hyperedges, tensor_b.dim)


def edges_aligned(matching: Matching, graph_a: Graph, graph_b: Graph) -> int:
    """Count edges of ``graph_a`` mapped onto edges of ``graph_b``, the same
    way :func:`motifs_aligned` counts hyperedges."""
    return _rows_aligned(matching, graph_a.edges, graph_b.edges, graph_b.n)


def _rows_aligned(matching, rows_a, rows_b, dim_b) -> int:
    """How many rows of A have all vertices matched and a sorted image in B."""
    if rows_a.shape[0] == 0 or len(matching) == 0:
        return 0
    images = matching.row_map()[rows_a]
    images = np.sort(images[np.all(images >= 0, axis=1)], axis=1)
    return int(RowCodes(rows_b, max(dim_b, matching.n_cols)).contains(images.T).sum())


def accuracy(matching: Matching, truth: np.ndarray) -> float:
    """Fraction of reference vertices matched to their ground-truth image."""
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size == 0:
        return 0.0
    matched = dict(matching.pairs)
    hits = sum(1 for i, t in enumerate(truth.tolist()) if matched.get(i) == t)
    return hits / truth.size
