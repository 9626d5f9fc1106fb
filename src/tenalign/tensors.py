"""Sparse symmetric cubical tensors stored as canonical hyperedges.

A ``MotifTensor`` of order ``k`` and dimension ``n`` stores one weight per
hyperedge, where a hyperedge is a strictly increasing ``k``-tuple of vertex
indices.  The represented tensor is fully symmetric: the entry at any
permutation of a stored tuple equals the stored weight, and every entry with
a repeated index is zero.  All contraction routines account for the ``k!``
implied symmetric orientations analytically.

Vertices are 0-based everywhere in memory; the text file format is 1-based
and conversion happens only in :func:`load_tensor` / :func:`save_tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InputFormatError,
    UnsupportedContractionError,
)

__all__ = [
    "MotifTensor",
    "ttv_same",
    "dense_ttv",
    "load_tensor",
    "save_tensor",
]

DENSE_BUDGET = 4_000_000  # max number of entries a densified tensor may have, read at call time


@dataclass(frozen=True)
class MotifTensor:
    """Sparse symmetric tensor over hyperedges with positive weights.

    ``hyperedges`` has shape ``(nnz, order)`` with strictly increasing rows,
    stored in lexicographic row order; ``weights`` has shape ``(nnz,)``.
    Instances are immutable after construction (arrays are marked read-only),
    so they can be shared freely between concurrent computations.
    """

    order: int
    dim: int
    hyperedges: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {self.dim}")
        edges = np.asarray(self.hyperedges, dtype=np.int64).reshape(-1, self.order)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != edges.shape[0]:
            raise DimensionMismatchError("one weight per hyperedge required")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.dim:
                raise ValueError("hyperedge indices out of range")
            if not np.all(edges[:, 1:] > edges[:, :-1]):
                raise ValueError("hyperedges must be strictly increasing tuples")
            if not np.all(weights > 0):
                raise ValueError("hyperedge weights must be positive")
            # canonical storage order: lexicographic over tuples
            perm = np.lexsort(edges.T[::-1])
            edges = edges[perm]
            weights = weights[perm]
            if edges.shape[0] > 1 and np.any(
                np.all(edges[1:] == edges[:-1], axis=1)
            ):
                raise ValueError("duplicate hyperedges")
        edges.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "hyperedges", edges)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_hyperedges(cls, order, dim, edges, weights=None):
        """Build a tensor from an iterable of index tuples (unit weights by default)."""
        edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, order)
        if weights is None:
            weights = np.ones(edges.shape[0])
        return cls(order, dim, edges, weights)

    @classmethod
    def empty(cls, order, dim):
        return cls(order, dim, np.empty((0, order), dtype=np.int64), np.empty(0))

    @property
    def nnz(self) -> int:
        return self.hyperedges.shape[0]

    @cached_property
    def incidence(self):
        """CSR-style map vertex -> ids of hyperedges containing it.

        Returns ``(indptr, edge_ids)`` with the hyperedge ids incident to
        vertex ``v`` at ``edge_ids[indptr[v]:indptr[v + 1]]``, ascending.
        """
        flat = self.hyperedges.ravel()
        ids = np.repeat(np.arange(self.nnz, dtype=np.int64), self.order)
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=self.dim)
        indptr = np.zeros(self.dim + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, ids[order]

    def to_dense(self) -> np.ndarray:
        """Materialize the full symmetric tensor as a dense array.

        More than :data:`DENSE_BUDGET` entries raise :class:`BudgetExceededError`.
        """
        size = self.dim**self.order
        if size > DENSE_BUDGET:
            raise BudgetExceededError(
                f"dense tensor would have {size} entries (budget {DENSE_BUDGET})"
            )
        dense = np.zeros((self.dim,) * self.order)
        if self.nnz:
            for perm in permutations(range(self.order)):
                cols = tuple(self.hyperedges[:, p] for p in perm)
                dense[cols] = self.weights
        return dense

    def __repr__(self):
        return (
            f"MotifTensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"
        )


def _check_vector(tensor: MotifTensor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tensor.dim,):
        raise DimensionMismatchError(
            f"vector of length {tensor.dim} required, got shape {x.shape}"
        )
    return x


def _exclusive_products(vals: np.ndarray) -> np.ndarray:
    """Per-row products of all columns except each one, without division.

    ``vals`` has shape ``(rows, k)``; entry ``(r, t)`` of the result is the
    product over columns of row ``r`` with column ``t`` left out.  Prefix and
    suffix cumulative products keep this safe for rows containing zeros.
    """
    rows, k = vals.shape
    prefix = np.ones_like(vals)
    suffix = np.ones_like(vals)
    np.cumprod(vals[:, :-1], axis=1, out=prefix[:, 1:])
    np.cumprod(vals[:, :0:-1], axis=1, out=suffix[:, -2::-1])
    return prefix * suffix


def ttv_same(tensor: MotifTensor, x: np.ndarray, p: int):
    """Contract ``p`` modes of the tensor with copies of the same vector.

    For ``p == order - 1`` the result is the length-``dim`` vector whose
    ``i``-th entry sums ``weight * (k-1)! * prod_{j in e, j != i} x[j]`` over
    stored hyperedges ``e`` containing ``i``; for ``p == order`` it is the
    scalar ``sum_e weight * k! * prod_{j in e} x[j]``.  Only these two values
    of ``p`` appear in any algorithm here and others are rejected.
    """
    k = tensor.order
    x = _check_vector(tensor, x)
    if p not in (k - 1, k):
        raise UnsupportedContractionError(
            f"p must be {k - 1} or {k} for an order-{k} tensor, got {p}"
        )
    edges, w = tensor.hyperedges, tensor.weights
    if tensor.nnz == 0:
        return 0.0 if p == k else np.zeros(tensor.dim)
    vals = x[edges]
    if p == k:
        return float(math.factorial(k) * np.dot(w, np.prod(vals, axis=1)))
    out = np.zeros(tensor.dim)
    contrib = (math.factorial(k - 1) * w)[:, None] * _exclusive_products(vals)
    np.add.at(out, edges.ravel(), contrib.ravel())
    return out


def dense_ttv(arr: np.ndarray, x: np.ndarray, p: int):
    """Contract the leading ``p`` modes of a dense tensor with vector ``x``.

    Reference implementation used as an oracle and for small dense tensors;
    for symmetric tensors the choice of contracted modes is irrelevant.
    """
    arr = np.asarray(arr, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if p < 1 or p > arr.ndim:
        raise UnsupportedContractionError(f"cannot contract {p} of {arr.ndim} modes")
    if any(s != x.shape[0] for s in arr.shape):
        raise DimensionMismatchError("vector length must match tensor dimension")
    out = arr
    for _ in range(p):
        out = np.tensordot(out, x, axes=([0], [0]))
    return float(out) if out.ndim == 0 else out


def load_tensor(path) -> MotifTensor:
    """Read the text tensor format: header ``k n nnz`` then hyperedge lines.

    Each following line holds ``k`` strictly increasing 1-based indices and a
    weight; violations raise :class:`InputFormatError` naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        k, n, nnz = (int(t) for t in tokens[:3])
        body = np.asarray(tokens[3:], dtype=np.float64)
    except ValueError:
        raise InputFormatError(
            f"{path}: expected a 'k n nnz' integer header and numeric lines"
        ) from None
    if k < 2 or n < 1 or nnz < 0:
        raise InputFormatError(f"{path}: bad header 'k={k} n={n} nnz={nnz}'")
    if body.size != nnz * (k + 1):
        raise InputFormatError(
            f"{path}: expected {nnz} lines of {k} indices plus a weight"
        )
    data = body.reshape(nnz, k + 1)
    edges = data[:, :k]
    if not np.all(edges == np.round(edges)):
        raise InputFormatError(f"{path}: vertex indices must be integers")
    edges = edges.astype(np.int64)
    if edges.size and (edges.min() < 1 or edges.max() > n):
        raise InputFormatError(f"{path}: vertex indices must lie in 1..{n}")
    try:
        return MotifTensor(k, n, edges - 1, data[:, k])
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def save_tensor(tensor: MotifTensor, path) -> None:
    """Write the text tensor format (1-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{tensor.order} {tensor.dim} {tensor.nnz}\n")
        for row, w in zip(tensor.hyperedges, tensor.weights):
            idx = " ".join(str(v + 1) for v in row)
            fh.write(f"{idx} {w:.17g}\n")
