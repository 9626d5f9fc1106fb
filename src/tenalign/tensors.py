"""Sparse symmetric cubical tensors stored as canonical hyperedges.

A ``MotifTensor`` of order ``k`` and dimension ``n`` stores one weight per
hyperedge, where a hyperedge is a strictly increasing ``k``-tuple of vertex
indices.  The represented tensor is fully symmetric: the entry at any
permutation of a stored tuple equals the stored weight, and every entry with
a repeated index is zero.  All contraction routines account for the ``k!``
implied symmetric orientations analytically.  Vertices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError

__all__ = ["MotifTensor", "ttv_same"]

DENSE_BUDGET = 4_000_000  # max number of entries a densified tensor may have, read at call time


@dataclass(frozen=True)
class MotifTensor:
    """Sparse symmetric tensor over hyperedges with positive weights.

    ``hyperedges`` has shape ``(nnz, order)`` with strictly increasing rows,
    stored in lexicographic row order; ``weights`` has shape ``(nnz,)``.  The
    constructor takes any array-likes for both, such as a list of index
    tuples and one weight each, or two empty lists for the zero tensor.
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


def ttv_same(tensor: MotifTensor, x: np.ndarray) -> np.ndarray:
    """Contract ``order - 1`` modes of the tensor with copies of one vector.

    The result is the length-``dim`` vector whose ``i``-th entry sums
    ``weight * (k-1)! * prod_{j in e, j != i} x[j]`` over stored hyperedges
    ``e`` containing ``i``.
    """
    k = tensor.order
    x = _check_vector(tensor, x)
    edges, w = tensor.hyperedges, tensor.weights
    out = np.zeros(tensor.dim)
    contrib = (math.factorial(k - 1) * w)[:, None] * _exclusive_products(x[edges])
    np.add.at(out, edges.ravel(), contrib.ravel())
    return out
