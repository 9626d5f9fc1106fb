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
    Instances are immutable after construction (arrays, the cached ones too,
    are marked read-only), so they can be shared freely between concurrent
    computations.
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
        _read_only(edges, weights)
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
        indptr, order = _group(self.hyperedges.ravel(), self.dim)
        return _read_only(indptr, order // self.order)

    @cached_property
    def faces(self):
        """The distinct faces of the hyperedges, and the face of every slot.

        The face of slot ``a`` of hyperedge ``e`` is the sorted
        ``(order - 1)``-tuple left when ``hyperedges[e, a]`` is removed,
        together with the weight of ``e``.  Returns ``(vertices, weights,
        ids)``: row ``f`` of ``vertices`` and entry ``f`` of ``weights`` are
        face ``f``, the faces being distinct and in lexicographic order of
        (tuple, weight), and ``ids[a, e]`` is the face of slot ``a`` of
        hyperedge ``e``.
        """
        k, nnz = self.order, self.nnz
        subs = np.concatenate([np.delete(self.hyperedges, a, axis=1) for a in range(k)])
        weights = np.tile(self.weights, k)
        # lexsort's last key is the primary one
        order = np.lexsort((weights, *subs.T[::-1]))
        subs, weights = subs[order], weights[order]
        new = np.ones(k * nnz, dtype=bool)
        new[1:] = np.any(subs[1:] != subs[:-1], axis=1) | (weights[1:] != weights[:-1])
        ids = np.empty(k * nnz, dtype=np.int64)
        ids[order] = np.cumsum(new) - 1
        return _read_only(subs[new], weights[new], ids.reshape(k, nnz))

    @cached_property
    def scatter(self):
        """CSR ``(dim, faces)`` 0/1 matrix: row ``v`` has one entry per slot
        that holds ``v``, in the column of that slot's face (see ``faces``).

        A row's entries are in ascending order of ``a * nnz + e`` for slot
        ``a`` of hyperedge ``e``, not of their columns, so a product with a
        dense operand adds slot by slot and, within a slot, hyperedge by
        hyperedge.  No row has two entries in one column: a slot's vertex
        and face together give back its hyperedge.  The arrays are
        read-only, so nothing can sort the entries by column.
        """
        # imported here, not at the top: scipy.sparse takes ~0.25 s to load
        from scipy.sparse import csr_matrix

        slots = self.hyperedges.T.reshape(-1)
        indptr, order = _group(slots, self.dim)
        _, weights, ids = self.faces
        S = csr_matrix(
            (np.ones(slots.size), ids.reshape(-1)[order], indptr),
            shape=(self.dim, weights.size),
        )
        _read_only(S.data, S.indices, S.indptr)
        return S

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


def _read_only(*arrays):
    """Mark ``arrays`` read-only and return them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _group(keys: np.ndarray, size: int):
    """Stable counting sort of ``keys``, integers in ``[0, size)``, into CSR form.

    Returns ``(indptr, order)``: the positions of the keys equal to ``v`` are
    ``order[indptr[v]:indptr[v + 1]]``, ascending.
    """
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=indptr[1:])
    return indptr, np.argsort(keys, kind="stable")


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
