"""Contractions against the product tensor of two motif tensors.

The product tensor of an order-``k`` pair ``(A, B)`` with dimensions ``m``
and ``n`` is the order-``k`` tensor of dimension ``m * n`` whose entry at
the interleaved index ``<i, i'>`` is ``A(i) * B(i')``.  It is never
materialized except by :func:`explicit_kron`, a desk-scale oracle; the
other routines contract against it implicitly, exploiting rank-1 and rank-r
decoupling of the operands.

Vectorization is column-major: ``vec`` stacks columns, fixing the
interleaved index ``<i, i'> = i + m * i'`` in 0-based terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import implicit_pair_contract, ttv_tuples
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    UnsupportedContractionError,
)
from .tensors import MotifTensor, ttv_same

__all__ = [
    "KronPair",
    "vec",
    "unvec",
    "implicit_kron_ttv",
    "rank1_kron_ttv",
    "lowrank_kron_ttv",
    "explicit_kron",
]

COLUMN_CAP = 10_000  # max expansion columns r^(k-1), read at call time
EXPLICIT_BUDGET = 4_000_000  # max entries of an explicit product tensor, read at call time


@dataclass(frozen=True)
class KronPair:
    """A pair of equal-order tensors viewed as their (implicit) product tensor.

    ``a`` plays the row role (dimension ``m``) and ``b`` the column role
    (dimension ``n``); either may be a :class:`MotifTensor` or, for
    :func:`explicit_kron` only, a dense symmetric ``numpy`` array.
    """

    a: object
    b: object

    def __post_init__(self):
        if _order(self.a) != _order(self.b):
            raise DimensionMismatchError(
                f"tensor orders differ: {_order(self.a)} vs {_order(self.b)}"
            )

    @property
    def order(self) -> int:
        return _order(self.a)

    @property
    def dim_a(self) -> int:
        return _dim(self.a)

    @property
    def dim_b(self) -> int:
        return _dim(self.b)


def _order(t) -> int:
    return t.order if isinstance(t, MotifTensor) else np.asarray(t).ndim


def _dim(t) -> int:
    return t.dim if isinstance(t, MotifTensor) else np.asarray(t).shape[0]


def _require_sparse(pair: KronPair, what: str) -> None:
    if not isinstance(pair.a, MotifTensor) or not isinstance(pair.b, MotifTensor):
        raise UnsupportedContractionError(f"{what} requires sparse motif tensors")


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(x).reshape((m, n), order="F")


def implicit_kron_ttv(pair: KronPair, X: np.ndarray) -> np.ndarray:
    """Contract ``k - 1`` modes of the product tensor with ``vec(X)``.

    Loops over all pairs of stored hyperedges and their oriented
    correspondences; work is quadratic in the motif counts but independent
    of the rank of ``X``.
    """
    _require_sparse(pair, "implicit contraction")
    X = np.asarray(X, dtype=np.float64)
    m, n = pair.dim_a, pair.dim_b
    if X.shape != (m, n):
        raise DimensionMismatchError(f"X must have shape ({m}, {n}), got {X.shape}")
    return implicit_pair_contract(
        pair.a.hyperedges,
        pair.a.weights,
        pair.b.hyperedges,
        pair.b.weights,
        X,
        m,
        n,
    )


def rank1_kron_ttv(pair: KronPair, u: np.ndarray, v: np.ndarray):
    """Decoupled contraction for a rank-1 matrix ``X = u v^T``.

    Returns the pair ``(A . u^{k-1}, B . v^{k-1})``; their outer product
    equals the product-tensor contraction of ``vec(u v^T)``, so the two
    operands never interact.
    """
    _require_sparse(pair, "rank-1 contraction")
    return ttv_same(pair.a, u), ttv_same(pair.b, v)


def lowrank_kron_ttv(pair: KronPair, U: np.ndarray, V: np.ndarray):
    """Decoupled contraction for ``X = U V^T`` with ``r`` columns.

    For every tuple ``(i_1, ..., i_{k-1})`` in ``[r]^{k-1}`` (lexicographic),
    the output column is the multi-vector contraction of each operand with
    the selected factor columns, giving ``U' V'^T`` equal to the
    product-tensor contraction of ``vec(U V^T)``.  The operands are
    symmetric, so a column depends only on the multiset of its tuple: only
    the ``C(r+k-2, k-1)`` nondecreasing tuples are contracted, and every
    tuple's column is a copy of its sorted tuple's.  ``r^{k-1}`` above
    :data:`COLUMN_CAP` raises :class:`BudgetExceededError`; the low-rank
    iteration checks the same bound and accumulates the contraction from
    column batches instead.
    """
    _require_sparse(pair, "low-rank expansion")
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise DimensionMismatchError("U and V must share a column count")
    if U.shape[0] != pair.dim_a or V.shape[0] != pair.dim_b:
        raise DimensionMismatchError("factor row counts must match tensor dims")
    if U.shape[1] < 1:
        raise DimensionMismatchError("factors need at least one column")
    k = pair.order
    r = U.shape[1]
    n_cols = r ** (k - 1)
    if n_cols > COLUMN_CAP:
        raise BudgetExceededError(
            f"expansion needs {n_cols} columns (cap {COLUMN_CAP})"
        )
    digits, where = _sorted_tuples(r, k)
    return _expand(pair.a, U, digits, where), _expand(pair.b, V, digits, where)


def _sorted_tuples(r: int, k: int):
    """The nondecreasing ``(k-1)``-tuples over ``range(r)``, lexicographic,
    and for each tuple of ``[r]^{k-1}`` (lexicographic) the row of its
    sorted form."""
    shape = (r,) * (k - 1)
    full = np.indices(shape).reshape(k - 1, -1)
    codes, where = np.unique(
        np.ravel_multi_index(np.sort(full, axis=0), shape), return_inverse=True
    )
    return np.stack(np.unravel_index(codes, shape), axis=1), where


def _expand(tensor: MotifTensor, M: np.ndarray, digits, where) -> np.ndarray:
    cols = ttv_tuples(tensor.hyperedges, tensor.weights, M, tensor.dim, digits)
    # a C-contiguous copy, as the direct expansion was: the BLAS products of
    # the iteration round differently on other layouts
    return np.ascontiguousarray(cols[:, where])


def explicit_kron(pair: KronPair) -> np.ndarray:
    """Materialize the product tensor densely (small-scale oracle only).

    Entry at the interleaved joint index equals the product of the operand
    entries; output is a dense order-``k`` array of dimension ``m * n``.
    More than :data:`EXPLICIT_BUDGET` entries raise
    :class:`BudgetExceededError`.
    """
    k = pair.order
    m, n = pair.dim_a, pair.dim_b
    size = (m * n) ** k
    if size > EXPLICIT_BUDGET:
        raise BudgetExceededError(
            f"explicit product tensor would have {size} entries (budget {EXPLICIT_BUDGET})"
        )
    dense_a = pair.a.to_dense() if isinstance(pair.a, MotifTensor) else np.asarray(pair.a, dtype=np.float64)
    dense_b = pair.b.to_dense() if isinstance(pair.b, MotifTensor) else np.asarray(pair.b, dtype=np.float64)
    # outer(B, A)[i', i] then pair up the axes as (i'_t, i_t) -> joint index
    out = np.multiply.outer(dense_b, dense_a)
    axes = []
    for t in range(k):
        axes.extend([t, k + t])
    out = out.transpose(axes)
    return out.reshape((m * n,) * k)
