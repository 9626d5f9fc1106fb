"""Contractions against the product tensor of two motif tensors.

The product tensor of an order-``k`` pair ``(A, B)`` with dimensions ``m``
and ``n`` is the order-``k`` tensor of dimension ``m * n`` whose entry at
the interleaved index ``<i, i'>`` is ``A(i) * B(i')``.  It is never
materialized except by :func:`explicit_kron`, a desk-scale oracle on dense
operands; the other routines contract against the product of the two
:class:`MotifTensor` operands of a :class:`KronPair` implicitly, the
low-rank one by decoupling the operands.

Vectorization is column-major: ``vec`` stacks columns, fixing the
interleaved index ``<i, i'> = i + m * i'`` in 0-based terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import implicit_pair_contract, ttv_tuples
from .errors import BudgetExceededError, DimensionMismatchError
from .tensors import MotifTensor

__all__ = [
    "KronPair",
    "vec",
    "unvec",
    "implicit_kron_ttv",
    "lowrank_kron_ttv",
    "explicit_kron",
]

COLUMN_CAP = 10_000  # max expansion columns r^(k-1), read at call time
EXPLICIT_BUDGET = 4_000_000  # max entries of an explicit product tensor, read at call time


@dataclass(frozen=True)
class KronPair:
    """A pair of equal-order motif tensors viewed as their implicit product
    tensor.

    ``a`` plays the row role (dimension ``m``) and ``b`` the column role
    (dimension ``n``).
    """

    a: MotifTensor
    b: MotifTensor

    def __post_init__(self):
        if not isinstance(self.a, MotifTensor) or not isinstance(self.b, MotifTensor):
            raise TypeError(
                "KronPair operands must be MotifTensors, got "
                f"{type(self.a).__name__} and {type(self.b).__name__}"
            )
        if self.a.order != self.b.order:
            raise DimensionMismatchError(
                f"tensor orders differ: {self.a.order} vs {self.b.order}"
            )

    @property
    def order(self) -> int:
        return self.a.order

    @property
    def dim_a(self) -> int:
        return self.a.dim

    @property
    def dim_b(self) -> int:
        return self.b.dim


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
    X = np.asarray(X, dtype=np.float64)
    m, n = pair.dim_a, pair.dim_b
    if X.shape != (m, n):
        raise DimensionMismatchError(f"X must have shape ({m}, {n}), got {X.shape}")
    return implicit_pair_contract(pair.a, pair.b, X)


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
    cols = ttv_tuples(tensor, M, digits)
    # a C-contiguous copy, as the direct expansion was: the BLAS products of
    # the iteration round differently on other layouts
    return np.ascontiguousarray(cols[:, where])


def explicit_kron(dense_a: np.ndarray, dense_b: np.ndarray) -> np.ndarray:
    """Materialize the product tensor of two dense tensors (small-scale
    oracle only).

    ``dense_a`` plays the row role (dimension ``m``) and ``dense_b`` the
    column role (dimension ``n``).  Entry at the interleaved joint index
    equals the product of the operand entries; output is a dense order-``k``
    array of dimension ``m * n``.  Unequal orders raise
    :class:`DimensionMismatchError`, and more than :data:`EXPLICIT_BUDGET`
    entries :class:`BudgetExceededError`.
    """
    dense_a = np.asarray(dense_a, dtype=np.float64)
    dense_b = np.asarray(dense_b, dtype=np.float64)
    k = dense_a.ndim
    if dense_b.ndim != k:
        raise DimensionMismatchError(f"tensor orders differ: {k} vs {dense_b.ndim}")
    m, n = dense_a.shape[0], dense_b.shape[0]
    size = (m * n) ** k
    if size > EXPLICIT_BUDGET:
        raise BudgetExceededError(
            f"explicit product tensor would have {size} entries (budget {EXPLICIT_BUDGET})"
        )
    # outer(B, A)[i', i] then pair up the axes as (i'_t, i_t) -> joint index
    out = np.multiply.outer(dense_b, dense_a)
    axes = []
    for t in range(k):
        axes.extend([t, k + t])
    out = out.transpose(axes)
    return out.reshape((m * n,) * k)
