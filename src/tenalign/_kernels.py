"""Hot contraction kernels in vectorized numpy.

Two operations dominate alignment runtime: the pairwise implicit product
contraction (quadratic in the motif counts) and the batched multi-vector
contraction used to expand low-rank factor columns.  Each has one
implementation here, deterministic run to run; :func:`ttv_tuples` is the
only multi-vector contraction loop in the package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "implicit_pair_contract",
    "ttv_column_block",
    "ttv_tuples",
    "using_numba",
]

IMPLICIT_CHUNK = 4_000_000  # bound on A-rows times B-hyperedges per block


def using_numba() -> bool:
    """Always False: the kernels are pure numpy."""
    return False


@lru_cache(maxsize=32)
def _tables(k: int):
    """Permutations of k-1 slots and the k leave-one-out position tables."""
    perms = np.array(list(permutations(range(k - 1))), dtype=np.int64)
    rest = np.array(
        [[c for c in range(k) if c != a] for a in range(k)], dtype=np.int64
    )
    perms.setflags(write=False)
    rest.setflags(write=False)
    return perms, rest


def implicit_pair_contract(EA, wA, EB, wB, X, m, n):
    """Pairwise hyperedge contraction: the implicit product-tensor apply.

    ``Y[i, i'] = sum over hyperedge pairs (e in A containing i, f in B
    containing i') of wA(e) * wB(f) * (k-1)! * perm(X[e \\ i, f \\ i'])``,
    which equals the order-(k-1) contraction of the product tensor against
    ``X`` without forming it.  Work is O(nnz_A * nnz_B * (k!)^2 / k).
    """
    nnz_a, k = EA.shape
    nnz_b = EB.shape[0]
    Y = np.zeros((m, n))
    if nnz_a == 0 or nnz_b == 0:
        return Y
    perms, rest = _tables(k)
    gamma = float(math.factorial(k - 1))
    XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    Y_flat = Y.reshape(-1)
    # chunk the A side so the (chunk, nnz_b) temporaries stay bounded
    chunk = max(1, IMPLICIT_CHUNK // nnz_b)
    for lo in range(0, nnz_a, chunk):
        hi = min(lo + chunk, nnz_a)
        ea = EA[lo:hi]
        # The products are built transposed, (nnz_b, chunk), so each block
        # X[ea[:, c]][:, EB[:, d]] is a row gather of XA[c] = X[ea[:, c]].T
        XA = [np.ascontiguousarray(XT[:, ea[:, c]]) for c in range(k)]
        wa = wA[lo:hi]
        for a in range(k):
            rows = ea[:, a][:, None] * n
            for b in range(k):
                acc = None
                for p in perms:
                    term = XA[rest[a, 0]][EB[:, rest[b, p[0]]]]
                    for t in range(1, k - 1):
                        term *= XA[rest[a, t]][EB[:, rest[b, p[t]]]]
                    # starting from the first term rather than from zeros can
                    # only flip the sign of a zero, which adding to Y ignores
                    acc = term if acc is None else np.add(acc, term, out=acc)
                vals = np.outer(wa, wB)
                vals *= gamma
                np.multiply(acc.T, vals, out=vals)
                del acc, term  # at most three (chunk, nnz_b) blocks stay live
                # a flat, row-major scatter adds in the same order as the
                # (row, column) one, and numpy runs it much faster
                np.add.at(Y_flat, (rows + EB[:, b]).reshape(-1), vals.reshape(-1))
                del vals
    return Y


def ttv_tuples(E, w, M, dim, digits):
    """Multi-vector contractions for explicit rows of factor-column indices.

    Column ``t`` of the ``(dim, len(digits))`` result is the order-(k-1)
    contraction of the hyperedge tensor ``(E, w)`` with the factor columns
    ``M[:, digits[t, 0]], ..., M[:, digits[t, k-2]]``: entry ``i`` sums, over
    hyperedges containing ``i`` and over all bijections from the selected
    columns to the other ``k - 1`` vertices, the hyperedge weight times the
    assigned factor entries.
    """
    nnz, k = E.shape
    digits = np.asarray(digits, dtype=np.int64).reshape(-1, k - 1)
    width = digits.shape[0]
    out = np.zeros((dim, width))
    if nnz == 0 or width == 0:
        return out
    perms, rest = _tables(k)
    out_flat = out.reshape(-1)
    for a in range(k):
        acc = np.zeros((nnz, width))
        for p in perms:
            term = w[:, None] * M[E[:, rest[a, p[0]]], :][:, digits[:, 0]]
            for t in range(1, k - 1):
                term = term * M[E[:, rest[a, p[t]]], :][:, digits[:, t]]
            acc += term
        # flat scatter: the same row-major order as np.add.at(out, E[:, a], acc)
        flat = E[:, a][:, None] * width + np.arange(width)
        np.add.at(out_flat, flat.reshape(-1), acc.reshape(-1))
        del flat  # free it before the next slot's products
    return out


def ttv_column_block(E, w, M, dim, start, stop):
    """Multi-vector contractions for a lexicographic range of column tuples.

    Column ``t`` of the result (for tuple index ``start + t``) contracts with
    the factor columns selected by the ``(k-1)``-digit base-r expansion of
    the tuple index; see :func:`ttv_tuples`.  Ranges let callers bound memory.
    """
    k = E.shape[1]
    r = M.shape[1]
    digits = np.stack(
        np.unravel_index(np.arange(start, stop), (r,) * (k - 1)), axis=1
    )
    return ttv_tuples(E, w, np.ascontiguousarray(M, dtype=np.float64), dim, digits)
