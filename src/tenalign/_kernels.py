"""Hot contraction kernels in vectorized numpy.

Two operations dominate alignment runtime: the pairwise implicit product
contraction (quadratic in the motif counts) and the batched multi-vector
contraction used to expand low-rank factor columns.  Each has one
implementation here, deterministic run to run; :func:`ttv_tuples` is the
only multi-vector contraction loop in the package.  Both work in blocks
bounded by a module constant (``IMPLICIT_CHUNK``, ``TUPLE_CHUNK``), and
neither result depends on the blocking.  The implicit contraction scatters
with a flat ``np.add.at``; :func:`ttv_tuples` scatters each block with one
sparse incidence product, which adds in the same order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "implicit_pair_contract",
    "ttv_tuples",
    "using_numba",
]

IMPLICIT_CHUNK = 4_000_000  # bound on A-rows times B-hyperedges per block
TUPLE_CHUNK = 131_072  # bound on tuple columns times k * nnz products per block


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
        # the weight factor of every (a, b) slot pair of this chunk
        base = np.outer(wA[lo:hi], wB)
        base *= gamma
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
                del term  # besides base, at most three (chunk, nnz_b) blocks live
                vals = np.multiply(acc.T, base)
                del acc
                # a flat, row-major scatter adds in the same order as the
                # (row, column) one, and numpy runs it much faster
                np.add.at(Y_flat, (rows + EB[:, b]).reshape(-1), vals.reshape(-1))
                del vals
    return Y


def _incidence(E, dim):
    """CSR ``(dim, k * nnz)`` 0/1 matrix; column ``a * nnz + e`` is the
    vertex in slot ``a`` of hyperedge ``e``.

    Each row lists its columns in ascending order, so a product with it adds
    slot by slot and, within a slot, hyperedge by hyperedge.
    """
    rows = E.T.reshape(-1)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    cols = np.argsort(rows, kind="stable")
    return csr_matrix((np.ones(rows.size), cols, indptr), shape=(dim, rows.size))


def ttv_tuples(E, w, M, dim, digits):
    """Multi-vector contractions for explicit rows of factor-column indices.

    Column ``t`` of the ``(dim, len(digits))`` result is the order-(k-1)
    contraction of the hyperedge tensor ``(E, w)`` with the factor columns
    ``M[:, digits[t, 0]], ..., M[:, digits[t, k-2]]``: entry ``i`` sums, over
    hyperedges containing ``i`` and over all bijections from the selected
    columns to the other ``k - 1`` vertices, the hyperedge weight times the
    assigned factor entries.  Each product is the weight times the factors in
    slot order, and each output entry adds them up slot by slot, then
    hyperedge by hyperedge, so results do not depend on the blocking.
    """
    nnz, k = E.shape
    digits = np.asarray(digits, dtype=np.int64).reshape(-1, k - 1)
    width = digits.shape[0]
    out = np.zeros((dim, width))
    if nnz == 0 or width == 0:
        return out
    perms, rest = _tables(k)
    # factor rows gathered once per slot and transposed, (r, nnz), so each
    # term of a column block is a row gather G[c][digits]
    MT = np.ascontiguousarray(np.asarray(M, dtype=np.float64).T)
    G = [np.take(MT, E[:, c], axis=1) for c in range(k)]
    S = _incidence(E, dim)
    block = max(1, TUPLE_CHUNK // (k * nnz))
    for lo in range(0, width, block):
        dig = digits[lo:lo + block]
        # rows a * nnz + e of the scatter operand, the order S adds them in
        B = np.empty((k * nnz, dig.shape[0]))
        for a in range(k):
            acc = None
            for p in perms:
                term = G[rest[a, p[0]]][dig[:, 0]]
                term *= w  # one product, so the same as weight times factor
                for t in range(1, k - 1):
                    term *= G[rest[a, p[t]]][dig[:, t]]
                acc = term if acc is None else np.add(acc, term, out=acc)
            B[a * nnz:(a + 1) * nnz] = acc.T
        out[:, lo:lo + block] = S @ B
    return out

