"""Hot contraction kernels in vectorized numpy.

Two operations on motif tensors dominate alignment runtime: the pairwise
implicit product contraction of two tensors (quadratic in the motif counts)
and the batched multi-vector contraction of one tensor, used to expand
low-rank factor columns.  Each has one implementation here, deterministic run
to run; :func:`ttv_tuples` is the only multi-vector contraction loop in the
package.  Both take the :class:`~tenalign.tensors.MotifTensor` operands they
contract and work in blocks bounded by a module constant (``IMPLICIT_CHUNK``,
``IMPLICIT_BLOCK``, ``TUPLE_CHUNK``).

Both form their products per face, not per slot.  The face of slot ``a`` of
hyperedge ``e`` is the sorted tuple left when ``e[a]`` is removed, with the
weight of ``e`` (``MotifTensor.faces``); in clique tensors each face sits
in several hyperedges.  A product depends only on its faces, so each is
formed once per distinct face (pair), by the same operations in the same
order as a loop over the slots would use, and scattered once per slot.  The
scatter alone fixes the order of the additions, and with it the last bits
of a result:

* :func:`implicit_pair_contract` adds with ``np.add.at`` in the order of a
  flat, row-major scatter per chunk of A rows and slot pair, so its result
  follows the chunk size that ``IMPLICIT_CHUNK`` sets.  ``IMPLICIT_BLOCK``
  splits only the face products and the rows of one slot pair, which
  keeps every cell's order.
* :func:`ttv_tuples` adds with one product by the tensor's cached
  ``scatter`` matrix, whose rows list the slots in the same order for every
  block, so its result depends on neither constant.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "implicit_pair_contract",
    "ttv_tuples",
    "using_numba",
]

IMPLICIT_CHUNK = 4_000_000  # bound on A-rows times B-hyperedges per block
IMPLICIT_BLOCK = 32_768  # bound on the entries of each face-product and scatter block
TUPLE_CHUNK = 32_768  # bound on tuple columns times faces per block


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


def implicit_pair_contract(tensor_a, tensor_b, X):
    """Pairwise hyperedge contraction: the implicit product-tensor apply.

    For motif tensors ``A`` (dimension ``m``) and ``B`` (dimension ``n``) of
    one order ``k`` and an ``(m, n)`` array ``X``, ``Y[i, i'] = sum over
    hyperedge pairs (e in A containing i, f in B containing i') of
    wA(e) * wB(f) * (k-1)! * perm(X[e \\ i, f \\ i'])``, which equals the
    order-(k-1) contraction of the product tensor against ``X`` without
    forming it.  The term of a pair depends only on the faces ``e \\ i`` and
    ``f \\ i'`` and their weights, so it is formed once per pair of faces
    and scattered once per pair of hyperedges.  Work is
    O(faces_A * faces_B * (k-1)! + nnz_A * nnz_B * k^2).
    """
    EA = tensor_a.hyperedges
    EB = tensor_b.hyperedges
    nnz_a, k = EA.shape
    nnz_b = EB.shape[0]
    n = tensor_b.dim
    Y = np.zeros((tensor_a.dim, n))
    if nnz_a == 0 or nnz_b == 0:
        return Y
    perms, _ = _tables(k)
    gamma = float(math.factorial(k - 1))
    XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    FA, wA, facesA = tensor_a.faces
    FB, wB, facesB = tensor_b.faces
    Y_flat = Y.reshape(-1)
    # chunks of A rows: with the slot pairs, they fix the order of the additions
    chunk = max(1, IMPLICIT_CHUNK // nnz_b)
    rows_per_block = max(1, IMPLICIT_BLOCK // nnz_b)
    # scratch reused across chunks and slots: a slot of a chunk has at most
    # as many distinct faces as the chunk has rows, so P_b_all has at most
    # IMPLICIT_CHUNK entries and P_all at most chunk times faces_B
    face_rows = min(chunk, nnz_a)
    P_all = np.empty((face_rows, FB.shape[0]))
    P_b_all = np.empty((face_rows, nnz_b))
    vals = np.empty((rows_per_block, nnz_b))
    flat = np.empty((rows_per_block, nnz_b), dtype=np.int64)
    for lo in range(0, nnz_a, chunk):
        hi = min(lo + chunk, nnz_a)
        for a in range(k):
            # the distinct faces of slot a in this chunk, and each row's one
            local, of_row = np.unique(facesA[a, lo:hi], return_inverse=True)
            P = P_all[:local.size]
            _face_products(XT, FA[local], wA[local], FB, wB, perms, gamma, P)
            P_b = P_b_all[:local.size]
            rows = EA[lo:hi, a] * n
            for b in range(k):
                # P_b[:, f] is the face pair's term for slot b of B hyperedge
                # f; mode="clip" writes straight to out (the indices are valid)
                np.take(P, facesB[b], axis=1, out=P_b, mode="clip")
                cols = EB[:, b]
                # blocks of whole rows keep the order of one flat, row-major
                # scatter over the chunk
                for r in range(0, hi - lo, rows_per_block):
                    s = min(rows_per_block, hi - lo - r)
                    np.take(P_b, of_row[r:r + s], axis=0, out=vals[:s], mode="clip")
                    np.add(rows[r:r + s, None], cols, out=flat[:s])
                    np.add.at(Y_flat, flat[:s].reshape(-1), vals[:s].reshape(-1))
    return Y


def _face_products(XT, FA, wA, FB, wB, perms, gamma, P):
    """The weighted term of every pair of an A face and a B face.

    ``P[g, h] = sum over permutations p of prod_t X[FA[g, t], FB[h, p[t]]]``,
    times ``wA[g] * wB[h] * gamma``.  Each term multiplies its factors in
    slot order, the terms add in the order of ``perms`` and the weight comes
    last, as a loop over hyperedge pairs would do.  Written to
    ``P`` in blocks of B faces, built transposed, so each factor is a row
    gather.
    """
    XA = [np.ascontiguousarray(XT[:, FA[:, t]]) for t in range(FA.shape[1])]
    step = max(1, IMPLICIT_BLOCK // FA.shape[0])
    for lo in range(0, FB.shape[0], step):
        fb = FB[lo:lo + step]
        acc = None
        for p in perms:
            term = XA[0][fb[:, p[0]]]
            for t in range(1, len(XA)):
                term *= XA[t][fb[:, p[t]]]
            # starting from the first term rather than from zeros can only
            # flip the sign of a zero, which adding to Y ignores
            acc = term if acc is None else np.add(acc, term, out=acc)
        weight = np.multiply.outer(wB[lo:lo + step], wA)
        weight *= gamma
        acc *= weight
        P[:, lo:lo + step] = acc.T


def ttv_tuples(tensor, M, digits):
    """Multi-vector contractions for explicit rows of factor-column indices.

    Column ``t`` of the ``(dim, len(digits))`` result is the order-(k-1)
    contraction of the motif tensor with the factor columns
    ``M[:, digits[t, 0]], ..., M[:, digits[t, k-2]]``: entry ``i`` sums, over
    hyperedges containing ``i`` and over all bijections from the selected
    columns to the other ``k - 1`` vertices, the hyperedge weight times the
    assigned factor entries.  The sum over bijections depends only on the
    face left when ``i`` is removed, so it is formed once per face; each
    output entry then adds them up slot by slot, then hyperedge by
    hyperedge, so results do not depend on the blocking.
    """
    nnz, k = tensor.hyperedges.shape
    digits = np.asarray(digits, dtype=np.int64).reshape(-1, k - 1)
    width = digits.shape[0]
    out = np.zeros((tensor.dim, width))
    if nnz == 0 or width == 0:
        return out
    perms, _ = _tables(k)
    F, w, _ = tensor.faces
    # factor rows gathered once per face position and transposed, (r, faces),
    # so each term of a column block is a row gather G[t][digits]
    MT = np.ascontiguousarray(np.asarray(M, dtype=np.float64).T)
    G = [np.take(MT, F[:, t], axis=1) for t in range(k - 1)]
    # the first factor of each term carries the weight: weight times factor,
    # applied once per face position instead of once per term
    GW = [g * w for g in G]
    S = tensor.scatter
    block = max(1, TUPLE_CHUNK // F.shape[0])
    for lo in range(0, width, block):
        dig = digits[lo:lo + block]
        acc = None
        for p in perms:
            term = GW[p[0]][dig[:, 0]]
            for t in range(1, k - 1):
                term *= G[p[t]][dig[:, t]]
            acc = term if acc is None else np.add(acc, term, out=acc)
        # row f of the scatter operand is face f's sum; S adds them slot by
        # slot, then hyperedge by hyperedge
        out[:, lo:lo + block] = S @ np.ascontiguousarray(acc.T)
    return out
