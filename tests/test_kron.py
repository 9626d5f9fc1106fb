import math

import numpy as np
import pytest

from conftest import dense_contract, random_motif, shared_face_pair
from tenalign import _kernels, kron
from tenalign.errors import BudgetExceededError, DimensionMismatchError
from tenalign.kron import (
    KronPair,
    explicit_kron,
    implicit_kron_ttv,
    lowrank_kron_ttv,
    unvec,
    vec,
)
from tenalign.tensors import MotifTensor, ttv_same


def implicit_oracle(EA, wA, EB, wB, X, m, n, chunk_entries=4_000_000):
    """The former implicit-contraction loop, kept verbatim as a bitwise oracle."""
    nnz_a, k = EA.shape
    nnz_b = EB.shape[0]
    Y = np.zeros((m, n))
    if nnz_a == 0 or nnz_b == 0:
        return Y
    perms, rest = _kernels._tables(k)
    gamma = float(math.factorial(k - 1))
    X = np.ascontiguousarray(X, dtype=np.float64)
    chunk = max(1, chunk_entries // nnz_b)
    for lo in range(0, nnz_a, chunk):
        hi = min(lo + chunk, nnz_a)
        ea = EA[lo:hi]
        wa = wA[lo:hi]
        for a in range(k):
            for b in range(k):
                acc = np.zeros((hi - lo, nnz_b))
                for p in perms:
                    term = np.ones((hi - lo, nnz_b))
                    for t in range(k - 1):
                        term *= X[ea[:, rest[a, t]]][:, EB[:, rest[b, p[t]]]]
                    acc += term
                acc *= gamma * np.outer(wa, wB)
                np.add.at(Y, (ea[:, a][:, None], EB[:, b][None, :]), acc)
    return Y


def column_block_oracle(E, w, M, dim, start, stop):
    """The former column-block loop, kept verbatim as a bitwise oracle."""
    nnz, k = E.shape
    r = M.shape[1]
    perms, rest = _kernels._tables(k)
    digits = np.stack(
        np.unravel_index(np.arange(start, stop), (r,) * (k - 1)), axis=1
    ).astype(np.int64)
    out = np.zeros((dim, stop - start))
    if nnz == 0 or stop == start:
        return out
    for a in range(k):
        acc = np.zeros((nnz, stop - start))
        for p in perms:
            term = w[:, None] * M[E[:, rest[a, p[0]]], :][:, digits[:, 0]]
            for t in range(1, k - 1):
                term = term * M[E[:, rest[a, p[t]]], :][:, digits[:, t]]
            acc += term
        np.add.at(out, E[:, a], acc)
    return out


def ttv_tuples_oracle(E, w, M, dim, digits):
    """The former multi-vector loop, kept verbatim as a bitwise oracle."""
    nnz, k = E.shape
    digits = np.asarray(digits, dtype=np.int64).reshape(-1, k - 1)
    width = digits.shape[0]
    out = np.zeros((dim, width))
    if nnz == 0 or width == 0:
        return out
    perms, rest = _kernels._tables(k)
    out_flat = out.reshape(-1)
    for a in range(k):
        acc = np.zeros((nnz, width))
        for p in perms:
            term = w[:, None] * M[E[:, rest[a, p[0]]], :][:, digits[:, 0]]
            for t in range(1, k - 1):
                term = term * M[E[:, rest[a, p[t]]], :][:, digits[:, t]]
            acc += term
        flat = E[:, a][:, None] * width + np.arange(width)
        np.add.at(out_flat, flat.reshape(-1), acc.reshape(-1))
    return out


def column_block(tensor, M, start, stop):
    """Kernel columns for the lexicographic tuple indices ``start..stop``."""
    shape = (M.shape[1],) * (tensor.order - 1)
    digits = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
    return _kernels.ttv_tuples(tensor, M, digits)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def diagonal_tensor(dim, order):
    out = np.zeros((dim,) * order)
    for i in range(dim):
        out[(i,) * order] = 1.0
    return out


class TestIndexing:
    def test_vec_unvec_round_trip(self, rng):
        X = rng.standard_normal((3, 5))
        assert np.array_equal(unvec(vec(X), 3, 5), X)

    def test_vec_is_column_major(self):
        X = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert vec(X).tolist() == [1.0, 2.0, 3.0, 4.0]


def explicit_oracle(pair):
    """The dense product tensor of a pair's motif tensors."""
    return explicit_kron(pair.a.to_dense(), pair.b.to_dense())


class TestKronPair:
    def test_order_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            KronPair(triangle, MotifTensor(4, 3, [], []))

    def test_dense_operands_rejected(self, triangle):
        dense = triangle.to_dense()
        for a, b in ((dense, dense), (triangle, dense), (dense, triangle)):
            with pytest.raises(TypeError, match="MotifTensor"):
                KronPair(a, b)

    def test_reads_order_and_dims_from_the_tensors(self, triangle):
        pair = KronPair(triangle, MotifTensor(3, 5, [(1, 2, 4)], [2.0]))
        assert (pair.order, pair.dim_a, pair.dim_b) == (3, 3, 5)


class TestExplicit:
    def test_diagonal_product_is_bigger_diagonal(self):
        d2 = diagonal_tensor(2, 3)
        assert np.array_equal(explicit_kron(d2, d2), diagonal_tensor(4, 3))

    def test_zero_operand(self, triangle):
        dense = explicit_kron(triangle.to_dense(), np.zeros((2, 2, 2)))
        assert dense.shape == (6, 6, 6)
        assert not dense.any()

    def test_triangle_pair_entry_count(self, triangle):
        dense = explicit_kron(triangle.to_dense(), triangle.to_dense())
        # 6 orientations on each side -> 36 unit entries
        assert int((dense != 0).sum()) == 36
        assert set(np.unique(dense)) == {0.0, 1.0}

    def test_budget(self, triangle, monkeypatch):
        monkeypatch.setattr(kron, "EXPLICIT_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            explicit_kron(triangle.to_dense(), triangle.to_dense())

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="orders differ"):
            explicit_kron(np.ones((2, 2, 2)), np.ones((2, 2, 2, 2)))


class TestRank1:
    # the product-tensor contraction of vec(u v^T) is the outer product of
    # the per-operand contractions A u^{k-1} and B v^{k-1}
    def test_uniform_triangle_pair(self, triangle):
        u = np.ones(3) / np.sqrt(3)
        assert np.allclose(ttv_same(triangle, u), 2.0 / 3.0)

    def test_zero_vector(self, triangle):
        assert not ttv_same(triangle, np.zeros(3)).any()

    def test_decoupling_identity(self, rng):
        # outer product of the per-operand contractions equals the joint one
        for _ in range(20):
            k = int(rng.integers(3, 5))
            m = int(rng.integers(k, 5))
            n = int(rng.integers(k, 5))
            pair = KronPair(random_motif(k, m, rng), random_motif(k, n, rng))
            u = rng.standard_normal(m)
            v = rng.standard_normal(n)
            a_side, b_side = ttv_same(pair.a, u), ttv_same(pair.b, v)
            joint = implicit_kron_ttv(pair, np.outer(u, v))
            scale = max(np.linalg.norm(joint), 1e-30)
            assert np.linalg.norm(np.outer(a_side, b_side) - joint) / scale <= 1e-12

    def test_full_contraction_scalar_form(self, rng):
        k, m, n = 3, 4, 3
        pair = KronPair(random_motif(k, m, rng), random_motif(k, n, rng))
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        # the full contraction is the product of the operands' inner products
        a_side, b_side = ttv_same(pair.a, u), ttv_same(pair.b, v)
        dense = explicit_oracle(pair)
        ref = dense_contract(dense, vec(np.outer(u, v)), k)
        got = np.dot(u, a_side) * np.dot(v, b_side)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-12)


class TestImplicit:
    def test_all_ones_triangle_pair(self, triangle):
        out = implicit_kron_ttv(KronPair(triangle, triangle), np.ones((3, 3)))
        assert np.allclose(out, 4.0)

    def test_zero_input(self, triangle):
        out = implicit_kron_ttv(KronPair(triangle, triangle), np.zeros((3, 3)))
        assert not out.any()

    def test_shape_check(self, triangle):
        with pytest.raises(DimensionMismatchError):
            implicit_kron_ttv(KronPair(triangle, triangle), np.ones((3, 4)))

    def test_matches_explicit_oracle(self, rng):
        for _ in range(20):
            k = int(rng.integers(3, 5))
            m = int(rng.integers(k, 5))
            n = int(rng.integers(k, 5))
            pair = KronPair(random_motif(k, m, rng), random_motif(k, n, rng))
            X = rng.standard_normal((m, n))
            got = implicit_kron_ttv(pair, X)
            ref = unvec(dense_contract(explicit_oracle(pair), vec(X), k - 1), m, n)
            scale = max(np.linalg.norm(ref), 1e-30)
            assert np.linalg.norm(got - ref) / scale <= 1e-12

    @pytest.mark.parametrize("chunk_entries", [4_000_000, 97])
    def test_bit_identical_to_former_loop(self, monkeypatch, rng, chunk_entries):
        # the transposed gathers and the flat scatter keep every product and
        # every addition of the former loop in order; signed zeros in X probe
        # the one place the order of operations differs (the first term)
        monkeypatch.setattr(_kernels, "IMPLICIT_CHUNK", chunk_entries)
        for k in (2, 3, 4, 5):
            for m, n in ((k, k + 1), (7, 6), (9, 11)):
                ta = random_motif(k, m, rng)
                tb = random_motif(k, n, rng, weighted=k % 2 == 0)
                X = rng.standard_normal((m, n))
                X[rng.random((m, n)) < 0.3] = -0.0
                X[rng.random((m, n)) < 0.1] = 0.0
                args = (ta.hyperedges, ta.weights, tb.hyperedges, tb.weights, X, m, n)
                got = _kernels.implicit_pair_contract(ta, tb, X)
                ref = implicit_oracle(*args, chunk_entries=chunk_entries)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # faces shared by several hyperedges, also with two weights per face
        # tuple; at 97 entries every chunk holds one row, so each face's
        # hyperedges fall in different chunks
        for order in (2, 3, 4):
            for weighted in (False, True):
                self._check_shared(shared_face_pair(order, weighted), rng, chunk_entries)

    @pytest.mark.parametrize("block", [_kernels.IMPLICIT_BLOCK, 1])
    def test_bit_identical_at_any_block(self, monkeypatch, rng, block):
        # the scatter splits the rows of one slot pair, and the face products
        # the B faces, into blocks of this many entries; chunks of 40 rows
        # split the faces' hyperedges too
        monkeypatch.setattr(_kernels, "IMPLICIT_BLOCK", block)
        monkeypatch.setattr(_kernels, "IMPLICIT_CHUNK", 20_000)
        for order in (2, 3):
            for weighted in (False, True):
                self._check_shared(shared_face_pair(order, weighted), rng, 20_000)

    @staticmethod
    def _check_shared(pair, rng, chunk_entries):
        ta, tb = pair
        m, n = ta.dim, tb.dim
        X = rng.standard_normal((m, n))
        X[rng.random((m, n)) < 0.3] = -0.0
        args = (ta.hyperedges, ta.weights, tb.hyperedges, tb.weights, X, m, n)
        got = _kernels.implicit_pair_contract(ta, tb, X)
        ref = implicit_oracle(*args, chunk_entries=chunk_entries)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestTtvTuples:
    @pytest.mark.parametrize("chunk", [_kernels.TUPLE_CHUNK, 200, 1])
    def test_bit_identical_to_former_loop(self, monkeypatch, rng, chunk):
        # the blocked kernel keeps every product and every addition of the
        # former loop in order, for any digit rows and any blocking
        monkeypatch.setattr(_kernels, "TUPLE_CHUNK", chunk)
        for k in (2, 3, 4, 5):
            for n, r, width in ((k, 1, 1), (7, 3, 6), (9, 4, 40)):
                t = random_motif(k, n, rng)
                M = rng.standard_normal((n, r))
                M[rng.random((n, r)) < 0.2] = -0.0
                digits = rng.integers(0, r, (width, k - 1))
                args = (t.hyperedges, t.weights, M, n, digits)
                got = _kernels.ttv_tuples(t, M, digits)
                assert np.array_equal(bits(got), bits(ttv_tuples_oracle(*args)))
        # faces shared by several hyperedges, also with two weights per face tuple
        for order in (2, 3, 4, 5):
            for weighted in (False, True):
                for t in shared_face_pair(order, weighted):
                    M = rng.standard_normal((t.dim, 4))
                    M[rng.random(M.shape) < 0.2] = -0.0
                    digits = rng.integers(0, 4, (30, order - 1))
                    args = (t.hyperedges, t.weights, M, t.dim, digits)
                    got = _kernels.ttv_tuples(t, M, digits)
                    assert np.array_equal(bits(got), bits(ttv_tuples_oracle(*args)))

    def test_empty_tensor_and_no_digits(self, rng):
        for k in (2, 3, 4):
            t = MotifTensor(k, 5, [], [])
            M = rng.standard_normal((5, 2))
            out = _kernels.ttv_tuples(t, M, np.zeros((3, k - 1)))
            assert out.shape == (5, 3) and not out.any()
            full = random_motif(k, 6, rng)
            out = _kernels.ttv_tuples(full, M, np.zeros((0, k - 1)))
            assert out.shape == (6, 0)


class TestSymmetricExpansion:
    def test_sorted_tuples(self):
        from itertools import combinations_with_replacement, product

        for r, k in ((1, 2), (4, 2), (1, 3), (5, 3), (3, 4), (3, 5)):
            digits, where = kron._sorted_tuples(r, k)
            ref = list(combinations_with_replacement(range(r), k - 1))
            assert digits.tolist() == [list(t) for t in ref]
            assert len(ref) == math.comb(r + k - 2, k - 1)
            for flat, tup in enumerate(product(range(r), repeat=k - 1)):
                assert digits[where[flat]].tolist() == sorted(tup)

    def _expansions(self, k, n, r, rng, weighted):
        pair = KronPair(
            random_motif(k, n, rng, weighted=weighted),
            random_motif(k, n + 1, rng, weighted=weighted),
        )
        U = rng.standard_normal((n, r))
        V = rng.standard_normal((n + 1, r))
        got = lowrank_kron_ttv(pair, U, V)
        full = r ** (k - 1)
        ref = (
            column_block(pair.a, U, 0, full),
            column_block(pair.b, V, 0, full),
        )
        return got, ref

    @pytest.mark.parametrize("k, weighted", [(2, True), (3, False)])
    def test_bit_identical_to_full_expansion(self, rng, k, weighted):
        # one slot pair per term: (c1, c2) and (c2, c1) give the same
        # products, summed in swapped order, so the columns agree bit for bit
        for n, r in ((5, 1), (8, 3), (12, 7)):
            got, ref = self._expansions(k, n, r, rng, weighted)
            for g, f in zip(got, ref):
                assert g.flags.c_contiguous
                assert np.array_equal(bits(g), bits(f))

    @pytest.mark.parametrize("k, weighted", [(3, True), (4, False), (4, True), (5, True)])
    def test_close_to_full_expansion(self, rng, k, weighted):
        for n, r in ((6, 2), (9, 4)):
            got, ref = self._expansions(k, n, r, rng, weighted)
            for g, f in zip(got, ref):
                assert g.flags.c_contiguous
                assert np.linalg.norm(g - f) <= 1e-13 * np.linalg.norm(f)


class TestLowRank:
    def test_column_block_bit_identical_to_former_loop(self, rng):
        for k in (2, 3, 4, 5):
            for n, r in ((k, 1), (7, 3), (9, 4)):
                t = random_motif(k, n, rng, weighted=True)
                M = rng.standard_normal((n, r))
                M[rng.random((n, r)) < 0.2] = -0.0
                total = r ** (k - 1)
                for start, stop in ((0, total), (total // 3, total), (0, 0)):
                    got = column_block(t, M, start, stop)
                    ref = column_block_oracle(t.hyperedges, t.weights, M, n, start, stop)
                    assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_rank1_special_case(self, triangle, rng):
        pair = KronPair(triangle, triangle)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((3, 1))
        ue, ve = lowrank_kron_ttv(pair, u, v)
        a_side, b_side = ttv_same(pair.a, u[:, 0]), ttv_same(pair.b, v[:, 0])
        assert np.allclose(ue[:, 0], a_side)
        assert np.allclose(ve[:, 0], b_side)

    def test_matches_implicit(self, rng):
        for _ in range(15):
            k = int(rng.integers(3, 5))
            m = int(rng.integers(k, 5))
            n = int(rng.integers(k, 5))
            r = int(rng.integers(1, 4))
            pair = KronPair(random_motif(k, m, rng), random_motif(k, n, rng))
            U = rng.standard_normal((m, r))
            V = rng.standard_normal((n, r))
            ue, ve = lowrank_kron_ttv(pair, U, V)
            assert ue.shape == (m, r ** (k - 1))
            ref = implicit_kron_ttv(pair, U @ V.T)
            scale = max(np.linalg.norm(ref), 1e-30)
            assert np.linalg.norm(ue @ ve.T - ref) / scale <= 1e-10

    def test_duplicate_columns_give_symmetric_tuples(self, triangle, rng):
        pair = KronPair(triangle, triangle)
        col = rng.standard_normal(3)
        U = np.column_stack([col, col])
        V = rng.standard_normal((3, 2))
        ue, _ = lowrank_kron_ttv(pair, U, V)
        # tuples (0,1) and (1,0) select identical column pairs
        assert np.allclose(ue[:, 1], ue[:, 2])

    def test_column_cap(self, triangle, rng, monkeypatch):
        monkeypatch.setattr(kron, "COLUMN_CAP", 8)
        pair = KronPair(triangle, triangle)
        U = rng.standard_normal((3, 3))
        V = rng.standard_normal((3, 3))
        with pytest.raises(BudgetExceededError):
            lowrank_kron_ttv(pair, U, V)

    def test_column_count_mismatch(self, triangle, rng):
        pair = KronPair(triangle, triangle)
        with pytest.raises(DimensionMismatchError):
            lowrank_kron_ttv(pair, rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))

    def test_uses_motif_contraction_per_tuple(self, rng):
        from itertools import product

        k, m, r = 4, 5, 2
        t = random_motif(k, m, rng)
        dense = t.to_dense()
        M = rng.standard_normal((m, r))
        pair = KronPair(t, t)
        ue, _ = lowrank_kron_ttv(pair, M, M)
        for flat, tup in enumerate(product(range(r), repeat=k - 1)):
            ref = dense
            for c in tup:
                ref = np.tensordot(ref, M[:, c], axes=([0], [0]))
            assert np.allclose(ue[:, flat], ref, rtol=1e-12, atol=1e-12)
