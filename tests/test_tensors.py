import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_contract, random_motif, shared_face_pair
from tenalign import _kernels, tensors
from tenalign.errors import (
    BudgetExceededError,
    DimensionMismatchError,
)
from tenalign.tensors import MotifTensor, ttv_same


def ttv_multi(tensor, xs):
    """Contraction of ``k - 1`` modes with distinct vectors: one digit row of
    the multi-vector kernel over the stacked vectors."""
    cols = np.column_stack(xs)
    digits = [range(len(xs))]
    return _kernels.ttv_tuples(tensor, cols, digits)[:, 0]


class TestConstruction:
    def test_rejects_non_increasing_tuple(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MotifTensor(3, 4, np.array([[0, 2, 1]]), np.ones(1))

    def test_rejects_duplicate_hyperedges(self):
        with pytest.raises(ValueError, match="duplicate"):
            MotifTensor(3, 4, np.array([[0, 1, 2], [0, 1, 2]]), np.ones(2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MotifTensor(3, 3, np.array([[0, 1, 3]]), np.ones(1))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            MotifTensor(3, 3, np.array([[0, 1, 2]]), np.zeros(1))

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MotifTensor(3, 3, np.array([[0, 1, 2]]), np.ones(2))

    def test_canonical_sort(self):
        t = MotifTensor(
            2, 4, np.array([[1, 3], [0, 2], [0, 1]]), np.array([3.0, 2.0, 1.0])
        )
        assert t.hyperedges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert t.weights.tolist() == [1.0, 2.0, 3.0]

    def test_arrays_are_frozen(self, triangle):
        with pytest.raises(ValueError):
            triangle.hyperedges[0, 0] = 5

    def test_cached_arrays_are_frozen(self, rng):
        # formerly writable: one write would change every later contraction
        for t in [random_motif(3, 6, rng), *scatter_cases(rng)]:
            S = t.scatter
            for a in (*t.incidence, *t.faces, S.data, S.indices, S.indptr):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[:] = 0

    def test_incidence(self, rng):
        for t in [random_motif(3, 6, rng), *scatter_cases(rng)]:
            indptr, ids = t.incidence
            assert indptr.dtype == ids.dtype == np.int64 and indptr.size == t.dim + 1
            for v in range(t.dim):
                expected = sorted(
                    e for e in range(t.nnz) if v in t.hyperedges[e].tolist()
                )
                assert ids[indptr[v]:indptr[v + 1]].tolist() == expected


def former_incidence(E, dim):
    """The former ``_kernels._incidence``, kept verbatim as an oracle."""
    from scipy.sparse import csr_matrix

    rows = E.T.reshape(-1)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    cols = np.argsort(rows, kind="stable")
    return csr_matrix((np.ones(rows.size), cols, indptr), shape=(dim, rows.size))


def scatter_cases(rng):
    """Tensors of order 2-5: empty ones, random ones, random ones whose top
    vertices are isolated, and clique tensors whose faces sit in several
    hyperedges, with one weight or two per face tuple."""
    for k in (2, 3, 4, 5):
        yield MotifTensor(k, 1, [], [])
        yield MotifTensor(k, k + 2, [], [])
        for dim in (k, k + 1, 8):
            t = random_motif(k, dim, rng)
            yield t
            yield MotifTensor(k, dim + 3, t.hyperedges, t.weights)
        yield shared_face_pair(k, False)[0]
        yield shared_face_pair(k, True)[0]


class TestFaces:
    def test_every_slot_has_its_face(self, rng):
        for t in scatter_cases(rng):
            vertices, weights, ids = t.faces
            k = t.order
            assert vertices.shape == (weights.size, k - 1) and ids.shape == (k, t.nnz)
            assert vertices.dtype == ids.dtype == np.int64
            for a in range(k):
                for e in range(t.nnz):
                    face = ids[a, e]
                    assert vertices[face].tolist() == np.delete(t.hyperedges[e], a).tolist()
                    assert weights[face] == t.weights[e]

    def test_faces_are_distinct_and_used(self, rng):
        for t in scatter_cases(rng):
            vertices, weights, ids = t.faces
            keys = [(*v, w) for v, w in zip(vertices.tolist(), weights.tolist())]
            assert keys == sorted(set(keys))
            assert np.array_equal(np.unique(ids), np.arange(len(keys)))

    def test_shared_faces(self):
        # 6.7 and 4.8 slots per face on these tensors; with alternating
        # weights a face tuple can stand for two faces
        for k in (3, 4):
            plain = shared_face_pair(k, False)[0]
            weighted = shared_face_pair(k, True)[0]
            assert k * plain.nnz >= 4 * plain.faces[1].size
            assert weighted.faces[1].size > plain.faces[1].size
            assert np.unique(weighted.faces[0], axis=0).shape == plain.faces[0].shape

    def test_order_two_faces_are_vertices(self):
        t = MotifTensor(2, 4, [(0, 1), (0, 2), (1, 2), (2, 3)], [1.0, 1.0, 1.0, 3.0])
        vertices, weights, ids = t.faces
        assert vertices.tolist() == [[0], [1], [2], [2], [3]]
        assert weights.tolist() == [1.0, 1.0, 1.0, 3.0, 3.0]
        assert ids.tolist() == [[1, 2, 2, 4], [0, 0, 1, 3]]

    def test_one_tuple_two_weights(self):
        t = MotifTensor(3, 4, [(0, 1, 2), (0, 1, 3)], [2.0, 1.0])
        vertices, weights, ids = t.faces
        assert vertices.tolist() == [[0, 1], [0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]
        assert weights.tolist() == [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]
        assert ids.tolist() == [[4, 5], [2, 3], [1, 0]]

    def test_empty_tensor(self):
        for k in (2, 3, 5):
            vertices, weights, ids = MotifTensor(k, 4, [], []).faces
            assert vertices.shape == (0, k - 1) and weights.shape == (0,)
            assert ids.shape == (k, 0)


class TestScatter:
    def test_former_incidence_over_faces(self, rng):
        # the former (slot, hyperedge) columns, now each slot's face, in the
        # former order within every row; no row lists a face twice
        for t in scatter_cases(rng):
            got, want = t.scatter, former_incidence(t.hyperedges, t.dim)
            _, weights, ids = t.faces
            assert got.shape == (t.dim, weights.size)
            assert want.shape == (t.dim, t.order * t.nnz)
            for name in ("indptr", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert np.array_equal(got.indices, ids.reshape(-1)[want.indices])
            for v in range(t.dim):
                row = got.indices[got.indptr[v]:got.indptr[v + 1]]
                assert np.unique(row).size == row.size

    def test_built_once_per_tensor(self, monkeypatch, rng):
        calls = []

        def counting(keys, size):
            calls.append(size)
            return group(keys, size)

        group = tensors._group
        monkeypatch.setattr(tensors, "_group", counting)
        t = random_motif(3, 7, rng)
        M = rng.standard_normal((7, 2))
        first = _kernels.ttv_tuples(t, M, [[0, 1]])
        second = _kernels.ttv_tuples(t, M, [[1, 1], [0, 0]])
        assert calls == [7]
        assert first.shape == (7, 1) and second.shape == (7, 2)


class TestTtvSame:
    def test_triangle_all_ones(self, triangle):
        assert ttv_same(triangle, np.ones(3)).tolist() == [2.0, 2.0, 2.0]

    def test_triangle_basis_vector(self, triangle):
        # no hyperedge contains two copies of vertex 0
        assert ttv_same(triangle, np.eye(3)[0]).tolist() == [0.0, 0.0, 0.0]

    def test_triangle_distinct_entries(self, triangle):
        out = ttv_same(triangle, np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [12.0, 6.0, 4.0]

    def test_full_contraction_scalar(self, triangle):
        # T x^k is the inner product of x with T x^{k-1}
        x = np.array([1.0, 2.0, 3.0])
        assert np.dot(x, ttv_same(triangle, x)) == pytest.approx(36.0)

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            ttv_same(triangle, np.ones(4))

    def test_empty_tensor(self):
        t = MotifTensor(3, 5, [], [])
        assert ttv_same(t, np.ones(5)).tolist() == [0.0] * 5

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 6))
            t = random_motif(k, n, rng)
            x = rng.standard_normal(n)
            dense = t.to_dense()
            got = ttv_same(t, x)
            ref = dense_contract(dense, x, k - 1)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_scalar_is_inner_product_with_vector_form(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 7))
            t = random_motif(k, n, rng)
            x = rng.standard_normal(n)
            lhs = float(dense_contract(t.to_dense(), x, k))
            rhs = float(np.dot(x, ttv_same(t, x)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTtvMulti:
    def test_triangle_basis_vectors(self, triangle):
        out = ttv_multi(triangle, [np.eye(3)[0], np.eye(3)[1]])
        assert out.tolist() == [0.0, 0.0, 1.0]

    def test_equal_vectors_reduce_to_same(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 7))
            t = random_motif(k, n, rng)
            x = rng.standard_normal(n)
            got = ttv_multi(t, [x] * (k - 1))
            ref = ttv_same(t, x)
            scale = max(np.linalg.norm(ref), 1e-30)
            assert np.linalg.norm(got - ref) / scale <= 1e-12

    def test_zero_vector_annihilates(self, triangle, rng):
        out = ttv_multi(triangle, [rng.standard_normal(3), np.zeros(3)])
        assert out.tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_multilinearity(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k, 6))
        t = random_motif(k, n, rng)
        xs = [rng.standard_normal(n) for _ in range(k - 1)]
        y = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        slot = int(rng.integers(k - 1))
        mixed = list(xs)
        mixed[slot] = a * xs[slot] + b * y
        lhs = ttv_multi(t, mixed)
        alt = list(xs)
        alt[slot] = y
        rhs = a * ttv_multi(t, xs) + b * ttv_multi(t, alt)
        scale = max(np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(lhs - rhs) / scale <= 1e-10

    def test_matches_permanent_oracle(self, rng):
        # independent check: explicit sum over dense entries
        for _ in range(6):
            k = int(rng.integers(3, 5))
            n = int(rng.integers(k, 5))
            t = random_motif(k, n, rng)
            xs = [rng.standard_normal(n) for _ in range(k - 1)]
            dense = t.to_dense()
            ref = dense
            for x in xs:
                ref = np.tensordot(ref, x, axes=([0], [0]))
            got = ttv_multi(t, xs)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_bit_identical_to_former_loop(self, rng):
        # the multi-vector kernel keeps the multiplication and accumulation
        # order of the former single-tuple loop
        from itertools import permutations

        def former(t, xs):
            k = t.order
            out = np.zeros(t.dim)
            edges, w = t.hyperedges, t.weights
            for a in range(k):
                rest = [c for c in range(k) if c != a]
                acc = np.zeros(t.nnz)
                for perm in permutations(range(k - 1)):
                    term = w.copy()
                    for s in range(k - 1):
                        term *= xs[s][edges[:, rest[perm[s]]]]
                    acc += term
                np.add.at(out, edges[:, a], acc)
            return out

        for _ in range(12):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k, 9))
            t = random_motif(k, n, rng)
            xs = [rng.standard_normal(n) for _ in range(k - 1)]
            assert np.array_equal(ttv_multi(t, xs), former(t, xs))


class TestDense:
    def test_to_dense_symmetry(self, rng):
        t = random_motif(3, 4, rng)
        dense = t.to_dense()
        assert np.array_equal(dense, dense.transpose(1, 0, 2))
        assert np.array_equal(dense, dense.transpose(2, 1, 0))

    def test_to_dense_budget(self, monkeypatch):
        monkeypatch.setattr(tensors, "DENSE_BUDGET", 10)
        t = MotifTensor(9, 10, [], [])
        with pytest.raises(BudgetExceededError):
            t.to_dense()

