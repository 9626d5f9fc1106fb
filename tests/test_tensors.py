import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_contract, random_motif
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
    return _kernels.ttv_tuples(tensor.hyperedges, tensor.weights, cols, tensor.dim, digits)[:, 0]


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

    def test_incidence(self, rng):
        t = random_motif(3, 6, rng)
        indptr, ids = t.incidence
        for v in range(6):
            expected = sorted(
                e for e in range(t.nnz) if v in t.hyperedges[e].tolist()
            )
            assert ids[indptr[v]:indptr[v + 1]].tolist() == expected


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

