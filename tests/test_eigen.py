import functools
import math

import numpy as np
import pytest

from conftest import dense_contract, random_motif
from tenalign.errors import BudgetExceededError
from tenalign.eigen import (
    EigenPair,
    SymMatvec,
    _as_sym,
    _power_batch,
    dominant_eigen,
    random_symmetric_tensor,
    spectrum_sample,
    symmetrize,
    verify_decoupling,
)
from tenalign.tensors import MotifTensor


def diagonal_tensor(dim, order=3):
    out = np.zeros((dim,) * order)
    for i in range(dim):
        out[(i,) * order] = 1.0
    return out


class TestSymMatvec:
    def test_matches_tensordot_oracle(self, rng):
        for dim, order in [(2, 3), (4, 3), (3, 4), (4, 5), (2, 5), (5, 2)]:
            T = random_symmetric_tensor(dim, order, rng)
            sym = SymMatvec(T)
            for _ in range(3):
                x = rng.standard_normal(dim)
                assert np.allclose(
                    sym.matvec(x), dense_contract(T, x, order - 1),
                    rtol=1e-12, atol=1e-12,
                )

    def test_exact_for_asymmetric_input(self, rng):
        # entries are summed per trailing multiset, never assumed equal
        T = rng.standard_normal((3, 3, 3))
        x = rng.standard_normal(3)
        ref = np.einsum("ijk,j,k->i", T, x, x)
        assert np.allclose(SymMatvec(T).matvec(x), ref)

    def test_jacobian_blocks(self, rng):
        T = random_symmetric_tensor(4, 4, rng)
        x = rng.standard_normal(4)
        block = SymMatvec(T).jacobian_blocks(x.reshape(-1, 1))[0]
        assert np.allclose(block, 3.0 * dense_contract(T, x, 2))

    def test_batched(self, rng):
        T = random_symmetric_tensor(3, 3, rng)
        sym = SymMatvec(T)
        X = rng.standard_normal((3, 5))
        batched = sym(X)
        for j in range(5):
            assert np.allclose(batched[:, j], sym.matvec(X[:, j]))


def sshopm(tensor, shift, x0, tol=1e-10, max_iter=500):
    """The former single-start shifted power iteration, the oracle of
    ``eigen._power_batch``: ``x <- normalize(T x^{k-1} + shift * x)`` until
    the Rayleigh estimate changes by less than ``tol``."""
    sym = _as_sym(tensor)
    x = np.asarray(x0, dtype=np.float64) / np.linalg.norm(x0)
    lam_prev = np.inf
    its = 0
    for its in range(1, max_iter + 1):
        c = sym.matvec(x)
        lam = float(np.dot(x, c))
        if abs(lam - lam_prev) < tol:
            return EigenPair(lam, x, float(np.linalg.norm(c - lam * x)), True, its)
        lam_prev = lam
        y = c + shift * x
        x = y / np.linalg.norm(y)
    c = sym.matvec(x)
    lam = float(np.dot(x, c))
    return EigenPair(lam, x, float(np.linalg.norm(c - lam * x)), False, its)


class TestSshopm:
    def test_diagonal_basis_start(self):
        pair = sshopm(diagonal_tensor(2), 0.0, np.array([1.0, 0.0]))
        assert pair.eigenvalue == pytest.approx(1.0)
        assert np.allclose(pair.vector, [1.0, 0.0])
        assert pair.converged

    def test_triangle_uniform_fixed_point(self, triangle):
        x0 = np.ones(3) / math.sqrt(3)
        pair = sshopm(triangle, 0.0, x0)
        assert pair.eigenvalue == pytest.approx(2.0 / math.sqrt(3))
        assert pair.residual <= 1e-12

    def test_zero_tensor_with_shift(self):
        pair = sshopm(np.zeros((2, 2, 2)), 1.0, np.array([3.0, 4.0]))
        assert pair.eigenvalue == pytest.approx(0.0)
        assert np.allclose(pair.vector, [0.6, 0.8])
        assert pair.converged

    def test_residual_matches_definition(self, rng):
        T = random_symmetric_tensor(4, 3, rng)
        pair = sshopm(T, 1.0, rng.standard_normal(4), tol=1e-12)
        c = dense_contract(T, pair.vector, 2)
        recomputed = np.linalg.norm(c - pair.eigenvalue * pair.vector)
        assert abs(recomputed - pair.residual) <= 1e-12

    def test_non_convergence_flagged(self, rng):
        T = random_symmetric_tensor(4, 3, rng)
        pair = sshopm(T, 0.0, rng.standard_normal(4), tol=0.0, max_iter=5)
        assert not pair.converged

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("shift", [0.0, 1.0, -1.0])
    def test_power_batch_matches_single_start_loop(self, rng, order, shift):
        # Each column of the batched iteration must follow its own start's
        # single-start run.  The batch sums in another order, and a run that
        # wanders amplifies that roundoff until two correct runs part, so the
        # tensors keep every run convergent: unshifted, an orthogonally
        # decomposable tensor; shifted by +-1, a random one scaled so that
        # (k-1) ||T||_F < |shift|, which makes the iteration monotone.
        for dim in (2, 3, 4):
            if shift == 0.0:
                basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0].T
                T = sum(
                    w * functools.reduce(np.multiply.outer, [v] * order)
                    for w, v in zip(rng.uniform(0.5, 1.5, dim), basis)
                )
            else:
                T = random_symmetric_tensor(dim, order, rng)
                T *= 0.5 / ((order - 1) * np.linalg.norm(T))
            X0 = rng.standard_normal((dim, 12))
            X0 /= np.linalg.norm(X0, axis=0)
            lam, xs, conv = _power_batch(SymMatvec(T), X0, shift, 1e-10, 300)
            for j in range(X0.shape[1]):
                ref = sshopm(T, shift, X0[:, j], tol=1e-10, max_iter=300)
                assert conv[j] == ref.converged
                if ref.converged:
                    assert abs(lam[j] - ref.eigenvalue) <= 1e-12
                    assert np.allclose(xs[:, j], ref.vector, rtol=0, atol=1e-12)


class TestDominant:
    def test_diagonal_dim2(self):
        pair = dominant_eigen(diagonal_tensor(2), restarts=300, seed=0)
        assert abs(pair.eigenvalue) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_dim4(self):
        pair = dominant_eigen(diagonal_tensor(4), restarts=600, seed=1)
        assert abs(pair.eigenvalue) == pytest.approx(1.0, abs=1e-9)

    def test_single_triangle(self, triangle):
        pair = dominant_eigen(triangle, restarts=200, seed=2)
        assert pair.eigenvalue == pytest.approx(2.0 / math.sqrt(3), abs=1e-9)

    def test_vector_is_unit(self, rng):
        pair = dominant_eigen(random_symmetric_tensor(3, 4, rng), restarts=200, seed=3)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_tensor_gives_nonnegative_value(self, rng):
        for _ in range(5):
            t = random_motif(3, int(rng.integers(3, 6)), rng)
            pair = dominant_eigen(t, restarts=150, seed=int(rng.integers(1 << 30)))
            assert pair.eigenvalue >= 0

    def test_odd_order_sign_symmetry(self, rng):
        T = random_symmetric_tensor(3, 3, rng)
        pair = dominant_eigen(T, restarts=200, seed=4)
        c = dense_contract(T, -pair.vector, 2)
        assert np.allclose(c, -pair.eigenvalue * -pair.vector, atol=1e-9)

    def test_deterministic(self, rng):
        T = random_symmetric_tensor(3, 4, rng)
        a = dominant_eigen(T, restarts=200, seed=11)
        b = dominant_eigen(T, restarts=200, seed=11)
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.vector, b.vector)

    def test_over_budget_motif_tensor_raises(self):
        # 200^3 entries exceed DENSE_BUDGET: every routine refuses to densify
        big = MotifTensor.empty(3, 200)
        with pytest.raises(BudgetExceededError):
            dominant_eigen(big, restarts=10)
        with pytest.raises(BudgetExceededError):
            spectrum_sample(big, restarts=10)


class TestSpectrum:
    def test_diagonal_dim2_values(self):
        found = spectrum_sample(diagonal_tensor(2), restarts=2000, seed=0)
        values = [p.eigenvalue for p in found]
        assert any(abs(v - 1.0) <= 1e-8 for v in values)
        assert any(abs(v - 1.0 / math.sqrt(2)) <= 1e-8 for v in values)

    def test_diagonal_dim4_values_and_vector(self):
        found = spectrum_sample(diagonal_tensor(4), restarts=5000, seed=1)
        values = [p.eigenvalue for p in found]
        for target in (1.0, 1.0 / math.sqrt(2), 0.5, 1.0 / math.sqrt(3)):
            assert any(abs(v - target) <= 1e-8 for v in values)
        third = next(
            p for p in found if abs(p.eigenvalue - 1.0 / math.sqrt(3)) <= 1e-8
        )
        pattern = np.sort(np.abs(third.vector))
        expected = np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3)
        assert np.allclose(pattern, np.sort(expected), atol=1e-8)

    def test_zero_tensor(self):
        found = spectrum_sample(np.zeros((3, 3, 3)), restarts=200, seed=2)
        assert [p.eigenvalue for p in found] == [0.0]

    def test_sorted_by_magnitude(self, rng):
        found = spectrum_sample(random_symmetric_tensor(3, 3, rng), restarts=500, seed=3)
        mags = [abs(p.eigenvalue) for p in found]
        assert mags == sorted(mags, reverse=True)

    def test_values_are_distinct(self, rng):
        found = spectrum_sample(random_symmetric_tensor(4, 3, rng), restarts=800, seed=4)
        values = [p.eigenvalue for p in found]
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert abs(a - b) > 1e-6


class TestDecoupling:
    def test_diagonal_pair(self):
        d2 = diagonal_tensor(2)
        report = verify_decoupling(d2, d2, restarts=1000, seed=0)
        assert report.eig_gap <= 1e-9
        assert report.vec_gap <= 1e-9

    def test_triangle_pair(self, triangle):
        report = verify_decoupling(triangle, triangle, restarts=1500, seed=1)
        assert report.lambda_kron == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert report.vec_gap <= 1e-6

    def test_budget(self):
        big = np.zeros((40,) * 3)
        with pytest.raises(BudgetExceededError):
            verify_decoupling(big, big, restarts=10, seed=0)

    def test_random_trials(self, rng):
        for _ in range(4):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            k = int(rng.integers(3, 5))
            report = verify_decoupling(
                random_symmetric_tensor(m, k, rng),
                random_symmetric_tensor(n, k, rng),
                restarts=800,
                seed=int(rng.integers(1 << 30)),
            )
            assert report.eig_gap <= 1e-8
            assert report.vec_gap <= 1e-8


def test_symmetrize_fixes_random_tensor(rng):
    T = rng.standard_normal((3, 3, 3))
    S = symmetrize(T)
    assert np.allclose(S, S.transpose(1, 0, 2))
    assert np.allclose(S, symmetrize(S))
