import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_contract, random_motif
from tenalign import eigen
from tenalign.errors import BudgetExceededError
from tenalign.eigen import (
    EigenPair,
    EigenStats,
    SymMatvec,
    _MonomialPlan,
    _canonical,
    _distinct_candidates,
    _monomial_tables,
    _newton,
    _polish,
    _power_batch,
    _tail_buckets,
    dominant_eigen,
    random_symmetric_tensor,
    spectrum_sample,
    symmetrize,
    verify_decoupling,
)


def matvec(sym, x):
    """One contraction ``T x^{k-1}`` through the batched operator."""
    return sym(x.reshape(-1, 1))[:, 0]


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
                    matvec(sym, x), dense_contract(T, x, order - 1),
                    rtol=1e-12, atol=1e-12,
                )

    def test_exact_for_asymmetric_input(self, rng):
        # entries are summed per trailing multiset, never assumed equal
        T = rng.standard_normal((3, 3, 3))
        x = rng.standard_normal(3)
        ref = np.einsum("ijk,j,k->i", T, x, x)
        assert np.allclose(matvec(SymMatvec(T), x), ref)

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
            assert np.allclose(batched[:, j], matvec(sym, X[:, j]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tensor_rejected(self, bad):
        # a non-finite entry would poison every start; the operator and every
        # solver built on it refuse the tensor instead of reporting a pair
        T = diagonal_tensor(2)
        T[0, 1, 1] = bad
        solvers = (
            SymMatvec,
            lambda t: dominant_eigen(t, restarts=10),
            lambda t: spectrum_sample(t, restarts=10),
            lambda t: verify_decoupling(t, diagonal_tensor(2), restarts=10),
            lambda t: verify_decoupling(diagonal_tensor(2), t, restarts=10),
        )
        for solve in solvers:
            with pytest.raises(ValueError, match="finite"):
                solve(T)


def former_monomials(plan, X):
    """The former allocating evaluation, the oracle of ``_MonomialPlan.eval``."""
    if plan.degree < 1:
        return np.ones((1, X.shape[1]))
    vals = X
    for parent, coord in zip(plan.parents, plan.coords):
        vals = vals[parent] * X[coord]
    return vals


class TestMonomialPlan:
    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    @pytest.mark.parametrize("degree", range(5))
    def test_bit_identical_to_former_expression(self, rng, n, degree):
        # one plan at falling then rising widths reuses, then grows, its
        # workspace, and a repeated width reuses its views; every result must
        # still equal the oracle bit for bit
        plan = _MonomialPlan(n, degree)
        works = []
        for width in (166, 40, 40, 1, 209):
            X = rng.standard_normal((n, width))
            X[0, ::5] = -0.0
            got = plan.eval(X)
            want = former_monomials(plan, X)
            assert got.shape == want.shape == (plan.count, width)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            if plan.parents:
                assert np.shares_memory(got, plan._work)
            works.append(plan._work)
        if plan.parents:
            assert works[0] is works[1] is works[2] is works[3] is not works[4]
            assert works[4].shape == (3, plan.count * 209)

    @pytest.mark.parametrize("order", [3, 5])
    def test_results_do_not_alias_the_workspace(self, rng, order):
        sym = SymMatvec(random_symmetric_tensor(3, order, rng))
        X, Y = rng.standard_normal((2, 3, 7))
        c, jac = sym(X), sym.jacobian_blocks(X)
        c0, jac0 = c.copy(), jac.copy()
        sym(Y)
        sym.jacobian_blocks(Y)
        assert np.array_equal(c, c0)
        assert np.array_equal(jac, jac0)


def sshopm(tensor, shift, x0, tol=1e-10, max_iter=500):
    """The former single-start shifted power iteration, the oracle of
    ``eigen._power_batch``: ``x <- normalize(T x^{k-1} + shift * x)`` until
    the Rayleigh estimate changes by less than ``tol``."""
    sym = SymMatvec(tensor)
    x = np.asarray(x0, dtype=np.float64) / np.linalg.norm(x0)
    lam_prev = np.inf
    for _ in range(max_iter):
        c = matvec(sym, x)
        lam = float(np.dot(x, c))
        if abs(lam - lam_prev) < tol:
            return EigenPair(lam, x, float(np.linalg.norm(c - lam * x)), True)
        lam_prev = lam
        y = c + shift * x
        x = y / np.linalg.norm(y)
    c = matvec(sym, x)
    lam = float(np.dot(x, c))
    return EigenPair(lam, x, float(np.linalg.norm(c - lam * x)), False)


class TestSshopm:
    def test_diagonal_basis_start(self):
        pair = sshopm(diagonal_tensor(2), 0.0, np.array([1.0, 0.0]))
        assert pair.eigenvalue == pytest.approx(1.0)
        assert np.allclose(pair.vector, [1.0, 0.0])
        assert pair.converged

    def test_triangle_uniform_fixed_point(self, triangle):
        x0 = np.ones(3) / math.sqrt(3)
        pair = sshopm(triangle.to_dense(), 0.0, x0)
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
        # One batch mixes six (sign, shift) configs, signs +-1 and shifts
        # {0, +-1}, and each column must follow its own start's single-start
        # run on sign * T.  The case's ``shift`` leads
        # the cycle of configs, so each config meets other columns.  The
        # batch sums in another order, and a run that wanders amplifies that
        # roundoff until two correct runs part, so the tensor keeps every run
        # convergent: it is orthogonally decomposable, which the unshifted
        # runs need, and scaled so that (k-1) ||T||_F < 1, which makes the
        # shifted runs monotone.  At odd order a shift of -1 flips x every
        # step and with it the sign of lambda, so those runs never stop; they
        # are compared by their last iterate.
        configs = [(s, b) for b in (0.0, 1.0, -1.0) for s in (1.0, -1.0)]
        lead = [b for _, b in configs].index(shift)
        configs = configs[lead:] + configs[:lead]
        for dim in (2, 3, 4):
            basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0].T
            T = sum(
                w * functools.reduce(np.multiply.outer, [v] * order)
                for w, v in zip(rng.uniform(0.5, 1.5, dim), basis)
            )
            T *= 0.5 / ((order - 1) * np.linalg.norm(T))
            X0 = rng.standard_normal((dim, 18))
            X0 /= np.linalg.norm(X0, axis=0)
            sign, shifts = np.array([configs[j % 6] for j in range(18)]).T
            lam, xs, conv, _ = _power_batch(SymMatvec(T), X0, sign, shifts, 1e-10, 300)
            for j in range(X0.shape[1]):
                ref = sshopm(sign[j] * T, shifts[j], X0[:, j], tol=1e-10, max_iter=300)
                assert conv[j] == ref.converged
                assert np.allclose(xs[:, j], ref.vector, rtol=0, atol=1e-12)
                if ref.converged:
                    assert abs(lam[j] - ref.eigenvalue) <= 1e-12


def newton_refine(sym: SymMatvec, x, lam, tol=1e-13, max_iter=30):
    """The former serial Newton polish of one pooled candidate, the oracle of
    ``eigen._polish``."""
    n = sym.dim
    x = x.astype(np.float64).copy()
    lam = float(lam)
    for _ in range(max_iter):
        c = matvec(sym, x)
        f = np.concatenate([c - lam * x, [(np.dot(x, x) - 1.0) / 2.0]])
        scale = max(1.0, abs(lam))
        if np.linalg.norm(f) <= tol * scale:
            break
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = sym.jacobian_blocks(x.reshape(-1, 1))[0]
        jac[:n, :n] -= lam * np.eye(n)
        jac[:n, n] = -x
        jac[n, :n] = x
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        x = x + step[:n]
        lam = lam + step[n]
    norm = np.linalg.norm(x)
    if norm == 0 or not np.isfinite(norm):
        return None
    x = x / norm
    c = matvec(sym, x)
    lam = float(np.dot(x, c))
    residual = float(np.linalg.norm(c - lam * x))
    return lam, x, residual


def assert_polish_matches_serial(sym, pool, tol):
    polished = _polish(sym, pool, tol)
    assert len(polished) == len(pool)
    for pair, (lam0, x0) in zip(polished, pool):
        lam, x, residual = newton_refine(sym, x0, lam0)
        lam, x = _canonical(lam, x, sym.order)
        assert abs(pair.eigenvalue - lam) <= 1e-12 * max(1.0, abs(lam)), (pair.eigenvalue, lam)
        assert min(np.abs(pair.vector - x).max(), np.abs(pair.vector + x).max()) <= 1e-12
        assert pair.converged == (residual <= 10 * tol)


class TestPolish:
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_batch_matches_serial_polish(self, rng, monkeypatch, order):
        # the pools are the deduplicated power and Newton-sweep candidates of
        # dominant_eigen.  The unconverged power iterates it adds to them are
        # left out: from some of those Newton takes a step longer than 5,
        # where the batch stops the column and the serial polish went on
        distinct = eigen._distinct_candidates
        pools = []

        def spy(candidates, limit):
            pools.append(distinct(candidates, limit))
            return pools[-1]

        monkeypatch.setattr(eigen, "_distinct_candidates", spy)
        for dim in range(2, 10):
            T = random_symmetric_tensor(dim, order, rng)
            dominant_eigen(T, restarts=120, seed=int(rng.integers(1 << 30)))
            assert_polish_matches_serial(SymMatvec(T), pools[-1], 1e-10)
        assert len(pools) == 8

    def test_start_that_does_not_converge(self):
        # x1 x2^5 + |x|^6 has the degenerate eigenpair (e1, 1), to which Newton
        # converges only linearly: from 0.3 radians away it is still short of
        # 1e-13 after 30 steps.  The start near the regular pair at
        # tan^2 t = 5 converges in the same batch.
        def monomial(p):
            T = np.zeros((2,) * 6)
            T[(0,) * p + (1,) * (6 - p)] = 1.0
            return symmetrize(T)

        T = monomial(1) + sum(math.comb(3, j) * monomial(2 * j) for j in range(4))
        sym = SymMatvec(T)
        X0 = np.array([[math.cos(t), math.sin(t)] for t in (0.3, 1.2)]).T
        lam0 = np.einsum("ij,ij->j", X0, sym(X0))
        assert list(_newton(sym, X0, lam0, 1e-13, 30)[3]) == [1]
        assert_polish_matches_serial(sym, list(zip(lam0, X0.T)), 1e-10)


POOL_LAM_WIDTH, POOL_VEC_WIDTH = eigen.POOL_LAM_WIDTH, eigen.POOL_VEC_WIDTH


# The three loops below are the former solver loops, kept verbatim as the
# oracles of their rewrites in ``eigen``, which must give the same bits.


def former_power_batch(sym: SymMatvec, X0, sign, shift, tol, max_iter):
    """Masked batched power iteration, column ``j`` on ``sign[j] * T`` with
    shift ``shift[j]``; returns per-column (lam of ``sign[j] * T``, x,
    converged).

    Only the active columns are kept, with their sign, shift and previous
    Rayleigh estimate; they are compacted on the steps where some column
    stops, so the common step gathers and scatters nothing.
    """
    r = X0.shape[1]
    out_x = X0.copy()
    out_lam = np.zeros(r)
    converged = np.zeros(r, dtype=bool)
    idx = np.arange(r)
    X = np.ascontiguousarray(X0)
    lam = np.full(r, np.inf)
    for _ in range(max_iter):
        c = sym(X) * sign
        lam_new = np.einsum("ij,ij->j", X, c)
        newly = np.abs(lam_new - lam) < tol
        y = c + shift * X
        norms = np.linalg.norm(y, axis=0)
        stop = newly | (norms == 0)
        lam = lam_new
        if stop.any():
            done = idx[stop]
            out_lam[done] = lam[stop]
            out_x[:, done] = X[:, stop]
            converged[idx[newly]] = True
            keep = ~stop
            if not keep.any():
                return out_lam, out_x, converged
            idx, y, norms = idx[keep], y[:, keep], norms[keep]
            sign, shift, lam = sign[keep], shift[keep], lam[keep]
        X = y / norms
    out_lam[idx] = lam
    out_x[:, idx] = X
    return out_lam, out_x, converged


def former_newton(sym: SymMatvec, X: np.ndarray, lam: np.ndarray, accept: float, max_steps: int):
    """Batched Newton corrector on the eigenpair equations ``T x^{k-1} = lam
    x``, ``x.x = 1``, from the columns of ``X`` with estimates ``lam``.

    A column stops when its residual is at most ``accept * max(1, |lam|)``
    (it converged), when its step is not finite or longer than 5, or after
    ``max_steps`` steps; a singular batch is solved by least squares.
    Returns the final ``X`` and ``lam``, each column's residual at its last
    check, and the converged columns in the order they converged.  Newton
    converges to any regular stationary pair near which a start lands,
    including saddle-type pairs that no shifted power iteration attracts to.
    """
    n = sym.dim
    X = X.copy()
    lam = np.array(lam, dtype=np.float64)
    res = np.full(X.shape[1], np.inf)
    idx = np.arange(X.shape[1])
    done = [idx[:0]]
    for _ in range(max_steps):
        if idx.size == 0:
            break
        xa, la = X[:, idx], lam[idx]
        f_eig = sym(xa) - la * xa
        f_norm = (np.einsum("ij,ij->j", xa, xa) - 1.0) / 2.0
        res[idx] = np.sqrt(np.einsum("ij,ij->j", f_eig, f_eig) + f_norm**2)
        conv = res[idx] <= accept * np.maximum(1.0, np.abs(la))
        done.append(idx[conv])
        idx = idx[~conv]
        if idx.size == 0:
            break
        xa, la = X[:, idx], lam[idx]
        f_eig, f_norm = f_eig[:, ~conv], f_norm[~conv]
        r = idx.size
        jac = np.zeros((r, n + 1, n + 1))
        jac[:, :n, :n] = sym.jacobian_blocks(xa)
        jac[:, :n, :n] -= la[:, None, None] * np.eye(n)
        jac[:, :n, n] = -xa.T
        jac[:, n, :n] = xa.T
        rhs = np.concatenate([-f_eig, -f_norm[None, :]], axis=0).T
        try:
            steps = np.linalg.solve(jac, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps = np.empty((r, n + 1))
            for j in range(r):
                steps[j] = np.linalg.lstsq(jac[j], rhs[j], rcond=None)[0]
        diverged = ~np.isfinite(steps).all(axis=1)
        diverged |= np.linalg.norm(steps[:, :n], axis=1) > 5.0
        steps[diverged] = 0.0
        X[:, idx] = xa + steps[:, :n].T
        lam[idx] = la + steps[:, n]
        idx = idx[~diverged]
    return X, lam, res, np.concatenate(done)


def former_distinct_candidates(candidates, limit):
    """Prune near-duplicate (eigenvalue, vector) pairs, largest |value| first.

    Degenerate dominant eigenvalues can carry several distinct eigenvectors,
    so duplicates are detected on the pair, not the eigenvalue alone.
    """
    pool = []
    for lam, x in sorted(candidates, key=lambda c: -abs(c[0])):
        dup = False
        for lam2, x2 in pool:
            if abs(lam - lam2) < POOL_LAM_WIDTH and min(
                np.linalg.norm(x - x2), np.linalg.norm(x + x2)
            ) < POOL_VEC_WIDTH:
                dup = True
                break
        if not dup:
            pool.append((lam, x))
            if len(pool) >= limit:
                break
    return pool


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.float64 and b.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    return a.shape == b.shape and np.array_equal(a, b)


def low_rank_symmetric(rng, dim, order):
    """A symmetric tensor as a short sum of signed rank-1 terms, cheap at
    every order (a full symmetrization costs ``order!`` passes)."""
    T = np.zeros((dim,) * order)
    for _ in range(3):
        v = rng.standard_normal(dim)
        T += rng.standard_normal() * functools.reduce(np.multiply.outer, [v] * order)
    return T


@st.composite
def solver_cases(draw):
    """A tensor of dimension 1-5 and order 2-6 (zero in some cases) and a
    batch of starts, some of whose entries are ``0.0`` or ``-0.0``."""
    dim, order = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = np.zeros((dim,) * order) if draw(st.booleans()) else low_rank_symmetric(rng, dim, order)
    width = draw(st.integers(1, 40))
    X0 = rng.standard_normal((dim, width))
    X0 /= np.linalg.norm(X0, axis=0)
    zeros = rng.random(X0.shape) < draw(st.sampled_from([0.0, 0.25, 0.6]))
    X0[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return T, X0, rng


class TestFormerLoops:
    """The rewritten loops give the former loops' results bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=solver_cases(), signs=st.sampled_from(["plus", "minus", "mixed"]),
           tol=st.sampled_from([1e-10, 1e-6, 0.0]), max_iter=st.integers(1, 60))
    def test_power_batch(self, case, signs, tol, max_iter):
        T, X0, rng = case
        width = X0.shape[1]
        sign = {"plus": np.ones(width), "minus": -np.ones(width),
                "mixed": rng.choice([1.0, -1.0], width)}[signs]
        shift = rng.choice([0.0, 0.5, 1.0, 3.0], width)
        sym = SymMatvec(T)
        got = _power_batch(sym, X0, sign, shift, tol, max_iter)
        want = former_power_batch(sym, X0, sign, shift, tol, max_iter)
        for a, b in zip(got, want):
            assert same_bits(a, b)

    @settings(max_examples=150, deadline=None)
    @given(case=solver_cases(), accept=st.sampled_from([1e-13, 1e-10, 1e-6]),
           max_steps=st.integers(0, 30))
    def test_newton(self, case, accept, max_steps):
        T, X0, rng = case
        sym = SymMatvec(T)
        X0 = X0 * rng.choice([0.5, 1.0, 2.0], X0.shape[1])  # starts off the sphere
        lam0 = rng.standard_normal(X0.shape[1])
        # a wild step may overflow on both sides alike
        with np.errstate(over="ignore", invalid="ignore"):
            got = _newton(sym, X0, lam0, accept, max_steps)
            want = former_newton(sym, X0, lam0, accept, max_steps)
        for a, b in zip(got, want):
            assert same_bits(a, b)

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_product_dimension(self, rng, order):
        # dimension 9, the largest product of the benchmark grid, is past the
        # 8 elements from which numpy sums a contiguous run in eight partial
        # sums, so a reduction that changed layout would change bits here
        sym = SymMatvec(low_rank_symmetric(rng, 9, order))
        X0 = rng.standard_normal((9, 40))
        X0 /= np.linalg.norm(X0, axis=0)
        sign = np.where(np.arange(40) % 4 < 2, 1.0, -1.0)
        shift = np.where(np.arange(40) % 2, 4.0, 2.0)
        got = _power_batch(sym, X0, sign, shift, 1e-10, 200)
        for a, b in zip(got, former_power_batch(sym, X0, sign, shift, 1e-10, 200)):
            assert same_bits(a, b)
        lam0 = np.einsum("ij,ij->j", X0, sym(X0))
        got = _newton(sym, X0, lam0, 1e-12, 60)
        for a, b in zip(got, former_newton(sym, X0, lam0, 1e-12, 60)):
            assert same_bits(a, b)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), bases=st.integers(1, 4),
           count=st.integers(0, 60), limit=st.integers(1, 30))
    def test_distinct_candidates(self, seed, dim, bases, count, limit):
        # near-copies of a few pairs, up to sign, at distances on both sides
        # of the pool widths; some bases share an eigenvalue
        rng = np.random.default_rng(seed)
        base_x = rng.standard_normal((bases, dim))
        base_x /= np.linalg.norm(base_x, axis=1)[:, None]
        base_lam = rng.choice([1.0, -1.0, 2.5], bases) + rng.choice([0.0, 1e-3], bases)
        candidates = []
        for _ in range(count):
            b = int(rng.integers(bases))
            vec_off = rng.choice([0.0, 1e-6, 0.5e-4, 1e-4, 2e-4, 1e-2])
            lam_off = rng.choice([0.0, 1e-8, 0.5e-6, 1e-6, 2e-6])
            x = rng.choice([1.0, -1.0]) * base_x[b] + vec_off * rng.standard_normal(dim)
            candidates.append((float(base_lam[b] + lam_off * rng.standard_normal()), x))
        got = _distinct_candidates(candidates, limit)
        want = former_distinct_candidates(candidates, limit)
        assert len(got) == len(want)
        for (lam, x), (lam2, x2) in zip(got, want):
            assert lam == lam2 and x is x2


class TestShapeTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @pytest.mark.parametrize("degree", range(6))
    def test_cached_tables_are_read_only_and_fresh(self, n, degree):
        parents, coords, count = _monomial_tables(n, degree)
        fresh = _monomial_tables.__wrapped__(n, degree)
        assert _monomial_tables(n, degree)[0] is parents
        assert count == fresh[2] == math.comb(n + degree - 1, degree)
        assert len(parents) == len(coords) == len(fresh[0]) == max(degree - 1, 0)
        for got, want in zip(parents + coords + _tail_buckets(n, degree),
                             fresh[0] + fresh[1] + _tail_buckets.__wrapped__(n, degree)):
            assert not got.flags.writeable
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1
        # the former argsort-plus-searchsorted grouping, as an oracle; the grid
        # holds every (n, degree) of eigcheck's dims {2, 3} x orders {3, 4, 5}
        bucket = np.zeros(1, dtype=np.int64)
        if degree >= 1:
            tails = np.stack(np.unravel_index(np.arange(n**degree), (n,) * degree), axis=1)
            tails.sort(axis=1)
            bucket = np.unique(tails, axis=0, return_inverse=True)[1].reshape(-1)
        order = np.argsort(bucket, kind="stable")
        starts = np.searchsorted(bucket[order], np.arange(count))
        for got, want in zip(_tail_buckets(n, degree), (order, starts)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_operators_share_tables_not_workspaces(self, rng):
        a = SymMatvec(random_symmetric_tensor(3, 4, rng))
        b = SymMatvec(random_symmetric_tensor(3, 4, rng))
        X = rng.standard_normal((3, 5))
        a(X), b(X)
        assert a._plan.parents is b._plan.parents
        assert a._plan._work is not b._plan._work


class TestEigenStats:
    @pytest.mark.parametrize("order", [3, 4])
    def test_counters(self, rng, monkeypatch, order):
        # every power step contracts each active column once, so the steps
        # of all configs add up to the columns the operator saw in the batch
        seen = []
        batch = eigen._power_batch

        def spy(sym, *args):
            return batch(lambda X: seen.append(X.shape[1]) or sym(X), *args)

        monkeypatch.setattr(eigen, "_power_batch", spy)
        stats = EigenStats()
        dominant_eigen(random_symmetric_tensor(3, order, rng), restarts=400, seed=3, stats=stats)
        configs = 2 if order % 2 else 4
        assert len(stats.power_steps) == len(stats.power_converged) == configs
        assert sum(stats.power_steps) == sum(seen)
        per = 300 // configs  # the 300 power starts go round the configs
        for steps, converged in zip(stats.power_steps, stats.power_converged):
            assert 0 < converged <= per and per <= steps <= per * eigen.POWER_MAX_ITER
        assert 0 < stats.newton_converged <= 100
        assert 0 < stats.pool <= 28

    def test_report_carries_three_solves(self):
        d2 = diagonal_tensor(2)
        report = verify_decoupling(d2, d2, restarts=40, seed=0)
        assert sorted(report.solver) == ["a", "b", "kron"]
        assert all(isinstance(s, EigenStats) for s in report.solver.values())
        for stats in report.solver.values():
            assert stats.newton_converged > 0 and stats.pool > 0
            assert len(stats.power_steps) == 2 and sum(stats.power_converged) > 0


class TestDominant:
    def test_diagonal_dim2(self):
        pair = dominant_eigen(diagonal_tensor(2), restarts=300, seed=0)
        assert abs(pair.eigenvalue) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_dim4(self):
        pair = dominant_eigen(diagonal_tensor(4), restarts=600, seed=1)
        assert abs(pair.eigenvalue) == pytest.approx(1.0, abs=1e-9)

    def test_single_triangle(self, triangle):
        pair = dominant_eigen(triangle.to_dense(), restarts=200, seed=2)
        assert pair.eigenvalue == pytest.approx(2.0 / math.sqrt(3), abs=1e-9)

    def test_vector_is_unit(self, rng):
        pair = dominant_eigen(random_symmetric_tensor(3, 4, rng), restarts=200, seed=3)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_tensor_gives_nonnegative_value(self, rng):
        for _ in range(5):
            t = random_motif(3, int(rng.integers(3, 6)), rng).to_dense()
            pair = dominant_eigen(t, restarts=150, seed=int(rng.integers(1 << 30)))
            assert pair.eigenvalue >= 0

    def test_odd_order_sign_symmetry(self, rng):
        T = random_symmetric_tensor(3, 3, rng)
        pair = dominant_eigen(T, restarts=200, seed=4)
        c = dense_contract(T, -pair.vector, 2)
        assert np.allclose(c, -pair.eigenvalue * -pair.vector, atol=1e-9)

    @pytest.mark.parametrize("order", [3, 4])
    def test_blocks_match_one_block(self, rng, monkeypatch, order):
        # a block of 7 columns splits the power batch across several blocks,
        # out of step with its 2 or 4 configs
        T = random_symmetric_tensor(3, order, rng)
        one = dominant_eigen(T, restarts=300, seed=5)
        monkeypatch.setattr(eigen, "POWER_BLOCK", 7 * SymMatvec(T)._plan.count)
        many = dominant_eigen(T, restarts=300, seed=5)
        assert abs(many.eigenvalue - one.eigenvalue) <= 1e-12
        assert np.allclose(many.vector, one.vector, rtol=0, atol=1e-12)
        assert many.converged and one.converged

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, 1e-20, 0.99 * eigen.TOL_FLOOR])
    def test_rejects_tol_that_cannot_stop_a_run(self, tol):
        # at tol 0 no power run converges and every pair is reported
        # unconverged; below TOL_FLOOR the power runs stop on roundoff and
        # wrong pairs are flagged converged
        with pytest.raises(ValueError, match="tol"):
            dominant_eigen(diagonal_tensor(2), restarts=10, tol=tol)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4])
    def test_few_restarts(self, order, restarts):
        # below 4 restarts the Newton sweep gets no start, so the power runs
        # shift by BASE_SHIFT alone; at 4 it gets one
        for seed in range(5):
            pair = dominant_eigen(diagonal_tensor(2, order), restarts=restarts, seed=seed)
            assert abs(pair.eigenvalue) == pytest.approx(1.0, abs=1e-9)
            assert pair.converged

    def test_accepts_tol_floor(self):
        pair = dominant_eigen(diagonal_tensor(2), restarts=30, tol=eigen.TOL_FLOOR)
        assert pair.eigenvalue == pytest.approx(1.0)
        assert pair.converged

    def test_deterministic(self, rng):
        T = random_symmetric_tensor(3, 4, rng)
        a = dominant_eigen(T, restarts=200, seed=11)
        b = dominant_eigen(T, restarts=200, seed=11)
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.vector, b.vector)


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
        dense = triangle.to_dense()
        report = verify_decoupling(dense, dense, restarts=1500, seed=1)
        assert report.lambda_kron == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert report.vec_gap <= 1e-6

    def test_budget(self, monkeypatch):
        # the budget is checked before any eigenpair is computed
        def solve(*args, **kwargs):
            raise AssertionError("dominant_eigen ran on an over-budget pair")

        monkeypatch.setattr(eigen, "dominant_eigen", solve)
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
