import math

import numpy as np
import pytest

from tenalign import align as align_mod
from tenalign import kron
from tenalign.align import (
    AlignOptions,
    FactorPair,
    lambda_tame,
    lowrank_tame,
    rank_reveal,
    tame,
)
from tenalign.errors import (
    DegenerateIterateError,
    DegenerateProblemError,
    NumericalFailureError,
)
from tenalign.graphs import clique_tensor
from tenalign.synth import make_problem
from tenalign.tensors import MotifTensor


@pytest.fixture(scope="module")
def small_problem():
    problem = make_problem(35, "er", {"p": 0.05}, seed=5)
    return (
        clique_tensor(problem.graph_a, 3),
        clique_tensor(problem.graph_b, 3),
    )


class TestTame:
    def test_triangle_fixed_point(self, triangle):
        out = tame(triangle, triangle, opts=AlignOptions(alpha=1.0, beta=0.0))
        assert out.per_iteration[0].lam == pytest.approx(4.0 / 3.0)
        assert np.allclose(out.best_matrix(), 1.0 / 3.0)
        assert out.converged
        assert out.best_score == 1

    def test_unit_norm_iterates(self, small_problem):
        ta, tb = small_problem
        opts = AlignOptions(alpha=0.5, beta=1.0, max_iter=6, match_every=False, keep_iterates=True)
        out = tame(ta, tb, opts=opts)
        for X in out.iterates:
            assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_nonnegative_for_nonnegative_data(self, small_problem):
        ta, tb = small_problem
        out = tame(ta, tb, opts=AlignOptions(alpha=0.5, beta=1.0, max_iter=6, match_every=False))
        assert all(s.lam >= 0 for s in out.per_iteration)

    def test_empty_tensor_rejected(self, triangle):
        with pytest.raises(DegenerateProblemError):
            tame(MotifTensor(3, 3, [], []), triangle)

    def test_best_iterate_earliest_on_ties(self, triangle):
        out = tame(triangle, triangle, opts=AlignOptions(alpha=1.0, beta=0.0, max_iter=15))
        # the fixed point scores identically every iteration
        assert out.best_index == 1


class TestIterateEquality:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
    def test_dense_and_lowrank_agree(self, small_problem, alpha, beta):
        ta, tb = small_problem
        opts = AlignOptions(
            alpha=alpha, beta=beta, max_iter=8, tol=0.0,
            match_every=False, keep_iterates=True,
        )
        dense = tame(ta, tb, opts=opts)
        lowrank = lowrank_tame(ta, tb, opts=opts)
        assert len(dense.iterates) == len(lowrank.iterates)
        for x_dense, x_low in zip(dense.iterates, lowrank.iterates):
            rel = np.linalg.norm(x_dense - x_low) / np.linalg.norm(x_dense)
            assert rel <= 1e-8
        for s_dense, s_low in zip(dense.per_iteration, lowrank.per_iteration):
            assert abs(s_dense.lam - s_low.lam) <= 1e-8


class TestLowRank:
    def test_rank1_preserved_without_shift(self, small_problem):
        ta, tb = small_problem
        opts = AlignOptions(alpha=1.0, beta=0.0, max_iter=10, tol=0.0, match_every=False)
        out = lowrank_tame(ta, tb, opts=opts)
        for s in out.per_iteration:
            assert s.rank == 1
            assert s.sigma_ratio <= 1e-10

    def test_rank_growth_bound_tracked(self, small_problem):
        ta, tb = small_problem
        opts = AlignOptions(alpha=0.5, beta=10.0, max_iter=8, match_every=False)
        out = lowrank_tame(ta, tb, opts=opts)
        prev = 1
        for s in out.per_iteration:
            assert s.rank <= math.comb(prev + 1, 2) + prev + 1
            prev = s.rank

    def test_accumulation_path_matches_expansion(self, small_problem, monkeypatch):
        ta, tb = small_problem
        opts = AlignOptions(
            alpha=0.5, beta=1.0, max_iter=6, tol=0.0, match_every=False, keep_iterates=True
        )
        expand = lowrank_tame(ta, tb, opts=opts)
        monkeypatch.setattr(kron, "COLUMN_CAP", 1)
        accum = lowrank_tame(ta, tb, opts=opts)
        assert any(s.path == "accumulate" for s in accum.per_iteration)
        assert all(s.path == "expand" for s in expand.per_iteration)
        for x_e, x_a in zip(expand.iterates, accum.iterates):
            rel = np.linalg.norm(x_e - x_a) / np.linalg.norm(x_e)
            assert rel <= 1e-10

    def test_triangle_fixed_point_factors(self, triangle):
        out = lowrank_tame(triangle, triangle, opts=AlignOptions(alpha=1.0, beta=0.0))
        assert out.per_iteration[0].lam == pytest.approx(4.0 / 3.0)
        u = out.best_factors.u[:, 0]
        assert np.allclose(np.abs(u) / np.linalg.norm(u), 1.0 / math.sqrt(3))


    def test_rank_growth_guard_raises(self, triangle, monkeypatch):
        # a rank reveal returning more than C(r+k-2, k-1) + r + 1 columns
        # stops the iteration with an error that survives python -O
        def too_wide(U, V):
            cols = np.ones((U.shape[0], 4)), np.ones((V.shape[0], 4))
            return FactorPair(*cols), np.ones(4)

        monkeypatch.setattr(align_mod, "rank_reveal", too_wide)
        with pytest.raises(NumericalFailureError, match="rank 4 > bound 3"):
            lowrank_tame(triangle, triangle, opts=AlignOptions(alpha=1.0, beta=0.0))


    def test_rank_growth_guard_counts_distinct_columns(self, triangle, monkeypatch):
        # at r = 2, k = 3 the expansion has 4 columns but only 3 distinct
        # ones: the bound is 3 + 2 + 1 = 6, not 4 + 2 + 1 = 7
        widths = iter((2, 7))

        def widening(U, V):
            w = next(widths)
            return FactorPair(np.ones((U.shape[0], w)), np.ones((V.shape[0], w))), np.ones(w)

        monkeypatch.setattr(align_mod, "rank_reveal", widening)
        opts = AlignOptions(alpha=1.0, beta=0.0, tol=0.0, match_every=False)
        with pytest.raises(NumericalFailureError, match="rank 7 > bound 6"):
            lowrank_tame(triangle, triangle, opts=opts)


class TestRankReveal:
    def test_duplicate_columns_collapse(self, rng):
        a = rng.standard_normal(6)
        b = rng.standard_normal(5)
        c = rng.standard_normal(5)
        fp, sigma = rank_reveal(np.column_stack([a, a]), np.column_stack([b, c]))
        assert fp.rank == 1
        assert np.allclose(fp.dense(), np.outer(a, b + c), atol=1e-12)

    def test_no_truncation_above_tolerance(self, rng):
        q1, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        U = q1 * np.array([3.0, 2.0, 1.0])
        fp, _ = rank_reveal(U, q2)
        assert fp.rank == 3
        assert np.linalg.norm(fp.dense() - U @ q2.T) <= 1e-12

    def test_zero_columns_do_not_change_rank(self, rng):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        u2 = np.hstack([u, np.zeros((6, 2))])
        v2 = np.hstack([v, np.zeros((5, 2))])
        assert rank_reveal(u2, v2)[0].rank == rank_reveal(u, v)[0].rank

    def test_zero_input_degenerates(self):
        with pytest.raises(DegenerateIterateError):
            rank_reveal(np.zeros((4, 2)), np.zeros((3, 2)))


class TestLambdaTame:
    def test_triangle_fixed_point(self, triangle):
        out = lambda_tame(triangle, triangle, AlignOptions(alpha=1.0, beta=0.0, max_iter=5))
        assert np.allclose(out.best_factors.u, 1.0 / math.sqrt(3))
        assert np.allclose(out.best_factors.v, 1.0 / math.sqrt(3))
        assert out.per_iteration[0].lam == pytest.approx(4.0 / 3.0)

    def test_zero_iterations_gives_uniform_rank1(self, triangle):
        out = lambda_tame(triangle, triangle, AlignOptions(alpha=1.0, beta=0.0, max_iter=0))
        assert out.best_factors.rank == 1
        X = out.best_factors.dense()
        assert np.allclose(X, X[0, 0])
        assert out.best_score == 1  # tie-break matching still aligns the triangle

    def test_identical_graphs_identical_columns(self, small_problem):
        ta, _ = small_problem
        out = lambda_tame(ta, ta, AlignOptions(alpha=1.0, beta=1.0, max_iter=8))
        assert np.array_equal(out.best_factors.u, out.best_factors.v)

    def test_columns_are_unit(self, small_problem):
        ta, tb = small_problem
        out = lambda_tame(ta, tb, AlignOptions(alpha=0.5, beta=1.0, max_iter=6))
        norms = np.linalg.norm(out.best_factors.u, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_pure_power_sequence_when_unshifted(self, small_problem):
        from tenalign.tensors import ttv_same

        ta, tb = small_problem
        out = lambda_tame(ta, tb, AlignOptions(alpha=1.0, beta=0.0, max_iter=4))
        U = out.best_factors.u
        for ell in range(1, 5):
            step = ttv_same(ta, U[:, ell - 1])
            assert np.allclose(U[:, ell], step / np.linalg.norm(step), atol=1e-12)

    def test_empty_tensor_rejected(self, triangle):
        with pytest.raises(DegenerateProblemError):
            lambda_tame(triangle, MotifTensor(3, 4, [], []))

    def test_isolated_vertices_tolerated(self):
        t = MotifTensor(3, 4, [(0, 1, 2)], [1.0])  # vertex 3 isolated
        out = lambda_tame(t, t, AlignOptions(alpha=0.5, beta=0.0, max_iter=3))
        assert out.best_factors.u.shape == (4, 4)
        assert np.allclose(np.linalg.norm(out.best_factors.u, axis=0), 1.0)

    def test_zero_contraction_column_degenerates(self, monkeypatch):
        import tenalign.align as align_mod

        t = MotifTensor(3, 3, [(0, 1, 2)], [1.0])
        monkeypatch.setattr(
            align_mod, "ttv_same", lambda *a, **kw: np.zeros(3)
        )
        with pytest.raises(DegenerateIterateError, match="iteration 1"):
            lambda_tame(t, t, AlignOptions(alpha=1.0, beta=0.0, max_iter=2))


def test_factor_pair_norm_matches_dense(rng):
    fp = FactorPair(rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
    assert fp.frob_norm() == pytest.approx(np.linalg.norm(fp.dense()), rel=1e-12)


METHODS = {"tame": tame, "lowrank-tame": lowrank_tame, "lambda-tame": lambda_tame}


@pytest.mark.parametrize("mode", ["always", "final", "auto"])
@pytest.mark.parametrize("method", list(METHODS))
def test_match_every_modes(small_problem, method, mode):
    # auto scores every iterate of tame and lowrank-tame, and lambda-tame
    # only once, on its last iterate
    ta, tb = small_problem
    match_every = {"always": True, "final": False, "auto": None}[mode]
    every = method != "lambda-tame" if match_every is None else match_every
    opts = AlignOptions(alpha=0.5, beta=1.0, max_iter=6, match_every=match_every)
    out = METHODS[method](ta, tb, opts=opts)
    scores = [s.score for s in out.per_iteration]
    if every:
        assert None not in scores
        top = max(scores)
        assert out.best_score == top
        assert out.best_index == out.per_iteration[scores.index(top)].index
    else:
        assert scores[:-1] == [None] * (len(scores) - 1)
        assert scores[-1] is not None
        assert out.best_score == scores[-1]
        assert out.best_index == out.per_iteration[-1].index
    assert all(s.matching_seconds == 0.0 for s in out.per_iteration if s.score is None)
    if method == "lambda-tame":
        opts = AlignOptions(alpha=0.5, beta=1.0, max_iter=0, match_every=match_every)
        out = lambda_tame(ta, tb, opts=opts)
        assert [s.index for s in out.per_iteration] == [0]
        assert out.best_index == 0
        assert out.per_iteration[0].score is not None
        assert out.best_score == out.per_iteration[0].score
