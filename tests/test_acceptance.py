"""Acceptance suite: one test per numbered criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Several criteria share generated problem sets through
module-scoped fixtures; the end-to-end sweep feeds both the quality check
and the refinement-monotonicity audit.
"""

import math
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import dense_contract, random_motif
from tenalign.align import AlignOptions, lambda_tame, lowrank_tame, tame
from tenalign.cli import main
from tenalign.eigen import (
    random_symmetric_tensor,
    spectrum_sample,
    verify_decoupling,
)
from tenalign.graphs import clique_tensor, save_edge_list
from tenalign.kron import KronPair, explicit_kron, lowrank_kron_ttv, unvec, vec
from tenalign.matching import (
    accuracy,
    edges_aligned,
    max_weight_matching,
    motifs_aligned,
)
from tenalign.records import (
    load_records,
    records_equal_modulo_timing,
    save_truth,
)
from tenalign.refine import RefineOptions, local_search
from tenalign.synth import make_problem
from tenalign.tensors import ttv_same


def _report(number, name, detail):
    print(f"\n[criterion {number:02d}] PASS {name}: {detail}")


@pytest.fixture(scope="module")
def equality_problems():
    """Ten small geometric triangle problems shared by criteria 4-6."""
    sizes = [30, 35, 40, 42, 45, 50, 55, 58, 60, 65]
    problems = []
    for i, n in enumerate(sizes):
        problem = make_problem(n, "er", {"p": 0.05}, seed=1000 + i)
        problems.append(
            (
                clique_tensor(problem.graph_a, 3),
                clique_tensor(problem.graph_b, 3),
            )
        )
    return problems


@pytest.fixture(scope="module")
def end_to_end():
    """Lambda-TAME + local search over the noise sweep (criteria 9 and 10)."""
    results = {}
    opts = AlignOptions(alpha=0.5, beta=1.0, max_iter=15)
    for p in (0.0, 0.05, 0.2):
        trials = []
        for t in range(20):
            problem = make_problem(100, "er", {"p": p}, seed=7000 + 100 * int(p * 100) + t)
            ta = clique_tensor(problem.graph_a, 3)
            tb = clique_tensor(problem.graph_b, 3)
            out = lambda_tame(ta, tb, opts)
            raw = out.best_matching
            before = (
                motifs_aligned(raw, ta, tb),
                edges_aligned(raw, problem.graph_a, problem.graph_b),
            )
            refined = local_search(
                raw, problem.graph_a, problem.graph_b, ta, tb,
                out.best_factors, RefineOptions(),
            )
            after = (
                motifs_aligned(refined, ta, tb),
                edges_aligned(refined, problem.graph_a, problem.graph_b),
            )
            trials.append(
                {
                    "before": before,
                    "after": after,
                    "rate": after[0] / max(ta.nnz, 1),
                    "accuracy": accuracy(refined, problem.truth),
                }
            )
        results[p] = trials
    return results


def test_criterion_01_lemma_equivalence(rng):
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 5))
        m = int(rng.integers(k, 5))
        n = int(rng.integers(k, 5))
        r = int(rng.integers(1, 4))
        pair = KronPair(random_motif(k, m, rng), random_motif(k, n, rng))
        dense = explicit_kron(pair.a.to_dense(), pair.b.to_dense())
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        a_side, b_side = ttv_same(pair.a, u), ttv_same(pair.b, v)
        oracle1 = unvec(dense_contract(dense, vec(np.outer(u, v)), k - 1), m, n)
        scale1 = max(np.linalg.norm(oracle1), 1e-30)
        worst = max(worst, np.linalg.norm(np.outer(a_side, b_side) - oracle1) / scale1)
        U = rng.standard_normal((m, r))
        V = rng.standard_normal((n, r))
        u_exp, v_exp = lowrank_kron_ttv(pair, U, V)
        oracle2 = unvec(dense_contract(dense, vec(U @ V.T), k - 1), m, n)
        scale2 = max(np.linalg.norm(oracle2), 1e-30)
        worst = max(worst, np.linalg.norm(u_exp @ v_exp.T - oracle2) / scale2)
    assert worst <= 1e-10
    _report(1, "contraction lemma equivalence", f"max rel err {worst:.2e} (bound 1e-10)")


def test_criterion_02_dominant_pair_decoupling():
    root = np.random.SeedSequence(1)
    worst_eig = worst_vec = 0.0
    t0 = time.time()
    for child in root.spawn(30):
        rng = np.random.default_rng(child)
        m = int(rng.choice([2, 3, 4]))
        n = int(rng.choice([2, 3, 4]))
        k = int(rng.choice([3, 4, 5]))
        report = verify_decoupling(
            random_symmetric_tensor(m, k, rng),
            random_symmetric_tensor(n, k, rng),
            restarts=5000,
            seed=int(rng.integers(1 << 62)),
        )
        worst_eig = max(worst_eig, report.eig_gap)
        worst_vec = max(worst_vec, report.vec_gap)
    assert worst_eig <= 1e-6
    assert worst_vec <= 1e-6
    _report(
        2, "dominant-pair decoupling (30 trials, 5000 restarts)",
        f"max eig gap {worst_eig:.2e}, max vec gap {worst_vec:.2e} "
        f"(bounds 1e-6) in {time.time() - t0:.0f}s",
    )


def test_criterion_03_diagonal_spectra():
    def diagonal(dim):
        out = np.zeros((dim,) * 3)
        for i in range(dim):
            out[(i,) * 3] = 1.0
        return out

    spec2 = spectrum_sample(diagonal(2), restarts=3000, seed=0)
    values2 = [p.eigenvalue for p in spec2]
    for target in (1.0, 1.0 / math.sqrt(2)):
        assert min(abs(v - target) for v in values2) <= 1e-6

    spec4 = spectrum_sample(diagonal(4), restarts=5000, seed=1)
    values4 = [p.eigenvalue for p in spec4]
    for target in (1.0, 1.0 / math.sqrt(2), 0.5, 1.0 / math.sqrt(3)):
        assert min(abs(v - target) for v in values4) <= 1e-6
    third = next(p for p in spec4 if abs(p.eigenvalue - 1.0 / math.sqrt(3)) <= 1e-6)
    v = third.vector
    template = np.where(np.abs(v) > 0.5 / math.sqrt(3), 1.0 / math.sqrt(3), 0.0)
    assert int(np.sum(template > 0)) == 3
    dist = min(np.abs(v - template).max(), np.abs(v + template).max())
    assert dist <= 1e-4
    _report(
        3, "diagonal-tensor spectra",
        f"recovered {{1, 1/sqrt2}} and {{1/2, 1/sqrt3}}; "
        f"eigenvector dist {dist:.1e} (bound 1e-4)",
    )


def test_criterion_04_dense_lowrank_iterate_equality(equality_problems):
    worst_x = worst_l = 0.0
    for ta, tb in equality_problems:
        for alpha in (0.5, 1.0):
            for beta in (0.0, 1.0, 10.0):
                opts = AlignOptions(
                    alpha=alpha, beta=beta, max_iter=15, tol=0.0,
                    match_every=False, keep_iterates=True,
                )
                dense = tame(ta, tb, opts=opts)
                low = lowrank_tame(ta, tb, opts=opts)
                assert len(dense.iterates) == len(low.iterates) == 15
                for xd, xl in zip(dense.iterates, low.iterates):
                    worst_x = max(
                        worst_x, np.linalg.norm(xd - xl) / np.linalg.norm(xd)
                    )
                for sd, sl in zip(dense.per_iteration, low.per_iteration):
                    worst_l = max(worst_l, abs(sd.lam - sl.lam))
    assert worst_x <= 1e-8
    assert worst_l <= 1e-8
    _report(
        4, "dense vs low-rank iterate equality",
        f"10 problems x 6 parameter pairs x 15 iterations: "
        f"max F-norm rel diff {worst_x:.2e}, max |dlambda| {worst_l:.2e} (bounds 1e-8)",
    )


def test_criterion_05_rank1_preservation(equality_problems):
    worst = 0.0
    opts = AlignOptions(
        alpha=1.0, beta=0.0, max_iter=15, tol=0.0,
        match_every=False, keep_iterates=True,
    )
    for ta, tb in equality_problems:
        out = lowrank_tame(ta, tb, opts=opts)
        for stats in out.per_iteration:
            assert stats.rank == 1
            worst = max(worst, stats.sigma_ratio)
        for dense in out.iterates:
            sigma = np.linalg.svd(dense, compute_uv=False)
            worst = max(worst, sigma[1] / sigma[0])
    assert worst <= 1e-10
    _report(
        5, "rank-1 preservation without shift",
        f"one retained direction every iteration; max sigma2/sigma1 {worst:.2e} (bound 1e-10)",
    )


def test_criterion_06_rank_growth_bound(equality_problems):
    # the bound r' <= C(r+k-2, k-1) + r + 1 is checked inside the iteration
    # and so is exercised by every low-rank run in this suite; rerun the
    # parameter matrix here, then record observed ranks on duplication problems
    for ta, tb in equality_problems[:4]:
        for alpha in (0.5, 1.0):
            for beta in (0.0, 1.0, 10.0):
                lowrank_tame(
                    ta, tb,
                    opts=AlignOptions(alpha=alpha, beta=beta, max_iter=10, match_every=False),
                )
    observed = []
    dims = []
    for t in range(5):
        problem = make_problem(100, "duplication", {"frac": 0.25, "p_edge": 0.5}, seed=4000 + t)
        ta = clique_tensor(problem.graph_a, 3)
        tb = clique_tensor(problem.graph_b, 3)
        for beta in (1.0, 10.0):
            out = lowrank_tame(
                ta, tb,
                opts=AlignOptions(alpha=0.5, beta=beta, max_iter=15, match_every=False),
            )
            observed.append(max(s.rank for s in out.per_iteration))
            dims.append(min(problem.graph_a.n, problem.graph_b.n))
    _report(
        6, "rank-growth bound",
        f"bound r' <= C(r+k-2, k-1) + r + 1 never fired; duplication n=100 observed max rank "
        f"{max(observed)} vs min(m,n)={min(dims)} (recorded, not thresholded)",
    )


def test_criterion_07_lowrank_contraction_speedup():
    problem = make_problem(1000, "er", {"p": 0.05}, seed=70)
    ta = clique_tensor(problem.graph_a, 3)
    tb = clique_tensor(problem.graph_b, 3)
    opts = AlignOptions(alpha=0.5, beta=1.0, max_iter=3, tol=0.0, match_every=False)
    low = lowrank_tame(ta, tb, opts=opts)
    dense = tame(ta, tb, opts=opts)
    low_time = sum(s.contraction_seconds for s in low.per_iteration)
    dense_time = sum(s.contraction_seconds for s in dense.per_iteration)
    assert low_time <= 0.5 * dense_time
    _report(
        7, "low-rank contraction speedup (n=1000)",
        f"low-rank {low_time:.2f}s vs implicit {dense_time:.2f}s "
        f"({dense_time / low_time:.0f}x, required >= 2x)",
    )


def _exhaustive_best_weight(X):
    m, n = X.shape
    best = 0.0
    for size in range(0, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in permutations(range(n), size):
                w = sum(X[i, j] for i, j in zip(rows, cols))
                best = max(best, w)
    return best


def test_criterion_08_matching_optimality(rng):
    checked = 0
    for _ in range(500):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        if min(m, n) > 6:
            n = 6
        # dyadic-rational entries make float sums exact, so equality is literal
        X = rng.integers(-40, 80, size=(m, n)).astype(np.float64) / 64.0
        assert max_weight_matching(X).weight == _exhaustive_best_weight(X)
        checked += 1
    _report(8, "matching optimality", f"{checked} instances equal the exhaustive optimum exactly")


def test_criterion_09_refinement_monotonicity(end_to_end):
    regressions = 0
    checked = 0
    for trials in end_to_end.values():
        for t in trials:
            checked += 1
            if t["after"] < t["before"]:
                regressions += 1
    assert regressions == 0
    _report(
        9, "refinement monotonicity",
        f"{checked} refinements, zero (motifs, edges) regressions",
    )


def test_criterion_10_end_to_end_quality(end_to_end):
    rates = [t["rate"] for t in end_to_end[0.0]]
    median_rate = float(np.median(rates))
    assert median_rate >= 0.9
    medians = {
        p: float(np.median([t["accuracy"] for t in trials]))
        for p, trials in end_to_end.items()
    }
    assert medians[0.0] >= medians[0.05] >= medians[0.2]
    _report(
        10, "end-to-end synthetic quality",
        f"p=0 median triangle-match rate {median_rate:.3f} (bound 0.9); "
        f"median accuracy {medians[0.0]:.2f} >= {medians[0.05]:.2f} >= {medians[0.2]:.2f}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    problem = make_problem(40, "er", {"p": 0.05}, seed=77)
    a_path = str(tmp_path / "a.el")
    b_path = str(tmp_path / "b.el")
    truth_path = str(tmp_path / "truth.tsv")
    save_edge_list(problem.graph_a, a_path)
    save_edge_list(problem.graph_b, b_path)
    save_truth(problem.truth, truth_path)
    pairs = []
    for tag in ("one", "two"):
        align_out = str(tmp_path / f"align_{tag}.json")
        assert main(
            [
                "align", "--graph-a", a_path, "--graph-b", b_path,
                "--method", "lowrank-tame", "--alpha", "0.5", "--beta", "1",
                "--refine", "local-search", "--truth", truth_path,
                "--seed", "7", "--out", align_out,
            ]
        ) == 0
        eig_out = str(tmp_path / f"eig_{tag}.jsonl")
        assert main(
            [
                "eigcheck", "--dims", "2,3", "--orders", "3,4",
                "--trials", "3", "--restarts", "400", "--seed", "5",
                "--out", eig_out,
            ]
        ) == 0
        synth_out = str(tmp_path / f"synth_{tag}")
        assert main(
            [
                "synth", "--n", "30", "--model", "duplication",
                "--trials", "2", "--seed", "3", "--out", synth_out,
                "--run", "lambda-tame+local-search", "--alpha", "0.5", "--beta", "1",
            ]
        ) == 0
        pairs.append(
            load_records(align_out)
            + load_records(eig_out)
            + load_records(f"{synth_out}/records.jsonl")
        )
    assert len(pairs[0]) == len(pairs[1])
    for rec_a, rec_b in zip(*pairs):
        assert records_equal_modulo_timing(rec_a, rec_b)
    _report(
        11, "CLI determinism",
        f"{len(pairs[0])} records per run identical modulo timing fields",
    )
