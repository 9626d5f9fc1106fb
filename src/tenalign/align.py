"""Alignment iterations on motif tensor pairs.

Three methods produce a continuous alignment heuristic between the vertex
sets of two graphs, all driven by shifted higher-order power iteration on
the (implicit) product tensor of the motif adjacency tensors:

* ``tame``: dense iterates via the implicit pairwise contraction, cost
  quadratic in the motif counts per iteration.
* ``lowrank_tame``: the exact same iterates computed from low-rank factors;
  each iteration expands the factor columns through the decoupled
  contraction, applies the affine shift as scaled factor blocks, and
  re-truncates with a rank-revealing factorization.  When the column
  expansion ``r^{k-1}`` exceeds ``kron.COLUMN_CAP`` the iterate is
  accumulated densely from column batches instead.
* ``lambda_tame``: one independent power sequence per tensor; the collected
  columns embed both vertex sets and the product of the factor matrices is
  matched once at the end.

The methods supply only their steps on the run's one ``KronPair`` and share
one remix and one truncation rule.  One loop builds the pair, matches iterates
by motifs aligned, returns the best-scoring iterate (earliest on ties) with its
matching, and applies the ``tol`` stop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kron
from ._kernels import ttv_tuples
from .errors import (
    DegenerateIterateError,
    DegenerateProblemError,
    NumericalFailureError,
)
from .kron import KronPair, implicit_kron_ttv, lowrank_kron_ttv
from .matching import Matching, max_weight_matching, motifs_aligned
from .tensors import MotifTensor, ttv_same

__all__ = [
    "AlignOptions",
    "FactorPair",
    "IterationStats",
    "AlignmentOutput",
    "tame",
    "lowrank_tame",
    "lambda_tame",
    "rank_reveal",
    "truncated_svd",
]

TRUNC_TOL = 1e-12  # singular values at or below this times the largest drop
ACCUM_BATCH = 16  # tuple columns per batch on the accumulate path


@dataclass(frozen=True)
class AlignOptions:
    """Shared iteration parameters.

    ``alpha`` remixes the initial iterate back in (1.0 recovers the plain
    shifted power iteration) and ``beta`` is the spectral shift.
    """

    alpha: float = 1.0
    beta: float = 0.0
    max_iter: int = 15
    tol: float = 1e-6
    keep_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factors ``(U, V)`` representing ``X = U V^T``."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ValueError("factors must be 2-D with equal column counts")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def dense(self) -> np.ndarray:
        return self.u @ self.v.T

    def frob_norm(self) -> float:
        """``||U V^T||_F`` via the Gram trick, never forming the product."""
        gram = (self.v.T @ self.v) * (self.u.T @ self.u).T
        return math.sqrt(max(float(gram.sum()), 0.0))


@dataclass
class IterationStats:
    index: int
    lam: float
    rank: int | None
    score: int | None
    contraction_seconds: float
    matching_seconds: float
    path: str
    sigma_ratio: float | None = None
    rank_reveal_seconds: float = 0.0


@dataclass
class AlignmentOutput:
    per_iteration: list[IterationStats]
    best_index: int
    best_score: int | None
    best_matching: Matching | None
    best_factors: FactorPair | None
    best_dense: np.ndarray | None
    converged: bool
    iterates: list | None  # densified iterates when requested

    def best_matrix(self) -> np.ndarray:
        if self.best_dense is not None:
            return self.best_dense
        if self.best_factors is not None:
            return self.best_factors.dense()
        raise ValueError("no iterate stored")


def _score_dense(X, tensor_a, tensor_b):
    t0 = time.perf_counter()
    matching = max_weight_matching(X)
    score = motifs_aligned(matching, tensor_a, tensor_b)
    return matching, score, time.perf_counter() - t0


def _dense(iterate) -> np.ndarray:
    return iterate if isinstance(iterate, np.ndarray) else iterate.dense()


def _power_iteration(method, steps, tensor_a, tensor_b, opts) -> AlignmentOutput:
    """The loop shared by the three methods around their ``steps``.

    ``steps(pair, opts)`` yields ``(IterationStats, iterate)`` per iteration
    from the run's one :class:`KronPair` (built first, so every method raises
    its errors for unequal orders or a non-tensor operand), the iterate a dense
    matrix or a :class:`FactorPair`.  For TAME and LowRankTAME the loop
    matches every iterate, keeps the earliest best-scoring one and stops when
    the estimate ``lam`` changes by less than ``tol``.  Lambda-TAME's independent sequences never stop early
    and only their last iterate is matched and returned.  An empty operand
    raises :class:`DegenerateProblemError` before any iteration.
    """
    pair = KronPair(tensor_a, tensor_b)
    for name, t in (("A", tensor_a), ("B", tensor_b)):
        if t.nnz == 0:
            raise DegenerateProblemError(
                f"motif tensor {name} is empty (no order-{t.order} motif), "
                "so the iteration carries no signal"
            )
    per_graph = method == "lambda-tame"
    if opts.max_iter < 1 and not per_graph:
        raise ValueError(f"max_iter must be >= 1 for {method}")
    stats: list[IterationStats] = []
    iterates = [] if opts.keep_iterates else None
    best = best_score = best_matching = None
    best_index = 0
    converged = per_graph
    lam_prev = np.inf
    for entry, iterate in steps(pair, opts):
        if not per_graph:
            matching, entry.score, entry.matching_seconds = _score_dense(
                _dense(iterate), tensor_a, tensor_b
            )
            if best_score is None or entry.score > best_score:
                best, best_score, best_matching = iterate, entry.score, matching
                best_index = entry.index
        stats.append(entry)
        if iterates is not None:
            iterates.append(_dense(iterate))
        if not per_graph and abs(entry.lam - lam_prev) < opts.tol:
            converged = True
            break
        lam_prev = entry.lam
    if per_graph:
        best_matching, entry.score, entry.matching_seconds = _score_dense(
            _dense(iterate), tensor_a, tensor_b
        )
        best, best_score, best_index = iterate, entry.score, entry.index
    dense = isinstance(best, np.ndarray)
    return AlignmentOutput(
        per_iteration=stats,
        best_index=best_index,
        best_score=best_score,
        best_matching=best_matching,
        best_factors=None if dense else best,
        best_dense=best if dense else None,
        converged=converged,
        iterates=iterates,
    )


def _remix(x_hat, x, x0, opts: AlignOptions, ell: int) -> np.ndarray:
    """The shifted power update ``alpha * x_hat + alpha * beta * x + (1 - alpha)
    * x0``, normalized: of a dense iterate or of one Lambda-TAME column."""
    new = opts.alpha * x_hat + (opts.alpha * opts.beta) * x + (1.0 - opts.alpha) * x0
    norm = np.linalg.norm(new)
    if norm == 0 or not np.isfinite(norm):
        raise DegenerateIterateError(f"degenerate iterate at iteration {ell}")
    new /= norm
    return new


def _dense_step(x_hat, X, X0, opts: AlignOptions, ell: int):
    """Rayleigh estimate ``trace(X^T Xhat)`` and the remixed dense iterate."""
    lam = float(np.sum(X * x_hat))
    if not np.isfinite(lam):
        raise NumericalFailureError("non-finite eigenvalue estimate")
    return lam, _remix(x_hat, X, X0, opts, ell)


def tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    opts: AlignOptions = AlignOptions(),
) -> AlignmentOutput:
    """Dense-iterate alignment via the implicit product-tensor contraction.

    ``X_0`` is the normalized uniform matrix; each iteration contracts the
    product tensor with the current iterate, estimates the generalized
    Rayleigh quotient ``lam = trace(X^T Xhat)``, remixes ``alpha * Xhat +
    alpha * beta * X + (1 - alpha) * X_0`` and renormalizes, stopping when
    ``lam`` stabilizes within ``tol`` or after ``max_iter`` iterations.
    """
    return _power_iteration("tame", _tame_steps, tensor_a, tensor_b, opts)


def _tame_steps(pair, opts):
    m, n = pair.dim_a, pair.dim_b
    W = np.full((m, n), 1.0 / (m * n))
    X0 = W / np.linalg.norm(W)
    X = X0
    for ell in range(1, opts.max_iter + 1):
        t0 = time.perf_counter()
        x_hat = implicit_kron_ttv(pair, X)
        t_contract = time.perf_counter() - t0
        lam, X = _dense_step(x_hat, X, X0, opts, ell)
        yield IterationStats(ell, lam, None, None, t_contract, 0.0, path="implicit"), X


def rank_reveal(U: np.ndarray, V: np.ndarray):
    """Exact low-rank truncation of ``U V^T``.

    QR-factors both sides, takes the SVD of the small core ``R_U R_V^T``,
    drops singular values at or below ``TRUNC_TOL`` relative to the largest,
    and returns the reduced :class:`FactorPair` together with the full
    pre-truncation singular values.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1] or U.shape[1] < 1:
        raise ValueError("factors must share at least one column")
    qu, ru = np.linalg.qr(U, mode="reduced")
    qv, rv = np.linalg.qr(V, mode="reduced")
    core_u, sigma, core_vt = np.linalg.svd(ru @ rv.T)
    keep = _keep_count(sigma)
    new_u = qu @ core_u[:, :keep]
    new_v = qv @ (core_vt[:keep].T * sigma[:keep])
    return FactorPair(new_u, new_v), sigma


def truncated_svd(X: np.ndarray):
    """SVD factors ``(left, right * sigma)`` of a dense matrix, truncated as in
    :func:`rank_reveal`; returns the :class:`FactorPair` and all singular values."""
    left, sigma, right_t = np.linalg.svd(X, full_matrices=False)
    keep = _keep_count(sigma)
    return FactorPair(left[:, :keep], right_t[:keep].T * sigma[:keep]), sigma


def _keep_count(sigma: np.ndarray) -> int:
    """Count of the singular values above ``TRUNC_TOL`` times a finite positive largest."""
    if sigma.size == 0 or not 0 < sigma[0] < math.inf:
        raise DegenerateIterateError("rank reveal found no nonzero direction")
    return int(np.sum(sigma > TRUNC_TOL * sigma[0]))


def _normalized(factors: FactorPair) -> FactorPair:
    norm = factors.frob_norm()
    if norm == 0 or not np.isfinite(norm):
        raise DegenerateIterateError("iterate has zero norm")
    scale = math.sqrt(norm)  # split the normalization across both factors
    return FactorPair(factors.u / scale, factors.v / scale)


def _lam_estimate(prev: FactorPair, u_exp: np.ndarray, v_exp: np.ndarray) -> float:
    return float(np.trace((v_exp.T @ prev.v) @ (prev.u.T @ u_exp)))


def _accumulated_contraction(pair, factors):
    """Dense product-tensor contraction accumulated from column batches.

    The batches walk the ``r^{k-1}`` factor-column tuples in lexicographic
    order, ``ACCUM_BATCH`` at a time.
    """
    k = pair.order
    digits = np.indices((factors.rank,) * (k - 1)).reshape(k - 1, -1).T
    X = np.zeros((pair.dim_a, pair.dim_b))
    for lo in range(0, digits.shape[0], ACCUM_BATCH):
        batch = digits[lo:lo + ACCUM_BATCH]
        ub = ttv_tuples(pair.a, factors.u, batch)
        vb = ttv_tuples(pair.b, factors.v, batch)
        X += ub @ vb.T
    return X


def lowrank_tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    opts: AlignOptions = AlignOptions(),
) -> AlignmentOutput:
    """Exact low-rank form of :func:`tame`; identical iterates in exact arithmetic.

    The iterate is kept as factors ``U_l V_l^T``.  While the expansion
    ``r^{k-1}`` fits under ``kron.COLUMN_CAP``, the next iterate's columns come
    from the decoupled contraction and the affine shift concatenates factor
    blocks scaled by ``sqrt(alpha)``, ``sqrt(alpha * beta)`` and
    ``sqrt(1 - alpha)`` before a rank-revealing truncation.  A new rank above
    ``C(r+k-2, k-1) + r + 1`` (the distinct expansion columns, the ``r``
    shift columns and the rank-1 prior) raises :class:`NumericalFailureError`.
    Above the cap the contraction result is accumulated densely from column
    batches, remixed and renormalized exactly as in :func:`tame`, and
    re-factored by SVD (the wide-factor regime).
    """
    return _power_iteration("lowrank-tame", _lowrank_steps, tensor_a, tensor_b, opts)


def _lowrank_steps(pair, opts):
    m, n = pair.dim_a, pair.dim_b
    k = pair.order
    x0 = _normalized(FactorPair(np.full((m, 1), 1.0 / (m * n)), np.ones((n, 1))))
    current = x0
    for ell in range(1, opts.max_iter + 1):
        r = current.rank
        if r ** (k - 1) <= kron.COLUMN_CAP:
            path = "expand"
            t0 = time.perf_counter()
            u_exp, v_exp = lowrank_kron_ttv(pair, current.u, current.v)
            t_contract = time.perf_counter() - t0
            lam = _lam_estimate(current, u_exp, v_exp)
            u_blocks = [math.sqrt(opts.alpha) * u_exp]
            v_blocks = [math.sqrt(opts.alpha) * v_exp]
            if opts.alpha * opts.beta > 0:
                u_blocks.append(math.sqrt(opts.alpha * opts.beta) * current.u)
                v_blocks.append(math.sqrt(opts.alpha * opts.beta) * current.v)
            if opts.alpha < 1.0:
                u_blocks.append(math.sqrt(1.0 - opts.alpha) * x0.u)
                v_blocks.append(math.sqrt(1.0 - opts.alpha) * x0.v)
            t0 = time.perf_counter()
            revealed, sigma = rank_reveal(np.hstack(u_blocks), np.hstack(v_blocks))
            t_reveal = time.perf_counter() - t0
            new_factors = _normalized(revealed)
        else:
            path = "accumulate"
            t0 = time.perf_counter()
            x_hat = _accumulated_contraction(pair, current)
            t_contract = time.perf_counter() - t0
            lam, x_new = _dense_step(x_hat, current.dense(), x0.dense(), opts, ell)
            t0 = time.perf_counter()
            new_factors, sigma = truncated_svd(x_new)
            t_reveal = time.perf_counter() - t0
        sigma_ratio = float(sigma[1] / sigma[0]) if sigma.size > 1 else 0.0
        if not np.isfinite(lam):
            raise NumericalFailureError("non-finite eigenvalue estimate")
        new_rank = new_factors.rank
        # duplicate expansion columns add no rank: C(r+k-2, k-1) are distinct
        bound = math.comb(r + k - 2, k - 1) + r + 1
        if new_rank > bound:
            raise NumericalFailureError(
                f"rank growth bound violated at iteration {ell}: "
                f"rank {new_rank} > bound {bound}"
            )
        current = new_factors
        yield IterationStats(
            ell, lam, new_rank, None, t_contract, 0.0,
            sigma_ratio=sigma_ratio, path=path, rank_reveal_seconds=t_reveal,
        ), current


def lambda_tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    opts: AlignOptions = AlignOptions(),
) -> AlignmentOutput:
    """Independent power sequences per tensor, matched on the factor product.

    Column 0 of each factor is the normalized all-ones vector; each
    iteration appends the affine-shifted, normalized contraction of the
    previous column, independently per tensor.  ``tol`` is ignored: the
    sequences always run to ``max_iter`` columns, after which the dense
    product ``U V^T`` is matched once.  With ``max_iter == 0`` the one
    iterate is the initial column pair, reported as iteration 0.
    """
    return _power_iteration("lambda-tame", _lambda_steps, tensor_a, tensor_b, opts)


def _lambda_steps(pair, opts):
    m, n = pair.dim_a, pair.dim_b
    L = opts.max_iter
    U = np.zeros((m, L + 1))
    V = np.zeros((n, L + 1))
    U[:, 0] = 1.0 / math.sqrt(m)
    V[:, 0] = 1.0 / math.sqrt(n)
    if L == 0:
        yield IterationStats(0, 0.0, 1, None, 0.0, 0.0, path="column"), FactorPair(U, V)
    for ell in range(1, L + 1):
        t0 = time.perf_counter()
        cu = ttv_same(pair.a, U[:, ell - 1])
        cv = ttv_same(pair.b, V[:, ell - 1])
        t_contract = time.perf_counter() - t0
        lam_a = float(np.dot(U[:, ell - 1], cu))
        lam_b = float(np.dot(V[:, ell - 1], cv))
        U[:, ell] = _remix(cu, U[:, ell - 1], U[:, 0], opts, ell)
        V[:, ell] = _remix(cv, V[:, ell - 1], V[:, 0], opts, ell)
        # columns up to ell are final, so the iterate can share them
        yield IterationStats(
            ell, lam_a * lam_b, ell + 1, None, t_contract, 0.0, path="column"
        ), FactorPair(U[:, : ell + 1], V[:, : ell + 1])
