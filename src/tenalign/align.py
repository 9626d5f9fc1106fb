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

Per-iteration matchings score iterates by motifs aligned; the best-scoring
iterate (earliest on ties) is returned along with its matching.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kron
from .errors import (
    DegenerateIterateError,
    DegenerateProblemError,
    NumericalFailureError,
)
from .kron import (
    KronPair,
    expand_column_block,
    implicit_kron_ttv,
    lowrank_kron_ttv,
)
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
    "objective_value",
]

TRUNC_TOL = 1e-12  # singular values at or below this times the largest drop
ACCUM_BATCH = 16  # tuple columns per batch on the accumulate path


@dataclass(frozen=True)
class AlignOptions:
    """Shared iteration parameters.

    ``alpha`` remixes the initial iterate back in (1.0 recovers the plain
    shifted power iteration) and ``beta`` is the spectral shift.  With
    ``match_every`` unset, TAME and LowRankTAME score every iterate while
    the independent-sequence method matches only once at the end.
    """

    alpha: float = 1.0
    beta: float = 0.0
    max_iter: int = 15
    tol: float = 1e-6
    match_every: bool | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


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
    sigma_ratio: float | None = None
    path: str = ""
    rank_reveal_seconds: float = 0.0


@dataclass
class AlignmentOutput:
    method: str
    per_iteration: list[IterationStats]
    best_index: int
    best_score: int | None
    best_matching: Matching | None
    best_factors: FactorPair | None = None
    best_dense: np.ndarray | None = None
    converged: bool = False
    factors: FactorPair | None = None  # full embedding for lambda-tame
    iterates: list | None = None  # densified iterates when requested

    def best_matrix(self) -> np.ndarray:
        if self.best_dense is not None:
            return self.best_dense
        if self.best_factors is not None:
            return self.best_factors.dense()
        raise ValueError("no iterate stored")


def _require_nonempty(*tensors: MotifTensor) -> None:
    for t in tensors:
        if t.nnz == 0:
            raise DegenerateProblemError(
                "empty motif tensor: the iteration carries no signal"
            )


def _uniform_prior(m: int, n: int) -> np.ndarray:
    return np.full((m, n), 1.0 / (m * n))


def _resolve_match_every(opts: AlignOptions, method: str) -> bool:
    if opts.match_every is not None:
        return opts.match_every
    return method != "lambda-tame"


def _score_dense(X, tensor_a, tensor_b):
    t0 = time.perf_counter()
    matching = max_weight_matching(X)
    score = motifs_aligned(matching, tensor_a, tensor_b)
    return matching, score, time.perf_counter() - t0


class _BestTracker:
    """Keeps the earliest iterate achieving the maximum score."""

    def __init__(self):
        self.index = 0
        self.score = None
        self.matching = None
        self.payload = None

    def offer(self, index, score, matching, payload):
        if score is None:
            return
        if self.score is None or score > self.score:
            self.index, self.score, self.matching = index, score, matching
            self.payload = payload


def _dense_step(x_hat, X, X0, opts: AlignOptions, ell: int):
    """Rayleigh estimate ``trace(X^T Xhat)`` and the remixed, renormalized
    dense iterate ``alpha * Xhat + alpha * beta * X + (1 - alpha) * X_0``."""
    lam = float(np.sum(X * x_hat))
    if not np.isfinite(lam):
        raise NumericalFailureError("non-finite eigenvalue estimate")
    x_new = opts.alpha * x_hat + (opts.alpha * opts.beta) * X + (1.0 - opts.alpha) * X0
    norm = np.linalg.norm(x_new)
    if norm == 0 or not np.isfinite(norm):
        raise DegenerateIterateError(f"degenerate iterate at iteration {ell}")
    x_new /= norm
    return lam, x_new


def tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    weights: np.ndarray | None = None,
    opts: AlignOptions = AlignOptions(),
) -> AlignmentOutput:
    """Dense-iterate alignment via the implicit product-tensor contraction.

    ``X_0 = W / ||W||_F``; each iteration contracts the product tensor with
    the current iterate, estimates the generalized Rayleigh quotient
    ``lam = trace(X^T Xhat)``, remixes ``alpha * Xhat + alpha * beta * X +
    (1 - alpha) * X_0`` and renormalizes, stopping when ``lam`` stabilizes
    within ``tol`` or after ``max_iter`` iterations.
    """
    _require_nonempty(tensor_a, tensor_b)
    if opts.max_iter < 1:
        raise ValueError("max_iter must be >= 1 for the dense iteration")
    pair = KronPair(tensor_a, tensor_b)
    m, n = pair.dim_a, pair.dim_b
    W = _uniform_prior(m, n) if weights is None else np.asarray(weights, dtype=np.float64)
    if W.shape != (m, n):
        raise DegenerateProblemError(f"prior must have shape ({m}, {n})")
    w_norm = np.linalg.norm(W)
    if w_norm == 0:
        raise DegenerateProblemError("prior matrix must be nonzero")
    match_every = _resolve_match_every(opts, "tame")
    X0 = W / w_norm
    X = X0
    lam_prev = np.inf
    stats: list[IterationStats] = []
    iterates = [] if opts.keep_iterates else None
    best = _BestTracker()
    converged = False
    for ell in range(1, opts.max_iter + 1):
        t0 = time.perf_counter()
        x_hat = implicit_kron_ttv(pair, X)
        t_contract = time.perf_counter() - t0
        lam, x_new = _dense_step(x_hat, X, X0, opts, ell)
        matching = score = None
        t_match = 0.0
        if match_every:
            matching, score, t_match = _score_dense(x_new, tensor_a, tensor_b)
        stats.append(
            IterationStats(ell, lam, None, score, t_contract, t_match, path="implicit")
        )
        best.offer(ell, score, matching, x_new.copy())
        if iterates is not None:
            iterates.append(x_new.copy())
        X = x_new
        if abs(lam - lam_prev) < opts.tol:
            converged = True
            break
        lam_prev = lam
    if best.score is None:
        matching, score, t_match = _score_dense(X, tensor_a, tensor_b)
        stats[-1].score = score
        stats[-1].matching_seconds = t_match
        best.offer(len(stats), score, matching, X.copy())
    return AlignmentOutput(
        method="tame",
        per_iteration=stats,
        best_index=best.index,
        best_score=best.score,
        best_matching=best.matching,
        best_dense=best.payload,
        converged=converged,
        iterates=iterates,
    )


def rank_reveal(U: np.ndarray, V: np.ndarray, trunc_tol: float = TRUNC_TOL):
    """Exact low-rank truncation of ``U V^T``.

    QR-factors both sides, takes the SVD of the small core ``R_U R_V^T``,
    drops singular values at or below ``trunc_tol`` relative to the largest,
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
    if sigma.size == 0 or sigma[0] <= 0 or not np.isfinite(sigma[0]):
        raise DegenerateIterateError("rank reveal found no nonzero direction")
    keep = int(np.sum(sigma > trunc_tol * sigma[0]))
    new_u = qu @ core_u[:, :keep]
    new_v = qv @ (core_vt[:keep].T * sigma[:keep])
    return FactorPair(new_u, new_v), sigma


def truncated_svd(X: np.ndarray):
    """SVD factors ``(left, right * sigma)`` of a dense matrix, truncated.

    Singular values at or below ``TRUNC_TOL`` relative to the largest are
    dropped; returns the :class:`FactorPair` and the full singular values.
    """
    left, sigma, right_t = np.linalg.svd(X, full_matrices=False)
    if sigma.size == 0 or not sigma[0] > 0:
        raise DegenerateIterateError("rank reveal found no nonzero direction")
    keep = int(np.sum(sigma > TRUNC_TOL * sigma[0]))
    return FactorPair(left[:, :keep], right_t[:keep].T * sigma[:keep]), sigma


def _normalized(factors: FactorPair) -> FactorPair:
    norm = factors.frob_norm()
    if norm == 0 or not np.isfinite(norm):
        raise DegenerateIterateError("iterate has zero norm")
    scale = math.sqrt(norm)  # split the normalization across both factors
    return FactorPair(factors.u / scale, factors.v / scale)


def _lam_estimate(prev: FactorPair, u_exp: np.ndarray, v_exp: np.ndarray) -> float:
    return float(np.trace((v_exp.T @ prev.v) @ (prev.u.T @ u_exp)))


def _accumulated_contraction(pair, factors):
    """Dense product-tensor contraction accumulated from column batches."""
    k = pair.order
    r = factors.rank
    total = r ** (k - 1)
    X = np.zeros((pair.dim_a, pair.dim_b))
    for start in range(0, total, ACCUM_BATCH):
        stop = min(start + ACCUM_BATCH, total)
        ub = expand_column_block(pair.a, factors.u, start, stop)
        vb = expand_column_block(pair.b, factors.v, start, stop)
        X += ub @ vb.T
    return X


def lowrank_tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    weight_factors: FactorPair | None = None,
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
    _require_nonempty(tensor_a, tensor_b)
    if opts.max_iter < 1:
        raise ValueError("max_iter must be >= 1 for the low-rank iteration")
    pair = KronPair(tensor_a, tensor_b)
    m, n = pair.dim_a, pair.dim_b
    k = pair.order
    if weight_factors is None:
        weight_factors = FactorPair(
            np.full((m, 1), 1.0 / (m * n)), np.ones((n, 1))
        )
    if weight_factors.u.shape[0] != m or weight_factors.v.shape[0] != n:
        raise DegenerateProblemError("weight factor shapes do not match tensors")
    if weight_factors.frob_norm() == 0:
        raise DegenerateProblemError("prior matrix must be nonzero")
    match_every = _resolve_match_every(opts, "lowrank-tame")
    x0 = _normalized(weight_factors)
    current = x0
    lam_prev = np.inf
    stats: list[IterationStats] = []
    iterates = [] if opts.keep_iterates else None
    best = _BestTracker()
    converged = False
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
        matching = score = None
        t_match = 0.0
        if match_every:
            matching, score, t_match = _score_dense(
                new_factors.dense(), tensor_a, tensor_b
            )
        stats.append(
            IterationStats(
                ell, lam, new_rank, score, t_contract, t_match,
                sigma_ratio=sigma_ratio, path=path, rank_reveal_seconds=t_reveal,
            )
        )
        best.offer(ell, score, matching, new_factors)
        if iterates is not None:
            iterates.append(new_factors.dense())
        current = new_factors
        if abs(lam - lam_prev) < opts.tol:
            converged = True
            break
        lam_prev = lam
    if best.score is None:
        matching, score, t_match = _score_dense(current.dense(), tensor_a, tensor_b)
        stats[-1].score = score
        stats[-1].matching_seconds = t_match
        best.offer(len(stats), score, matching, current)
    return AlignmentOutput(
        method="lowrank-tame",
        per_iteration=stats,
        best_index=best.index,
        best_score=best.score,
        best_matching=best.matching,
        best_factors=best.payload,
        converged=converged,
        iterates=iterates,
    )


def lambda_tame(
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    opts: AlignOptions = AlignOptions(),
) -> AlignmentOutput:
    """Independent power sequences per tensor, matched on the factor product.

    Column 0 of each factor is the normalized all-ones vector; each
    iteration appends the affine-shifted, normalized contraction of the
    previous column, independently per tensor.  After ``max_iter`` columns
    the dense product ``U V^T`` is matched once (per-iterate scoring can be
    requested through ``match_every``).
    """
    _require_nonempty(tensor_a, tensor_b)
    if tensor_a.order != tensor_b.order:
        raise DegenerateProblemError("tensor orders differ")
    k = tensor_a.order
    m, n = tensor_a.dim, tensor_b.dim
    match_every = _resolve_match_every(opts, "lambda-tame")
    L = opts.max_iter
    U = np.zeros((m, L + 1))
    V = np.zeros((n, L + 1))
    U[:, 0] = 1.0 / math.sqrt(m)
    V[:, 0] = 1.0 / math.sqrt(n)
    stats: list[IterationStats] = []
    best = _BestTracker()
    for ell in range(1, L + 1):
        t0 = time.perf_counter()
        cu = ttv_same(tensor_a, U[:, ell - 1], k - 1)
        cv = ttv_same(tensor_b, V[:, ell - 1], k - 1)
        t_contract = time.perf_counter() - t0
        lam_a = float(np.dot(U[:, ell - 1], cu))
        lam_b = float(np.dot(V[:, ell - 1], cv))
        for mat, vec_c, col0 in ((U, cu, U[:, 0]), (V, cv, V[:, 0])):
            new = (
                opts.alpha * vec_c
                + (opts.alpha * opts.beta) * mat[:, ell - 1]
                + (1.0 - opts.alpha) * col0
            )
            norm = np.linalg.norm(new)
            if norm == 0 or not np.isfinite(norm):
                raise DegenerateIterateError(
                    f"zero contraction column at iteration {ell}"
                )
            mat[:, ell] = new / norm
        matching = score = None
        t_match = 0.0
        if match_every:
            matching, score, t_match = _score_dense(
                U[:, : ell + 1] @ V[:, : ell + 1].T, tensor_a, tensor_b
            )
            best.offer(ell, score, matching, (ell, U[:, : ell + 1].copy(), V[:, : ell + 1].copy()))
        stats.append(
            IterationStats(
                ell, lam_a * lam_b, ell + 1, score, t_contract, t_match, path="column"
            )
        )
    factors = FactorPair(U, V)
    if best.score is None:
        matching, score, t_match = _score_dense(factors.dense(), tensor_a, tensor_b)
        if stats:
            stats[-1].score = score
            stats[-1].matching_seconds = t_match
        else:
            stats.append(IterationStats(0, 0.0, 1, score, 0.0, t_match, path="column"))
        best.offer(L, score, matching, (L, U, V))
    best_ell, best_u, best_v = best.payload
    return AlignmentOutput(
        method="lambda-tame",
        per_iteration=stats,
        best_index=best_ell,
        best_score=best.score,
        best_matching=best.matching,
        best_factors=FactorPair(best_u, best_v),
        converged=True,
        factors=factors,
    )


def objective_value(
    X: np.ndarray,
    W: np.ndarray,
    tensor_a: MotifTensor,
    tensor_b: MotifTensor,
    alpha: float,
) -> float:
    """Alignment objective ``(1 - alpha) tr(W^T X) + alpha / k! * <vec(X), product contraction>``.

    The ``k!`` divisor removes the symmetric-orientation multiplicity so the
    tensor term counts each aligned motif once for a 0/1 matching matrix.
    """
    pair = KronPair(tensor_a, tensor_b)
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if X.shape != (pair.dim_a, pair.dim_b) or W.shape != X.shape:
        raise DegenerateProblemError("shape mismatch between X, W, and tensors")
    k = pair.order
    tensor_term = float(np.sum(X * implicit_kron_ttv(pair, X)))
    return float((1.0 - alpha) * np.sum(W * X) + alpha / math.factorial(k) * tensor_term)
