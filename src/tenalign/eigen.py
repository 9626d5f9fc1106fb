"""Z-eigenpairs of symmetric tensors and the dominant-pair decoupling check.

A Z-eigenpair of a symmetric order-``k`` tensor is a unit vector ``x`` and
scalar ``lam`` with ``T x^{k-1} = lam * x``; the dominant pair globally
maximizes ``|T x^k|`` over the unit sphere.  :func:`dominant_eigen` locates
dominant pairs by multi-restart shifted power iteration (small exploratory
shifts on both tensor signs for even order, then shifts rescaled to the
magnitude found, since too small a shift leaves maxima unstable) combined
with a Newton-corrector sweep, polishing pooled candidates to machine
precision; :func:`spectrum_sample` samples the full small-tensor spectrum
with the Newton corrector alone, which also reaches saddle-type pairs that
no shifted power iteration attracts to.

:func:`verify_decoupling` computes the dominant pairs of two tensors and of
their product tensor independently and reports how closely the product pair
factorizes into the operand pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import kron
from .errors import BudgetExceededError
from .kron import KronPair, explicit_kron
from .tensors import MotifTensor

__all__ = [
    "EigenPair",
    "DecouplingReport",
    "SymMatvec",
    "symmetrize",
    "random_symmetric_tensor",
    "dominant_eigen",
    "spectrum_sample",
    "verify_decoupling",
]

POWER_MAX_ITER = 300  # power steps per start in dominant_eigen; twice that after rescaling
BASE_SHIFT = 1.0  # exploring shifts of dominant_eigen are 0 and +-BASE_SHIFT
SPECTRUM_TOL = 1e-10  # Newton acceptance tolerance of spectrum_sample
DEDUP_TOL = 1e-6  # spectrum_sample merges eigenvalues closer than this


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue, unit eigenvector, and the residual ``||T x^{k-1} - lam x||``."""

    eigenvalue: float
    vector: np.ndarray
    residual: float
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class DecouplingReport:
    """Dominant-pair comparison between a product tensor and its operands.

    ``eig_gap`` is ``|lam_kron - lam_a * lam_b|``; ``vec_gap`` is
    ``1 - |<x_kron, kron(v, u)>|``, which is sign-invariant.
    """

    lambda_a: float
    lambda_b: float
    lambda_kron: float
    eig_gap: float
    vec_gap: float
    all_converged: bool


def symmetrize(arr: np.ndarray) -> np.ndarray:
    """Average a cubical tensor over all mode permutations."""
    arr = np.asarray(arr, dtype=np.float64)
    out = np.zeros_like(arr)
    for perm in permutations(range(arr.ndim)):
        out += arr.transpose(perm)
    return out / math.factorial(arr.ndim)


def random_symmetric_tensor(dim: int, order: int, rng) -> np.ndarray:
    """Symmetrized standard-normal tensor."""
    return symmetrize(rng.standard_normal((dim,) * order))


class _MonomialPlan:
    """Evaluation plan for all degree-``d`` monomials of an ``n``-vector.

    Monomials are indexed by sorted multisets in lexicographic order (the
    ``combinations_with_replacement`` order).  ``eval`` builds the values
    for a batch of vectors by one multiply per monomial and degree, reusing
    the degree-``d-1`` values of the prefix multiset.
    """

    def __init__(self, n: int, degree: int):
        self.n = n
        self.degree = degree
        self.parents = []
        self.coords = []
        if degree < 1:
            self.count = 1
            return
        index = {(c,): c for c in range(n)}
        count = n
        for d in range(2, degree + 1):
            prev, index = index, {}
            parent = []
            coord = []
            for j, tup in enumerate(combinations_with_replacement(range(n), d)):
                index[tup] = j
                parent.append(prev[tup[:-1]])
                coord.append(tup[-1])
            self.parents.append(np.asarray(parent, dtype=np.int64))
            self.coords.append(np.asarray(coord, dtype=np.int64))
            count = len(parent)
        self.count = count

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Monomial values for each column of ``X``; shape ``(count, R)``."""
        if self.degree < 1:
            return np.ones((1, X.shape[1]))
        vals = X
        for parent, coord in zip(self.parents, self.coords):
            vals = vals[parent] * X[coord]
        return vals


def _bucket_ids(n: int, degree: int, flat_count: int) -> np.ndarray:
    """Map flat multi-indices over ``degree`` trailing modes to multiset ids."""
    if degree < 1:
        return np.zeros(flat_count, dtype=np.int64)
    tails = np.stack(
        np.unravel_index(np.arange(flat_count), (n,) * degree), axis=1
    )
    tails.sort(axis=1)
    # unique over rows is lexicographic, matching the monomial plan order
    _, inverse = np.unique(tails, axis=0, return_inverse=True)
    return inverse.reshape(-1)


def _compress(flat: np.ndarray, bucket: np.ndarray, count: int) -> np.ndarray:
    """Sum columns of ``flat`` into their monomial buckets."""
    order = np.argsort(bucket, kind="stable")
    starts = np.searchsorted(bucket[order], np.arange(count))
    return np.add.reduceat(flat[:, order], starts, axis=1)


class SymMatvec:
    """Compressed contraction operator for a dense symmetric tensor.

    Precomputes, per output index, the column sums of the flattened tensor
    over equal trailing multisets, so one contraction against ``x`` costs
    one monomial evaluation plus a small matrix product instead of a pass
    over all ``n^{k-1}`` entries.  Exact for arbitrary tensors since entries
    are summed, not assumed equal.
    """

    def __init__(self, dense: np.ndarray):
        dense = np.asarray(dense, dtype=np.float64)
        self.order = dense.ndim
        self.dim = dense.shape[0]
        self._dense = dense
        n, k = self.dim, self.order
        self._plan = _MonomialPlan(n, k - 1)
        bucket = _bucket_ids(n, k - 1, n ** (k - 1))
        self._mat = _compress(dense.reshape(n, -1), bucket, self._plan.count)
        self._plan2 = None
        self._mat2 = None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Batched ``T x^{k-1}``: ``X`` and the result are ``(dim, R)``."""
        return self._mat @ self._plan.eval(X)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self(x.reshape(-1, 1))[:, 0]

    def _second(self):
        if self._mat2 is None:
            n, k = self.dim, self.order
            self._plan2 = _MonomialPlan(n, k - 2)
            bucket = _bucket_ids(n, k - 2, n ** (k - 2))
            self._mat2 = _compress(
                self._dense.reshape(n * n, -1), bucket, self._plan2.count
            )
        return self._mat2, self._plan2

    def jacobian_blocks(self, X: np.ndarray) -> np.ndarray:
        """Batched ``(k-1) T x^{k-2}`` matrices, shape ``(R, dim, dim)``."""
        mat2, plan2 = self._second()
        n, k = self.dim, self.order
        vals = mat2 @ plan2.eval(X)
        return (k - 1) * np.moveaxis(vals.reshape(n, n, -1), 2, 0)


def _as_sym(tensor) -> SymMatvec:
    """Contraction operator for a dense array, a :class:`SymMatvec`, or a
    :class:`MotifTensor` densified under ``DENSE_BUDGET`` (a larger one
    raises :class:`BudgetExceededError`)."""
    if isinstance(tensor, SymMatvec):
        return tensor
    if isinstance(tensor, MotifTensor):
        tensor = tensor.to_dense()
    return SymMatvec(tensor)


def _power_batch(apply_fn, X0, shift, tol, max_iter):
    """Masked batched power iteration; returns per-column (lam, x, converged)."""
    n, r = X0.shape
    X = X0.copy()
    lam = np.full(r, np.inf)
    out_x = X0.copy()
    out_lam = np.zeros(r)
    converged = np.zeros(r, dtype=bool)
    active = np.arange(r)
    for _ in range(max_iter):
        xa = X[:, active]
        c = apply_fn(xa)
        lam_new = np.einsum("ij,ij->j", xa, c)
        newly = np.abs(lam_new - lam[active]) < tol
        if newly.any():
            idx = active[newly]
            out_lam[idx] = lam_new[newly]
            out_x[:, idx] = xa[:, newly]
            converged[idx] = True
        y = c + shift * xa
        norms = np.linalg.norm(y, axis=0)
        dead = norms == 0
        if dead.any():
            idx = active[dead]
            out_lam[idx] = lam_new[dead]
            out_x[:, idx] = xa[:, dead]
        keep = ~(newly | dead)
        lam[active] = lam_new
        kept = active[keep]
        if kept.size == 0:
            return out_lam, out_x, converged
        X[:, kept] = y[:, keep] / norms[keep]
        active = kept
    out_lam[active] = lam[active]
    out_x[:, active] = X[:, active]
    return out_lam, out_x, converged


def _newton_refine(sym: SymMatvec, x, lam, tol=1e-13, max_iter=30):
    """Newton correction of an approximate eigenpair on the dense operator."""
    n = sym.dim
    x = x.astype(np.float64).copy()
    lam = float(lam)
    for _ in range(max_iter):
        c = sym.matvec(x)
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
    c = sym.matvec(x)
    lam = float(np.dot(x, c))
    residual = float(np.linalg.norm(c - lam * x))
    return lam, x, residual


def _newton_candidates(sym: SymMatvec, X0: np.ndarray, tol: float, max_steps: int = 60):
    """Batched Newton corrector on the eigenpair equations from given starts.

    Returns converged ``(eigenvalue, vector, residual)`` triples.  Newton
    converges to any regular stationary pair near which a start lands,
    including saddle-type pairs that no shifted power iteration attracts to.
    """
    n = sym.dim
    X = X0.copy()
    restarts = X.shape[1]
    lam = np.einsum("ij,ij->j", X, sym(X))
    alive = np.ones(restarts, dtype=bool)
    accept = max(tol, 1e-12)
    found = []
    for _ in range(max_steps):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        xa = X[:, idx]
        la = lam[idx]
        c = sym(xa)
        f_eig = c - la * xa
        f_norm = (np.einsum("ij,ij->j", xa, xa) - 1.0) / 2.0
        fnorms = np.sqrt(np.einsum("ij,ij->j", f_eig, f_eig) + f_norm**2)
        conv = fnorms <= accept * np.maximum(1.0, np.abs(la))
        for j in np.nonzero(conv)[0]:
            found.append((float(la[j]), xa[:, j].copy(), float(fnorms[j])))
        alive[idx[conv]] = False
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
        alive[idx[diverged]] = False
    return found


def _canonical(lam: float, x: np.ndarray, order: int):
    """Deterministic sign convention: odd order gets lam >= 0, then the
    lexicographically larger of {x, -x} whenever the sign is free."""
    if order % 2 == 1 and lam < 0:
        lam, x = -lam, -x
    if order % 2 == 0 or lam == 0:
        nz = np.nonzero(x)[0]
        if nz.size and x[nz[0]] < 0:
            x = -x
    return lam, x


def _run_power_configs(sym, configs, starts, tol, max_iter, candidates, extras):
    for ci, (sign, shift) in enumerate(configs):
        cols = starts[:, ci::len(configs)]
        if cols.shape[1] == 0:
            continue
        apply_fn = sym if sign > 0 else (lambda X: -sym(X))
        lam, xs, conv = _power_batch(apply_fn, cols, shift, tol, max_iter)
        lam = sign * lam  # map eigenvalues of -T back to T
        for j in np.nonzero(conv)[0]:
            candidates.append((float(lam[j]), xs[:, j]))
        order = np.argsort(-np.abs(lam[~conv]))[:4]
        unconv = np.nonzero(~conv)[0][order]
        extras.extend((float(lam[j]), xs[:, j]) for j in unconv)


def dominant_eigen(
    tensor,
    restarts: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> EigenPair:
    """Dominant Z-eigenpair by multi-restart shifted power iteration.

    The ``restarts`` random unit starts are split across three phases:
    power iteration with shifts ``{0, +-BASE_SHIFT}`` applied to ``T`` and,
    for even order, to ``-T`` (odd-order spectra are symmetric under
    negation, so the extra sign adds nothing there); a Newton-corrector
    sweep; and power iteration again with shifts rescaled to the largest
    magnitude found so far, which stabilizes maxima that a small fixed shift
    leaves repelling.  Pooled candidates are deduplicated, polished by
    Newton correction, and the pair of largest magnitude wins, with ties
    broken toward the larger eigenvalue and then the lexicographically
    larger vector.  Like :func:`spectrum_sample`, it densifies a
    :class:`MotifTensor` under ``DENSE_BUDGET`` and raises
    :class:`BudgetExceededError` for a larger one.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    sym = _as_sym(tensor)
    n, k = sym.dim, sym.order
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((n, restarts))
    starts /= np.linalg.norm(starts, axis=0)
    signs = (1.0,) if k % 2 == 1 else (1.0, -1.0)
    # the restart budget is split three ways: small-shift power configs and a
    # Newton corrector sweep explore, then power runs again with shifts
    # scaled to the magnitude estimate.  A fixed small shift can leave the
    # dominant fixed point locally unstable (its basin empties), while a
    # shift comparable to |lambda| provably stabilizes every local maximum.
    n_explore = max(restarts // 3, 1)
    n_newton = max(restarts // 4, 1) if restarts >= 4 else 0
    candidates = []
    extras = []
    explore = [(s, b) for s in signs for b in (0.0, BASE_SHIFT, -BASE_SHIFT)]
    _run_power_configs(
        sym, explore, starts[:, :n_explore], tol, POWER_MAX_ITER, candidates, extras
    )
    if n_newton:
        for lam, x, _res in _newton_candidates(
            sym, starts[:, n_explore:n_explore + n_newton], tol
        ):
            candidates.append((lam, x))
    rest = starts[:, n_explore + n_newton:]
    if rest.shape[1]:
        pool_so_far = candidates + extras
        lam_hat = max((abs(c[0]) for c in pool_so_far), default=0.0)
        scaled = [
            (s, b)
            for s in signs
            for b in (BASE_SHIFT + 1.2 * lam_hat, BASE_SHIFT + 3.0 * lam_hat)
        ]
        _run_power_configs(
            sym, scaled, rest, tol, 2 * POWER_MAX_ITER, candidates, extras
        )

    pool = _distinct_candidates(candidates, limit=24) + extras[:4]
    polished = []
    for lam0, x0 in pool:
        result = _newton_refine(sym, x0, lam0)
        if result is None:
            continue
        lam, x, residual = result
        lam, x = _canonical(lam, x, k)
        polished.append(EigenPair(lam, x, residual, residual <= 10 * tol))
    if not polished:
        # nothing usable: report the first start as a non-converged pair
        x = starts[:, 0]
        c = sym.matvec(x)
        lam = float(np.dot(x, c))
        return EigenPair(lam, x, float(np.linalg.norm(c - lam * x)), False)
    return _select_best(polished)


def _distinct_candidates(candidates, limit, lam_width=1e-6, vec_width=1e-4):
    """Prune near-duplicate (eigenvalue, vector) pairs, largest |value| first.

    Degenerate dominant eigenvalues can carry several distinct eigenvectors,
    so duplicates are detected on the pair, not the eigenvalue alone.
    """
    pool = []
    for lam, x in sorted(candidates, key=lambda c: -abs(c[0])):
        dup = False
        for lam2, x2 in pool:
            if abs(lam - lam2) < lam_width and min(
                np.linalg.norm(x - x2), np.linalg.norm(x + x2)
            ) < vec_width:
                dup = True
                break
        if not dup:
            pool.append((lam, x))
            if len(pool) >= limit:
                break
    return pool


def _select_best(pairs, tie_tol=1e-8):
    """Largest |eigenvalue| wins; ties go to the larger eigenvalue, then the
    lexicographically larger vector (grouping within ``tie_tol`` so roundoff
    never decides ahead of the stated order)."""
    ok = [p for p in pairs if p.converged] or pairs
    scale = max(1.0, max(abs(p.eigenvalue) for p in ok))
    top = [
        p
        for p in ok
        if abs(p.eigenvalue) >= max(abs(q.eigenvalue) for q in ok) - tie_tol * scale
    ]
    lam_max = max(p.eigenvalue for p in top)
    group = [p for p in top if p.eigenvalue >= lam_max - tie_tol * scale]
    # quantize so solver roundoff cannot decide ahead of genuine differences
    return max(group, key=lambda p: tuple(np.round(p.vector, 8)))


def spectrum_sample(tensor, restarts: int = 2000, seed: int = 0) -> list[EigenPair]:
    """Sample distinct Z-eigenvalues of a small tensor, largest |value| first.

    Runs a batched Newton corrector on the eigenpair equations from random
    unit-sphere starts.  Unlike shifted power iteration, Newton converges to
    any regular stationary pair in whose basin a start lands, including
    saddle-type pairs, so repeated sampling recovers small spectra.
    Converged eigenvalues are deduplicated within ``DEDUP_TOL``; odd-order
    pairs are reported with nonnegative eigenvalue (their negations are
    eigenpairs by sign symmetry).
    """
    sym = _as_sym(tensor)
    k = sym.order
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((sym.dim, restarts))
    X /= np.linalg.norm(X, axis=0)
    canonical = []
    for lam_v, x, res in _newton_candidates(sym, X, SPECTRUM_TOL):
        lam_c, x_c = _canonical(lam_v, x, k)
        canonical.append((lam_c, x_c, res))
    reps: list[EigenPair] = []
    # smallest residual represents its eigenvalue cluster
    for lam_v, x, res in sorted(canonical, key=lambda p: p[2]):
        if all(abs(lam_v - r.eigenvalue) > DEDUP_TOL for r in reps):
            reps.append(EigenPair(lam_v, x, res, True))
    reps.sort(key=lambda p: (-abs(p.eigenvalue), -p.eigenvalue))
    return reps


def verify_decoupling(
    tensor_a,
    tensor_b,
    restarts: int = 5000,
    seed: int = 0,
    tol: float = 1e-10,
) -> DecouplingReport:
    """Compare dominant pairs of two tensors and of their product tensor.

    All three pairs are computed independently (the product side runs on the
    explicitly materialized product tensor), so the report measures how well
    the product's dominant pair factorizes rather than assuming it does.  A
    product tensor above ``kron.EXPLICIT_BUDGET`` entries raises
    :class:`BudgetExceededError` before any eigenpair is computed.
    """
    pair = KronPair(tensor_a, tensor_b)
    size = (pair.dim_a * pair.dim_b) ** pair.order
    if size > kron.EXPLICIT_BUDGET:
        raise BudgetExceededError(
            f"product tensor would have {size} entries (budget {kron.EXPLICIT_BUDGET})"
        )
    seeds = np.random.SeedSequence(seed).spawn(3)
    dom_a = dominant_eigen(tensor_a, restarts, seeds[0], tol)
    dom_b = dominant_eigen(tensor_b, restarts, seeds[1], tol)
    dense_kron = explicit_kron(pair)
    dom_k = dominant_eigen(dense_kron, restarts, seeds[2], tol)
    eig_gap = abs(dom_k.eigenvalue - dom_a.eigenvalue * dom_b.eigenvalue)
    joint = np.kron(dom_b.vector, dom_a.vector)
    vec_gap = max(0.0, 1.0 - abs(float(np.dot(dom_k.vector, joint))))
    return DecouplingReport(
        lambda_a=dom_a.eigenvalue,
        lambda_b=dom_b.eigenvalue,
        lambda_kron=dom_k.eigenvalue,
        eig_gap=float(eig_gap),
        vec_gap=float(vec_gap),
        all_converged=dom_a.converged and dom_b.converged and dom_k.converged,
    )
