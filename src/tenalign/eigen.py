"""Z-eigenpairs of symmetric tensors and the dominant-pair decoupling check.

A Z-eigenpair of a symmetric order-``k`` tensor is a unit vector ``x`` and
scalar ``lam`` with ``T x^{k-1} = lam * x``; the dominant pair globally
maximizes ``|T x^k|`` over the unit sphere.  :func:`dominant_eigen` locates
dominant pairs in two phases, polishing the pooled candidates to machine
precision: a Newton-corrector sweep estimates the dominant magnitude, then
multi-restart power iteration runs with shifts scaled to it (on both tensor
signs for even order), since too small a shift leaves maxima unstable.
:func:`spectrum_sample` samples the full small-tensor spectrum with the
Newton corrector alone, which also reaches saddle-type pairs that no
shifted power iteration attracts to.  One batched Newton corrector serves
the sweep, the polish and the spectrum sample.

:func:`verify_decoupling` computes the dominant pairs of two tensors and of
their product tensor independently and reports how closely the product pair
factorizes into the operand pairs, with the solver counters
(:class:`EigenStats`) of all three solves.

The solver loops run on small arrays (dimension up to 9, a few hundred
columns), where a numpy call costs about a microsecond whatever its size,
so they are written to make few calls per step: norms as
``sqrt(add.reduce(y * y))``, the computation ``np.linalg.norm`` does, in-place
updates, and boolean flags counted rather than reduced.  Every arithmetic
expression keeps its operands and their order, and each reduction sees the
memory layout it always saw, so the results are bit-identical to those of
the straightforward loops that ``tests/test_eigen.py`` keeps as oracles.  A
power step on a dimension-2, order-3 tensor over 375 columns costs about
25 microseconds, of which the contraction is a fifth; on the dimension-9,
order-5 product tensor about 0.7 ms, over half of it the monomial evaluation
(2-core host, one BLAS thread).  The index tables of a shape are built once
per process (:func:`_monomial_tables`, :func:`_tail_buckets`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations

import numpy as np

from .kron import explicit_kron
from .tensors import _group

__all__ = [
    "EigenPair",
    "EigenStats",
    "DecouplingReport",
    "SymMatvec",
    "symmetrize",
    "random_symmetric_tensor",
    "dominant_eigen",
    "spectrum_sample",
    "verify_decoupling",
]

POWER_MAX_ITER = 600  # power steps per start in dominant_eigen
# shifts of dominant_eigen's power runs: BASE_SHIFT plus 1.2 and 3.0 times
# the largest |lambda| of its Newton sweep
BASE_SHIFT = 1.0
POWER_BLOCK = 1 << 19  # monomial values per power-iteration block of dominant_eigen (4 MiB)
SPECTRUM_TOL = 1e-10  # Newton acceptance tolerance of spectrum_sample
DEDUP_TOL = 1e-6  # spectrum_sample merges eigenvalues closer than this
POOL_LAM_WIDTH = 1e-6  # dominant_eigen pools candidates this close in lambda
POOL_VEC_WIDTH = 1e-4  # and this close in vector, up to sign, as one
TIE_TOL = 1e-8  # dominant_eigen ties |lambda| within this times max(1, largest |lambda|)
# smallest tol of dominant_eigen: below it power runs stop on roundoff, far
# from a fixed point, and wrong pairs are flagged converged
TOL_FLOOR = 1e-13


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue, unit eigenvector, and the residual ``||T x^{k-1} - lam x||``."""

    eigenvalue: float
    vector: np.ndarray
    residual: float
    converged: bool


@dataclass
class EigenStats:
    """Work counters of one :func:`dominant_eigen` call.

    ``newton_converged`` counts the Newton-sweep starts that converged.
    ``power_steps`` and ``power_converged`` hold one entry per (sign, shift)
    config of the power batch, in the order ``dominant_eigen`` runs them
    (shift factors 1.2 then 3.0 on ``T``, then, at even order, on ``-T``):
    the power steps its columns took, and how many of them converged.
    ``pool`` is the number of pairs the polish corrected.  The counters
    start at zero and are no constructor arguments.
    """

    newton_converged: int = field(default=0, init=False)
    power_steps: list = field(default_factory=list, init=False)
    power_converged: list = field(default_factory=list, init=False)
    pool: int = field(default=0, init=False)


@dataclass(frozen=True)
class DecouplingReport:
    """Dominant-pair comparison between a product tensor and its operands.

    ``eig_gap`` is ``|lam_kron - lam_a * lam_b|``; ``vec_gap`` is
    ``1 - |<x_kron, kron(v, u)>|``, which is sign-invariant.  ``solver``
    maps ``"a"``, ``"b"`` and ``"kron"`` to the :class:`EigenStats` of the
    three solves.
    """

    lambda_a: float
    lambda_b: float
    lambda_kron: float
    eig_gap: float
    vec_gap: float
    all_converged: bool
    solver: dict


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


@functools.lru_cache(maxsize=64)
def _monomial_tables(n: int, degree: int):
    """Per degree from 2 to ``degree``, the index of each monomial's prefix
    among the monomials one degree lower and its last coordinate, plus the
    number of degree-``degree`` monomials of an ``n``-vector.

    Built once per shape and shared by every plan of that shape, so the
    arrays are read-only.
    """
    if degree < 1:
        return (), (), 1
    parents, coords = [], []
    index = {(c,): c for c in range(n)}
    for d in range(2, degree + 1):
        prev, index = index, {}
        parent = []
        coord = []
        for j, tup in enumerate(combinations_with_replacement(range(n), d)):
            index[tup] = j
            parent.append(prev[tup[:-1]])
            coord.append(tup[-1])
        parents.append(np.asarray(parent, dtype=np.int64))
        coords.append(np.asarray(coord, dtype=np.int64))
    for table in parents + coords:
        table.flags.writeable = False
    return tuple(parents), tuple(coords), len(index)


class _MonomialPlan:
    """Evaluation plan for all degree-``d`` monomials of an ``n``-vector.

    Monomials are indexed by sorted multisets in lexicographic order (the
    ``combinations_with_replacement`` order).  ``eval`` builds the values
    for a batch of vectors by one multiply per monomial and degree, reusing
    the degree-``d-1`` values of the prefix multiset.  The index tables come
    from :func:`_monomial_tables`, once per shape.  Every degree is written
    into a workspace the plan owns: three flat buffers, grown only when a
    call needs more than ``count`` times its width, and viewed per degree at
    the width of the last call.  Two of them take the values of alternate
    degrees, the third the last coordinate of each monomial.
    """

    def __init__(self, n: int, degree: int):
        self.degree = degree
        self.parents, self.coords, self.count = _monomial_tables(n, degree)
        self._work = np.empty((3, 0))
        self._width = None
        self._views = []

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Monomial values for each column of ``X``; shape ``(count, R)``.

        The result lives in the workspace and is overwritten by the next
        call, so the caller consumes it at once.
        """
        width = X.shape[1]
        if self.degree < 1:
            return np.ones((1, width))
        if width != self._width:
            # the views of each degree are kept until the width changes:
            # making them on every call costs small tensors more than the
            # allocations it saves
            if self._work.shape[1] < self.count * width:
                self._work = np.empty((3, self.count * width))
            self._views = []
            for d, parent in enumerate(self.parents):
                work = self._work[:, : parent.size * width].reshape(3, parent.size, width)
                self._views.append((work[d % 2], work[2]))
            self._width = width
        vals = X
        for parent, coord, (prefix, last) in zip(self.parents, self.coords, self._views):
            # ndarray.take, not np.take (slower on small shapes); mode "clip"
            # writes into ``out`` directly where "raise" buffers it.  The
            # product goes into the prefix, since a third array of this size
            # costs cache misses
            vals = vals.take(parent, 0, prefix, "clip")
            vals *= X.take(coord, 0, last, "clip")
        return vals


@functools.lru_cache(maxsize=64)
def _tail_buckets(n: int, degree: int):
    """The column order that groups the ``n**degree`` trailing index tuples
    by sorted multiset, and where each group starts; built once per shape,
    read-only."""
    bucket = np.zeros(1, dtype=np.int64)
    if degree >= 1:
        tails = np.stack(np.unravel_index(np.arange(n**degree), (n,) * degree), axis=1)
        tails.sort(axis=1)
        # unique over rows is lexicographic, matching the monomial plan order
        bucket = np.unique(tails, axis=0, return_inverse=True)[1].reshape(-1)
    indptr, order = _group(bucket, _monomial_tables(n, degree)[2])
    starts = indptr[:-1]
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def _compressed(dense: np.ndarray, degree: int):
    """The monomial plan of ``degree`` and the tensor flattened to ``degree``
    trailing modes, its columns summed over equal trailing multisets."""
    n = dense.shape[0]
    order, starts = _tail_buckets(n, degree)
    flat = dense.reshape(-1, n**degree)
    return _MonomialPlan(n, degree), np.add.reduceat(flat[:, order], starts, axis=1)


def _finite(dense) -> np.ndarray:
    """``dense`` as a float64 array; a non-finite entry raises :class:`ValueError`."""
    dense = np.asarray(dense, dtype=np.float64)
    if not np.isfinite(dense).all():
        raise ValueError("tensor entries must be finite")
    return dense


class SymMatvec:
    """Compressed contraction operator for a dense symmetric tensor.

    Precomputes, per output index, the column sums of the flattened tensor
    over equal trailing multisets, so one contraction against ``x`` costs
    one monomial evaluation plus a small matrix product instead of a pass
    over all ``n^{k-1}`` entries; the Jacobian blocks use the same
    compression over ``k-2`` trailing modes.  Exact for arbitrary tensors
    since entries are summed, not assumed equal; a non-finite entry raises
    :class:`ValueError`.  The index tables of both compressions depend on
    ``(n, k)`` alone and are shared, read-only, by every operator of that
    shape, so building an operator costs two column sums of the tensor.

    The monomial values go into one workspace per monomial plan, kept for
    the operator's life and grown to its widest call: ``3 * C(n+k-2, k-1)
    * R`` doubles for ``R`` columns (``C(n+k-3, k-2)`` for the Jacobian
    blocks), so a solver that builds one operator allocates them once, not
    on every step.  The returned arrays are fresh; the workspace never
    leaves the operator.
    """

    def __init__(self, dense: np.ndarray):
        dense = _finite(dense)
        self.order = dense.ndim
        self.dim = dense.shape[0]
        self._plan, self._mat = _compressed(dense, self.order - 1)
        self._plan2, self._mat2 = _compressed(dense, self.order - 2)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Batched ``T x^{k-1}``: ``X`` and the result are ``(dim, R)``."""
        return self._mat @ self._plan.eval(X)

    def jacobian_blocks(self, X: np.ndarray) -> np.ndarray:
        """Batched ``(k-1) T x^{k-2}`` matrices, shape ``(R, dim, dim)``."""
        n = self.dim
        vals = self._mat2 @ self._plan2.eval(X)
        return (self.order - 1) * vals.reshape(n, n, -1).transpose(2, 0, 1)


def _power_batch(sym: SymMatvec, X0, sign, shift, tol, max_iter):
    """Masked batched power iteration, column ``j`` on ``sign[j] * T`` with
    shift ``shift[j]``; returns per-column (lam of ``sign[j] * T``, x,
    converged, power steps taken).

    Only the active columns are kept, with their sign, shift and previous
    Rayleigh estimate; they are compacted on the steps where some column
    stops, so the common step gathers and scatters nothing.  A step updates
    its contraction in place and multiplies by the signs only while a
    negative one is active.
    """
    r = X0.shape[1]
    out_x = X0.copy()
    out_lam = np.zeros(r)
    converged = np.zeros(r, dtype=bool)
    steps = np.full(r, max_iter)
    idx = np.arange(r)
    X = np.ascontiguousarray(X0)
    lam = np.full(r, np.inf)
    flip = np.count_nonzero(sign < 0)
    for step in range(1, max_iter + 1):
        c = sym(X)
        if flip:
            c *= sign
        lam_new = np.einsum("ij,ij->j", X, c)
        newly = np.abs(lam_new - lam) < tol
        c += shift * X
        norms = np.sqrt(np.add.reduce(c * c, 0))
        lam = lam_new
        if np.count_nonzero(newly) or np.count_nonzero(norms) < norms.size:
            stop = newly | (norms == 0)
            done = idx[stop]
            out_lam[done] = lam[stop]
            out_x[:, done] = X[:, stop]
            steps[done] = step
            converged[idx[newly]] = True
            keep = ~stop
            if not np.count_nonzero(keep):
                return out_lam, out_x, converged, steps
            idx, c, norms = idx[keep], c[:, keep], norms[keep]
            sign, shift, lam = sign[keep], shift[keep], lam[keep]
            flip = np.count_nonzero(sign < 0)
        X = np.divide(c, norms, out=c)
    out_lam[idx] = lam
    out_x[:, idx] = X
    return out_lam, out_x, converged, steps


def _newton(sym: SymMatvec, X: np.ndarray, lam: np.ndarray, accept: float, max_steps: int):
    """Batched Newton corrector on the eigenpair equations ``T x^{k-1} = lam
    x``, ``x.x = 1``, from the columns of ``X`` with estimates ``lam``.

    A column stops when its residual is at most ``accept * max(1, |lam|)``
    (it converged), when its step is not finite or longer than 5, or after
    ``max_steps`` steps; a singular batch is solved by least squares.
    Returns the final ``X`` and ``lam``, each column's residual at its last
    check, and the converged columns in the order they converged.  Newton
    converges to any regular stationary pair near which a start lands,
    including saddle-type pairs that no shifted power iteration attracts to.

    The active columns are kept compacted and written back when they stop,
    one per row of ``xt``, so ``xt.T`` has the layout of a column gather
    ``X[:, idx]`` (reductions may sum in a layout-dependent order); one
    Jacobian and one right-hand-side buffer serve every step.
    """
    n = sym.dim
    X = X.copy()
    lam = np.array(lam, dtype=np.float64)
    res = np.full(X.shape[1], np.inf)
    idx = np.arange(X.shape[1])
    done = [idx[:0]]
    xt, la = X.T.copy(), lam.copy()
    eye = np.eye(n)
    jac = np.zeros((idx.size, n + 1, n + 1))
    rhs = np.empty((idx.size, n + 1))
    for _ in range(max_steps):
        if idx.size == 0:
            break
        xa = xt.T
        f_eig = sym(xa) - la * xa
        f_norm = (np.einsum("ij,ij->j", xa, xa) - 1.0) / 2.0
        res_a = np.sqrt(np.einsum("ij,ij->j", f_eig, f_eig) + f_norm**2)
        res[idx] = res_a
        conv = res_a <= accept * np.maximum(1.0, np.abs(la))
        if np.count_nonzero(conv):
            stopped = idx[conv]
            done.append(stopped)
            X[:, stopped] = xa[:, conv]
            lam[stopped] = la[conv]
            keep = ~conv
            idx, xt, la = idx[keep], xt[keep], la[keep]
            if idx.size == 0:
                break
            xa, f_eig, f_norm = xt.T, f_eig[:, keep], f_norm[keep]
        r = idx.size
        J, b = jac[:r], rhs[:r]
        np.subtract(sym.jacobian_blocks(xa), la[:, None, None] * eye, out=J[:, :n, :n])
        np.negative(xt, out=J[:, :n, n])
        J[:, n, :n] = xt
        np.negative(f_eig.T, out=b[:, :n])
        np.negative(f_norm, out=b[:, n])
        try:
            steps = np.linalg.solve(J, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps = np.empty((r, n + 1))
            for j in range(r):
                steps[j] = np.linalg.lstsq(J[j], b[j], rcond=None)[0]
        dx = steps[:, :n]
        # a non-finite entry of dx makes its norm inf or nan, which fails
        # the comparison; only the lambda step needs a finiteness test
        diverged = ~((np.sqrt(np.add.reduce(dx * dx, 1)) <= 5.0) & np.isfinite(steps[:, n]))
        gone = np.count_nonzero(diverged)
        if gone:
            steps[diverged] = 0.0
        xt += dx
        la += steps[:, n]
        if gone:
            stopped = idx[diverged]
            X[:, stopped] = xt[diverged].T
            lam[stopped] = la[diverged]
            keep = ~diverged
            idx, xt, la = idx[keep], xt[keep], la[keep]
    X[:, idx] = xt.T
    lam[idx] = la
    return X, lam, res, np.concatenate(done)


def _polish(sym: SymMatvec, pool, tol: float) -> list[EigenPair]:
    """Newton-polish the pooled ``(eigenvalue, vector)`` pairs in one batch,
    to ``1e-13`` in at most 30 steps, and report each result normalized, with
    its Rayleigh quotient and residual, in the sign convention of
    :func:`_canonical` and flagged converged when the residual is at most
    ``10 * tol``.  Results of zero or non-finite norm are dropped."""
    lam0 = np.array([lam for lam, _ in pool])
    X = _newton(sym, np.stack([x for _, x in pool], axis=1), lam0, 1e-13, 30)[0]
    norms = np.sqrt(np.add.reduce(X * X, 0))
    usable = (norms > 0) & np.isfinite(norms)
    X = X[:, usable] / norms[usable]
    C = sym(X)
    lam = np.einsum("ij,ij->j", X, C)
    R = C - lam * X
    residual = np.sqrt(np.add.reduce(R * R, 0)).tolist()
    polished = []
    for j, (lam_j, res_j) in enumerate(zip(lam.tolist(), residual)):
        lam_j, x_j = _canonical(lam_j, X[:, j], sym.order)
        polished.append(EigenPair(lam_j, x_j, res_j, res_j <= 10 * tol))
    return polished


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


def _run_power_configs(sym, configs, starts, tol, stats):
    """Power iteration from ``starts``, start ``i`` on config ``i %
    len(configs)``, in blocks of at most ``POWER_BLOCK`` monomial values.

    Returns the converged pairs and, per config, its four largest
    unconverged ones (the extras), config by config and in start order;
    each config's steps and converged columns go to ``stats``.
    """
    r = starts.shape[1]
    sign, shift = np.asarray(configs, dtype=np.float64)[np.arange(r) % len(configs)].T
    lam = np.empty(r)
    xs = np.empty_like(starts)
    conv = np.empty(r, dtype=bool)
    steps = np.empty(r, dtype=np.int64)
    width = max(1, POWER_BLOCK // sym._plan.count)
    for lo in range(0, r, width):
        block = slice(lo, lo + width)
        lam[block], xs[:, block], conv[block], steps[block] = _power_batch(
            sym, starts[:, block], sign[block], shift[block], tol, POWER_MAX_ITER
        )
    lam *= sign  # map eigenvalues of -T back to T
    candidates = []
    extras = []
    step = len(configs)
    for ci in range(step):
        c_lam, c_xs, c_conv = lam[ci::step], xs[:, ci::step], conv[ci::step]
        stats.power_steps.append(int(steps[ci::step].sum()))
        stats.power_converged.append(int(np.count_nonzero(c_conv)))
        for j in np.nonzero(c_conv)[0]:
            candidates.append((float(c_lam[j]), c_xs[:, j]))
        order = np.argsort(-np.abs(c_lam[~c_conv]))[:4]
        unconv = np.nonzero(~c_conv)[0][order]
        extras.extend((float(c_lam[j]), c_xs[:, j]) for j in unconv)
    return candidates, extras


def dominant_eigen(
    tensor: np.ndarray,
    restarts: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
    stats: EigenStats | None = None,
) -> EigenPair:
    """Dominant Z-eigenpair by a Newton sweep and shifted power iteration.

    Of the ``restarts`` random unit starts, the first ``restarts // 4`` go
    to a Newton-corrector sweep, and ``lam_hat`` is the largest ``|lam|``
    among the pairs it converges to (0 if none).  The other ``restarts -
    restarts // 4`` run shifted power iteration as one batch, on the shifts
    ``BASE_SHIFT + 1.2 * lam_hat`` and ``BASE_SHIFT + 3.0 * lam_hat`` applied
    to ``T`` and, for even order, to ``-T`` (odd-order spectra are symmetric
    under negation, so the extra sign adds nothing there); a shift
    comparable to ``|lam|`` stabilizes every local maximum, which a small
    fixed shift can leave repelling.  The batch is split into column blocks
    of at most ``POWER_BLOCK`` monomial values (one block for small
    tensors).  The solver builds one :class:`SymMatvec`, so one monomial
    workspace serves every power step, the Newton sweep and the polish: a
    power block needs at most ``3 * POWER_BLOCK`` doubles (12 MiB) of it,
    and the Newton sweep needs ``3 * C(n+k-2, k-1) * (restarts // 4)``.
    Each config keeps its four largest unconverged iterates as extras, and
    the first four extras, in config order, join the pool.  The pool, the
    Newton and power pairs that converged, deduplicated (at most 24), and
    those four extras, is polished by the Newton corrector in one batch, and
    the pair of largest magnitude wins, with ties broken toward the larger
    eigenvalue and then the lexicographically larger vector.  A pair is
    flagged converged when its residual is at most ``10 * tol``; ``tol``
    must be finite and at least :data:`TOL_FLOOR`.  ``tensor`` is a dense
    symmetric array with finite entries.  ``stats``, when given, receives
    the call's :class:`EigenStats`.  A power step costs one contraction of
    its active columns and about ten elementwise passes over them; steps
    where no column stops gather and scatter nothing.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not TOL_FLOOR <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least {TOL_FLOOR:g}, got {tol}")
    if stats is None:
        stats = EigenStats()
    sym = SymMatvec(tensor)
    n, k = sym.dim, sym.order
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((n, restarts))
    starts /= np.linalg.norm(starts, axis=0)
    n_newton = restarts // 4
    candidates = []
    if n_newton:
        X0 = starts[:, :n_newton]
        lam0 = np.einsum("ij,ij->j", X0, sym(X0))
        X, lam, _, conv = _newton(sym, X0, lam0, max(tol, 1e-12), 60)
        candidates = [(float(lam[j]), X[:, j]) for j in conv]
    stats.newton_converged = len(candidates)
    lam_hat = max((abs(v) for v, _ in candidates), default=0.0)
    signs = (1.0,) if k % 2 == 1 else (1.0, -1.0)
    configs = [(s, BASE_SHIFT + c * lam_hat) for s in signs for c in (1.2, 3.0)]
    found, extras = _run_power_configs(sym, configs, starts[:, n_newton:], tol, stats)
    pool = _distinct_candidates(candidates + found, limit=24) + extras[:4]
    stats.pool = len(pool)
    return _select_best(_polish(sym, pool, tol))


def _distinct_candidates(candidates, limit):
    """Prune near-duplicate (eigenvalue, vector) pairs, largest |value| first.

    Degenerate dominant eigenvalues can carry several distinct eigenvectors,
    so duplicates are detected on the pair, not the eigenvalue alone.
    """
    pool = []
    for lam, x in sorted(candidates, key=lambda c: -abs(c[0])):
        for lam2, x2 in pool:
            if abs(lam - lam2) < POOL_LAM_WIDTH:
                # the 2-norms of x - x2 and x + x2, the second only if needed
                d = x - x2
                if math.sqrt(d.dot(d)) < POOL_VEC_WIDTH:
                    break
                d = x + x2
                if math.sqrt(d.dot(d)) < POOL_VEC_WIDTH:
                    break
        else:
            pool.append((lam, x))
            if len(pool) >= limit:
                break
    return pool


def _select_best(pairs):
    """Largest |eigenvalue| wins; ties go to the larger eigenvalue, then the
    lexicographically larger vector (grouping within ``TIE_TOL`` so roundoff
    never decides ahead of the stated order)."""
    ok = [p for p in pairs if p.converged] or pairs
    scale = max(1.0, max(abs(p.eigenvalue) for p in ok))
    top = [
        p
        for p in ok
        if abs(p.eigenvalue) >= max(abs(q.eigenvalue) for q in ok) - TIE_TOL * scale
    ]
    lam_max = max(p.eigenvalue for p in top)
    group = [p for p in top if p.eigenvalue >= lam_max - TIE_TOL * scale]
    # quantize so solver roundoff cannot decide ahead of genuine differences
    return max(group, key=lambda p: tuple(np.round(p.vector, 8)))


def spectrum_sample(tensor: np.ndarray, restarts: int = 2000, seed: int = 0) -> list[EigenPair]:
    """Sample distinct Z-eigenvalues of a small tensor, largest |value| first.

    Runs a batched Newton corrector on the eigenpair equations from random
    unit-sphere starts.  Unlike shifted power iteration, Newton converges to
    any regular stationary pair in whose basin a start lands, including
    saddle-type pairs, so repeated sampling recovers small spectra.
    Converged eigenvalues are deduplicated within ``DEDUP_TOL``; odd-order
    pairs are reported with nonnegative eigenvalue (their negations are
    eigenpairs by sign symmetry).  ``tensor`` is a dense symmetric array.
    """
    sym = SymMatvec(tensor)
    k = sym.order
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((sym.dim, restarts))
    X /= np.linalg.norm(X, axis=0)
    lam0 = np.einsum("ij,ij->j", X, sym(X))
    X, lam, res, conv = _newton(sym, X, lam0, SPECTRUM_TOL, 60)
    canonical = [(*_canonical(float(lam[j]), X[:, j], k), float(res[j])) for j in conv]
    reps: list[EigenPair] = []
    # smallest residual represents its eigenvalue cluster
    for lam_v, x, res in sorted(canonical, key=lambda p: p[2]):
        if all(abs(lam_v - r.eigenvalue) > DEDUP_TOL for r in reps):
            reps.append(EigenPair(lam_v, x, res, True))
    reps.sort(key=lambda p: (-abs(p.eigenvalue), -p.eigenvalue))
    return reps


def verify_decoupling(
    tensor_a: np.ndarray,
    tensor_b: np.ndarray,
    restarts: int = 5000,
    seed: int = 0,
    tol: float = 1e-10,
) -> DecouplingReport:
    """Compare dominant pairs of two dense symmetric tensors and of their
    product tensor.

    All three pairs are computed independently (the product side runs on the
    explicitly materialized product tensor), so the report measures how well
    the product's dominant pair factorizes rather than assuming it does.  The
    operands are checked and the product is built first, so an operand with
    a non-finite entry raises :class:`ValueError` before the product is
    formed, and a product above ``kron.EXPLICIT_BUDGET`` entries raises
    :class:`BudgetExceededError` before any eigenpair is computed.
    """
    tensor_a, tensor_b = _finite(tensor_a), _finite(tensor_b)
    dense_kron = explicit_kron(tensor_a, tensor_b)
    seeds = np.random.SeedSequence(seed).spawn(3)
    solver = {key: EigenStats() for key in ("a", "b", "kron")}
    dom_a = dominant_eigen(tensor_a, restarts, seeds[0], tol, solver["a"])
    dom_b = dominant_eigen(tensor_b, restarts, seeds[1], tol, solver["b"])
    dom_k = dominant_eigen(dense_kron, restarts, seeds[2], tol, solver["kron"])
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
        solver=solver,
    )
