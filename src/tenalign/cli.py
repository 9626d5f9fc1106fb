"""Command-line front-end: ``align``, ``eigcheck``, and ``synth``."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import _blas, kron
from . import records as rec
from .align import AlignOptions, FactorPair, lambda_tame, lowrank_tame, tame, truncated_svd
from .eigen import TOL_FLOOR, random_symmetric_tensor, verify_decoupling
from .errors import TenalignError
from .graphs import MAX_MOTIF, MIN_MOTIF, clique_tensor, load_edge_list, save_edge_list
from .matching import accuracy, edges_aligned, motifs_aligned
from .refine import RefineOptions, RefineStats, local_search
from .synth import make_problem

METHODS = ("tame", "lowrank-tame", "lambda-tame")
REFINES = ("none", "local-search")


def _add_align_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--motif", type=int, default=3, help="clique size k")
    p.add_argument("--method", choices=METHODS, default="lambda-tame")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--iters", type=int, default=15)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--refine", choices=REFINES, default="none")
    p.add_argument("--knn", default="auto", help="neighbor count or 'auto'")
    p.add_argument("--sweeps", type=int, default=10, help="max refinement sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenalign",
        description="Higher-order network alignment via tensor Kronecker structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two graphs from edge lists")
    p_align.add_argument("--graph-a", required=True)
    p_align.add_argument("--graph-b", required=True)
    p_align.add_argument("--truth", help="optional ground-truth permutation file")
    _add_align_flags(p_align)
    p_align.add_argument("--seed", type=int, default=0)
    p_align.add_argument("--out", required=True, help="run record file (JSON lines)")
    p_align.add_argument("--matching-out", help="write the matching as pair text")

    p_eig = sub.add_parser("eigcheck", help="dominant-pair decoupling trials")
    p_eig.add_argument("--dims", default="2,3,4", help="comma list of dimensions")
    p_eig.add_argument("--orders", default="3,4,5", help="comma list of tensor orders")
    p_eig.add_argument("--trials", type=int, default=30)
    p_eig.add_argument("--restarts", type=int, default=5000)
    p_eig.add_argument("--tol", type=float, default=1e-10)
    p_eig.add_argument("--seed", type=int, default=0)
    p_eig.add_argument("--out", required=True)

    p_syn = sub.add_parser("synth", help="generate synthetic alignment problems")
    p_syn.add_argument("--n", type=int, required=True)
    p_syn.add_argument("--model", choices=("er", "duplication"), required=True)
    p_syn.add_argument("--p", type=float, default=0.05, help="ER edge removal probability")
    p_syn.add_argument("--frac", type=float, default=0.25, help="duplication growth fraction")
    p_syn.add_argument("--pedge", type=float, default=0.5, help="duplication edge keep probability")
    p_syn.add_argument("--trials", type=int, default=1)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True, help="output directory")
    p_syn.add_argument(
        "--run",
        help="comma list of method[+local-search] combos to run on each problem",
    )
    _add_align_flags(p_syn)
    return parser


def _embedding_factors(output) -> FactorPair:
    """Low-rank embedding of the best iterate (SVD-factored when dense)."""
    if output.best_factors is not None:
        return output.best_factors
    return truncated_svd(output.best_matrix())[0]


def _run_method(method, tensor_a, tensor_b, opts):
    if method == "tame":
        return tame(tensor_a, tensor_b, opts=opts)
    if method == "lowrank-tame":
        return lowrank_tame(tensor_a, tensor_b, opts=opts)
    if method == "lambda-tame":
        return lambda_tame(tensor_a, tensor_b, opts=opts)
    raise TenalignError(f"unknown method {method!r}")


def _knn(raw: str):
    """The ``--knn`` value: ``"auto"`` or an integer."""
    if raw == "auto":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise TenalignError(f"--knn must be an integer or 'auto', got {raw!r}") from None


# the option field each flag sets, as the option checks name it
_FLAG_OF = {
    "alpha": "--alpha",
    "beta": "--beta",
    "max_iter": "--iters",
    "tol": "--tol",
    "k_neighbors": "--knn",
    "max_sweeps": "--sweeps",
}


def _options(args, methods):
    """The :class:`AlignOptions` and :class:`RefineOptions` of the flags.

    Called before any file is written; a bad value raises a
    :class:`TenalignError` naming its flag.  ``methods`` are the methods the
    options will drive: TAME and LowRankTAME need ``--iters`` of at least 1.
    """
    if not MIN_MOTIF <= args.motif <= MAX_MOTIF:
        raise TenalignError(
            f"--motif must lie in [{MIN_MOTIF}, {MAX_MOTIF}], got {args.motif}"
        )
    if args.iters < 1 and {"tame", "lowrank-tame"} & set(methods):
        raise TenalignError(
            f"--iters must be >= 1 for tame and lowrank-tame, got {args.iters}"
        )
    knn = _knn(args.knn)
    try:
        return (
            AlignOptions(
                alpha=args.alpha,
                beta=args.beta,
                max_iter=args.iters,
                tol=args.tol,
            ),
            RefineOptions(k_neighbors=knn, max_sweeps=args.sweeps),
        )
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        raise TenalignError(f"{_FLAG_OF[field]} {rule}") from None


def _align_once(graph_a, graph_b, truth, args, opts, ropts, method, refine, seed):
    t_start = time.perf_counter()
    t0 = time.perf_counter()
    tensor_a = clique_tensor(graph_a, args.motif)
    tensor_b = clique_tensor(graph_b, args.motif)
    tensor_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    output = _run_method(method, tensor_a, tensor_b, opts)
    method_seconds = time.perf_counter() - t0
    matching = output.best_matching
    refine_seconds = knn_seconds = 0.0
    resolved_k = knn_widths = None
    counters = dict.fromkeys(f.name for f in fields(RefineStats))
    if refine == "local-search":
        factors = _embedding_factors(output)
        resolved_k = ropts.resolve_k(factors.rank)
        stats = RefineStats()
        t0 = time.perf_counter()
        matching = local_search(
            matching, graph_a, graph_b, tensor_a, tensor_b, factors, ropts, stats=stats
        )
        refine_seconds = time.perf_counter() - t0
        knn_seconds, knn_widths = stats.knn_seconds, stats.knn_widths
        counters = asdict(stats)
    final = {
        "best_index": output.best_index,
        "best_score": output.best_score,
        "converged": output.converged,
        "matching_size": len(matching),
        "motifs_aligned": motifs_aligned(matching, tensor_a, tensor_b),
        "edges_aligned": edges_aligned(matching, graph_a, graph_b),
        "accuracy": None if truth is None else accuracy(matching, truth),
        "max_rank": max((s.rank for s in output.per_iteration if s.rank), default=None),
        "used_accumulation": any(s.path == "accumulate" for s in output.per_iteration),
    }
    record = {
        "schema_version": rec.SCHEMA_VERSION,
        "kind": "align",
        "method": method,
        "motif_order": args.motif,
        "refine": {
            "kind": refine,
            "k_neighbors": ropts.k_neighbors,
            "resolved_k": resolved_k,
            "knn_widths": knn_widths,
            "max_sweeps": args.sweeps,
            **counters,
        },
        "options": {
            "alpha": args.alpha,
            "beta": args.beta,
            "max_iter": args.iters,
            "tol": args.tol,
            "column_cap": kron.COLUMN_CAP,
            # one matching policy per method; the field stays until a schema bump
            "match_every": "auto",
        },
        "problem": {
            "n_a": graph_a.n,
            "n_b": graph_b.n,
            "edges_a": graph_a.num_edges,
            "edges_b": graph_b.num_edges,
            "nnz_a": tensor_a.nnz,
            "nnz_b": tensor_b.nnz,
        },
        "seed": seed,
        "environment": rec.environment(),
        "per_iteration": rec.iteration_entries(output),
        "final": final,
        "timings": {
            "tensor_seconds": tensor_seconds,
            "method_seconds": method_seconds,
            "contraction_seconds": sum(
                s.contraction_seconds for s in output.per_iteration
            ),
            "matching_seconds": sum(
                s.matching_seconds for s in output.per_iteration
            ),
            "rank_reveal_seconds": sum(
                s.rank_reveal_seconds for s in output.per_iteration
            ),
            "refine_seconds": refine_seconds,
            "knn_seconds": knn_seconds,
            "total_seconds": time.perf_counter() - t_start,
        },
    }
    return record, matching


def cmd_align(args) -> int:
    opts, ropts = _options(args, [args.method])
    graph_a = load_edge_list(args.graph_a)
    graph_b = load_edge_list(args.graph_b)
    for path, graph in ((args.graph_a, graph_a), (args.graph_b, graph_b)):
        if graph.n == 0:
            raise TenalignError(f"{path}: graph has no vertices")
    truth = rec.load_truth(args.truth) if args.truth else None
    if truth is not None and (len(truth) > graph_a.n or truth.max(initial=-1) >= graph_b.n):
        raise TenalignError(
            f"{args.truth}: truth of {len(truth)} rows with B-ids up to "
            f"{truth.max() + 1} does not fit graphs of {graph_a.n} and {graph_b.n} vertices"
        )
    record, matching = _align_once(
        graph_a, graph_b, truth, args, opts, ropts, args.method, args.refine, args.seed
    )
    rec.write_records(args.out, [record])
    if args.matching_out:
        rec.save_matching(matching, args.matching_out)
    return 0


def _int_list(raw: str, flag: str, low: int) -> list:
    """Comma-separated integers of a flag, each at least ``low``."""
    try:
        values = [int(v) for v in raw.split(",") if v]
    except ValueError:
        raise TenalignError(f"{flag} must be a comma list of integers, got {raw!r}") from None
    if not values:
        raise TenalignError(f"{flag} must be nonempty")
    if min(values) < low:
        raise TenalignError(f"{flag} entries must be >= {low}, got {min(values)}")
    return values


def _trials(args) -> int:
    if args.trials < 0:
        raise TenalignError(f"--trials must be >= 0, got {args.trials}")
    return args.trials


def cmd_eigcheck(args) -> int:
    dims = _int_list(args.dims, "--dims", 1)
    orders = _int_list(args.orders, "--orders", 2)
    if args.restarts < 1:
        raise TenalignError(f"--restarts must be >= 1, got {args.restarts}")
    if not TOL_FLOOR <= args.tol < math.inf:
        raise TenalignError(f"--tol must be finite and at least {TOL_FLOOR:g}, got {args.tol}")
    # the largest dimension and order may be drawn together in any trial
    size = (max(dims) ** 2) ** max(orders)
    if size > kron.EXPLICIT_BUDGET:
        raise TenalignError(
            f"--dims and --orders allow a product tensor of {size} entries (dimension "
            f"{max(dims)}, order {max(orders)}), over kron.EXPLICIT_BUDGET ({kron.EXPLICIT_BUDGET})"
        )
    out_records = []
    root = np.random.SeedSequence(args.seed)
    for trial, child in enumerate(root.spawn(_trials(args))):
        rng = np.random.default_rng(child)
        m = int(rng.choice(dims))
        n = int(rng.choice(dims))
        k = int(rng.choice(orders))
        tensor_a = random_symmetric_tensor(m, k, rng)
        tensor_b = random_symmetric_tensor(n, k, rng)
        t0 = time.perf_counter()
        report = verify_decoupling(
            tensor_a, tensor_b, restarts=args.restarts,
            seed=int(rng.integers(1 << 62)), tol=args.tol,
        )
        out_records.append(
            {
                "schema_version": rec.SCHEMA_VERSION,
                "kind": "eigcheck",
                "trial": trial,
                "dim_a": m,
                "dim_b": n,
                "order": k,
                "restarts": args.restarts,
                "tol": args.tol,
                "seed": args.seed,
                "lambda_a": report.lambda_a,
                "lambda_b": report.lambda_b,
                "lambda_kron": report.lambda_kron,
                "eig_gap": report.eig_gap,
                "vec_gap": report.vec_gap,
                "converged": report.all_converged,
                "solver": {key: asdict(stats) for key, stats in report.solver.items()},
                "environment": rec.environment(),
                "solve_seconds": time.perf_counter() - t0,
            }
        )
    rec.write_records(args.out, out_records)
    return 0


def _parse_run_combos(raw: str):
    combos = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "+" in item:
            method, refine = item.split("+", 1)
        else:
            method, refine = item, "none"
        if method not in METHODS or refine not in REFINES:
            raise TenalignError(f"invalid run combo {item!r}")
        combos.append((method, refine))
    if not combos:
        raise TenalignError("--run specified but no combos parsed")
    return combos


def _model_params(args) -> dict:
    """The noise parameters of ``synth``'s model flags.

    Called before any file is written; a bad value raises a
    :class:`TenalignError` naming its flag.
    """
    if args.n < 1:
        raise TenalignError(f"--n must be >= 1, got {args.n}")
    for flag, value in (("--p", args.p), ("--pedge", args.pedge)):
        if not 0.0 <= value <= 1.0:
            raise TenalignError(f"{flag} must lie in [0, 1], got {value}")
    if not 0.0 <= args.frac < math.inf:
        raise TenalignError(f"--frac must be finite and >= 0, got {args.frac}")
    if args.model == "er":
        return {"p": args.p}
    return {"frac": args.frac, "p_edge": args.pedge}


def cmd_synth(args) -> int:
    trials = _trials(args)
    params = _model_params(args)
    combos = _parse_run_combos(args.run) if args.run else []
    opts, ropts = _options(args, [method for method, _ in combos])
    os.makedirs(args.out, exist_ok=True)
    problems = []
    run_records = []
    root = np.random.SeedSequence(args.seed)
    # every method runs before the first file is written, so a run that
    # fails leaves no trial files behind
    for trial, child in enumerate(root.spawn(trials)):
        problem = make_problem(args.n, args.model, dict(params), seed=child)
        problems.append(problem)
        for method, refine in combos:
            record, _ = _align_once(
                problem.graph_a, problem.graph_b, problem.truth,
                args, opts, ropts, method, refine, args.seed,
            )
            record["kind"] = "synth-trial"
            record["trial"] = trial
            record["provenance"] = dict(problem.provenance, seed=args.seed)
            run_records.append(record)
    problem_records = []
    for trial, problem in enumerate(problems):
        stem = os.path.join(args.out, f"trial{trial:03d}")
        save_edge_list(problem.graph_a, stem + "_a.el")
        save_edge_list(problem.graph_b, stem + "_b.el")
        rec.save_truth(problem.truth, stem + "_truth.tsv")
        problem_records.append(
            {
                "schema_version": rec.SCHEMA_VERSION,
                "kind": "synth-problem",
                "trial": trial,
                "provenance": dict(problem.provenance, seed=args.seed),
                "files": {
                    "graph_a": stem + "_a.el",
                    "graph_b": stem + "_b.el",
                    "truth": stem + "_truth.tsv",
                },
                "n_a": problem.graph_a.n,
                "n_b": problem.graph_b.n,
                "edges_a": problem.graph_a.num_edges,
                "edges_b": problem.graph_b.num_edges,
            }
        )
    rec.write_records(os.path.join(args.out, "problems.jsonl"), problem_records)
    if combos:
        rec.write_records(os.path.join(args.out, "records.jsonl"), run_records)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one BLAS thread: faster on these shapes, and the same last bits on
    # any core count (see tenalign._blas)
    with _blas.one_thread():
        try:
            if args.command == "align":
                return cmd_align(args)
            if args.command == "eigcheck":
                return cmd_eigcheck(args)
            if args.command == "synth":
                return cmd_synth(args)
            parser.error(f"unknown command {args.command!r}")
        except (TenalignError, OSError, ValueError) as exc:
            print(f"tenalign: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
