"""One workload process: set up, run operations in a closed loop, check them.

``run.py`` starts this file in a fresh interpreter, with the BLAS and OpenMP
thread caps already in its environment, and reads the JSON it writes to
``<workdir>/result.json``.  One client issues operations back to back,
cycling through the run's inputs for about ``--seconds`` (see ``measure``).
With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured on the same inputs at the same time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Checker, make_inputs, tiny  # noqa: E402


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from tenalign import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "using_numba": _kernels.using_numba(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Loop:
    """Closed-loop client over the run's inputs, with output checks."""

    def __init__(self, inputs):
        from tenalign import cli

        self.main = cli.main
        self.inputs = inputs
        self.checkers = [Checker(item) for item in inputs]
        self.wall = {item.index: [] for item in inputs}
        self.cpu = {item.index: [] for item in inputs}
        self.traced_wall = {item.index: [] for item in inputs}
        self.quality = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, item, tracer=None) -> None:
        self.attempted += 1
        code = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.main(item.argv)
            else:
                code = tracer.run_op(self.attempted, self.main, item.argv)
        except Exception:  # an operation that raises is a failed operation
            self.problems.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is None:
            self.wall[item.index].append(wall)
            self.cpu[item.index].append(cpu)
        else:
            self.traced_wall[item.index].append(wall)
        problems = [] if code == 0 else [f"input {item.index}: exit code {code}"]
        if code == 0:
            found, quality = self.checkers[item.index].check()
            problems += [f"input {item.index}: {p}" for p in found]
            self.quality.setdefault(item.index, quality)
        if problems or code is None:
            self.failed += 1
            self.problems += problems

    def run_pass(self, tracer=None) -> None:
        for item in self.inputs:
            self.one(item, tracer)


def per_op(samples: dict) -> float:
    """Each input's median over its repeats, averaged over the inputs."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def layer_metrics(tracer, traced_ops: int, inputs: int, pass_counts) -> dict:
    seconds, calls = {}, {}
    self_s = tracer.self_seconds()
    self_by = {}
    for span, own in zip(tracer.spans, self_s):
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        self_by[span.name] = self_by.get(span.name, 0.0) + own

    def s(name):
        return seconds.get(name, 0.0) / traced_ops

    def c(name):
        return calls.get(name, 0) / traced_ops

    def count(name):
        return pass_counts.get(name, 0) / inputs

    changed = pass_counts.get("refine.pairs_changed", 0)
    matched = pass_counts.get("refine.matched_pairs", 0)
    return {
        "graphs.load_edge_list_s": s("graphs.load_edge_list"),
        "graphs.clique_tensor_s": s("graphs.clique_tensor"),
        "graphs.cliques": count("graphs.cliques"),
        "tensors.ttv_same_s": s("tensors.ttv_same"),
        "tensors.ttv_same_calls": c("tensors.ttv_same"),
        "kron.implicit_kron_ttv_s": s("kron.implicit_kron_ttv"),
        "kron.implicit_kron_ttv_calls": c("kron.implicit_kron_ttv"),
        "kron.implicit_pairs": count("kron.implicit_pairs"),
        "kron.lowrank_kron_ttv_s": s("kron.lowrank_kron_ttv"),
        "kron.lowrank_kron_ttv_calls": c("kron.lowrank_kron_ttv"),
        "kron.expand_columns": count("kron.expand_columns"),
        "kron.expand_bytes": count("kron.expand_bytes"),
        "kron.explicit_kron_s": s("kron.explicit_kron"),
        "align.method_s": s("align.method"),
        "align.self_s": self_by.get("align.method", 0.0) / traced_ops,
        "align.rank_reveal_s": s("align.rank_reveal"),
        "align.rank_reveal_calls": c("align.rank_reveal"),
        "align.iterations": count("align.iterations"),
        "align.max_rank": tracer.maxima.get("align.max_rank", 0),
        "matching.max_weight_matching_s": s("matching.max_weight_matching"),
        "matching.max_weight_matching_calls": c("matching.max_weight_matching"),
        "matching.cells": count("matching.cells"),
        "matching.motifs_aligned_s": s("matching.motifs_aligned"),
        "matching.motifs_aligned_calls": c("matching.motifs_aligned"),
        "refine.local_search_s": s("refine.local_search"),
        "refine.pairs_changed": count("refine.pairs_changed"),
        "refine.motif_gain": count("refine.motif_gain"),
        "refine.useful_frac": changed / matched if matched else 0.0,
        "eigen.verify_decoupling_s": s("eigen.verify_decoupling"),
        "eigen.dominant_eigen_operand_s": s("eigen.dominant_eigen_operand"),
        "eigen.dominant_eigen_product_s": s("eigen.dominant_eigen_product"),
        "eigen.dominant_eigen_calls": c("eigen.dominant_eigen_operand")
        + c("eigen.dominant_eigen_product"),
        "records.write_records_s": s("records.write_records"),
        "cli.self_s": self_by.get("cli.main", 0.0) / traced_ops,
    }


def measure(loop, seconds: float, trace: bool, trace_path) -> dict:
    """Measure for about ``seconds``, starting nothing that would end after them.

    Untraced, one whole pass over the inputs runs first; then the inputs
    follow in the same order while the next one's previous time still fits.
    Traced, whole rounds of an untraced and a traced pass run, at least one,
    so that every traced pass does the same work.
    """
    start = time.perf_counter()

    def another(round_start: float) -> bool:
        now = time.perf_counter()
        return now - start + (now - round_start) <= seconds

    if not trace:
        loop.run_pass()
        for item in itertools.cycle(loop.inputs):
            if time.perf_counter() - start + loop.wall[item.index][-1] > seconds:
                return {}
            loop.one(item)
    from spans import Tracer

    tracer = Tracer()
    pass_counts = None
    traced_passes = 0
    while True:
        round_start = time.perf_counter()
        loop.run_pass()
        before = dict(tracer.counts)
        with tracer:
            loop.run_pass(tracer)
        traced_passes += 1
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        if pass_counts is None:
            pass_counts = counts
        elif counts != pass_counts:
            loop.failed += 1
            loop.problems.append(f"work counts changed between traced passes: {counts} != {pass_counts}")
        if not another(round_start):
            break
    errors = tracer.nesting_errors()
    errors += [
        f"span {sp.sid} {sp.name} has negative self time {own}"
        for sp, own in zip(tracer.spans, tracer.self_seconds())
        if own < 0
    ]
    if errors:
        loop.failed += 1
        loop.problems += errors[:5]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    n_inputs = len(loop.inputs)
    layers = layer_metrics(tracer, traced_passes * n_inputs, n_inputs, pass_counts)
    layers["trace.overhead_s"] = per_op(loop.traced_wall) - per_op(loop.wall)
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    import tenalign  # noqa: F401  (the import every CLI user pays)

    t0 = time.perf_counter()
    inputs = make_inputs(workload, args.seed, args.workdir)
    generate_s = (time.perf_counter() - t0) / len(inputs)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        loop = Loop(inputs)
        trace_path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        layers = measure(loop, args.seconds, bool(args.trace), trace_path)
        if layers:
            layers["synth.generate_s"] = generate_s
            for key in ("motifs_aligned", "edges_aligned", "accuracy"):
                values = [q[key] for q in loop.quality.values() if key in q]
                layers[f"final.{key}"] = statistics.fmean(values) if values else 0.0
            layers["eigen.trials_over_bound"] = sum(
                q.get("trials_over_bound", 0) for q in loop.quality.values()
            )
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            problems=loop.problems[:10],
            samples=sum(len(v) for v in loop.wall.values()),
            op_s=per_op(loop.wall),
            cpu_s=per_op(loop.cpu),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            per_input=[
                {
                    "index": i,
                    "part": loop.inputs[i].part.name,
                    "ops": len(loop.wall[i]),
                    "median_s": statistics.median(loop.wall[i]),
                    "quality": loop.quality.get(i, {}),
                }
                for i in sorted(loop.wall)
            ],
            layers=layers,
            environment=environment(args.seed),
        )
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
