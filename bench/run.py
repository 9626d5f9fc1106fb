"""tenalign benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``

Run from the root of a source checkout.  The workload runs in fresh worker
processes (``worker.py``) that import ``tenalign`` from ``src/``, with the
BLAS and OpenMP thread variables capped at the number of usable cores before
numpy is imported.  With ``--trace 0`` it reports the end-to-end metrics:

* ``op_s``: wall seconds of one ``tenalign.cli.main`` call: each input's
  median over its repeats, averaged over the run's inputs;
* ``cpu_s``: process CPU seconds of one call over all threads, the same way;
* ``setup_s``: seconds from the start of a worker process to its first
  operation (``import tenalign``, input generation, writing the files),
  the median of three worker processes;
* ``peak_rss_mb``: peak resident memory of the measuring worker.

With ``--trace 1`` a traced run reports the per-layer split instead (see
``spans.py``).  Every output is checked; ``failed`` counts operations that
raised, exited nonzero or failed a check.  The last line of standard output
is the JSON result; the lines before it say what ran and where.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("align-mix", "eigcheck")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0

END_TO_END = (("op_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# unit of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_UNITS = dict((
    ("synth.generate_s", "s"),
    ("graphs.load_edge_list_s", "s"),
    ("graphs.clique_tensor_s", "s"),
    ("graphs.cliques", "count"),
    ("tensors.ttv_same_s", "s"),
    ("tensors.ttv_same_calls", "count"),
    ("kron.implicit_kron_ttv_s", "s"),
    ("kron.implicit_kron_ttv_calls", "count"),
    ("kron.implicit_pairs", "count"),
    ("kron.lowrank_kron_ttv_s", "s"),
    ("kron.lowrank_kron_ttv_calls", "count"),
    ("kron.expand_columns", "count"),
    ("kron.expand_bytes", "B-computed"),
    ("kron.explicit_kron_s", "s"),
    ("align.method_s", "s"),
    ("align.self_s", "s"),
    ("align.rank_reveal_s", "s"),
    ("align.rank_reveal_calls", "count"),
    ("align.iterations", "count"),
    ("align.max_rank", "count"),
    ("matching.max_weight_matching_s", "s"),
    ("matching.max_weight_matching_calls", "count"),
    ("matching.cells", "count"),
    ("matching.motifs_aligned_s", "s"),
    ("matching.motifs_aligned_calls", "count"),
    ("refine.local_search_s", "s"),
    ("refine.pairs_changed", "count"),
    ("refine.motif_gain", "count"),
    ("refine.useful_frac", "frac"),
    ("eigen.verify_decoupling_s", "s"),
    ("eigen.dominant_eigen_operand_s", "s"),
    ("eigen.dominant_eigen_product_s", "s"),
    ("eigen.dominant_eigen_calls", "count"),
    ("eigen.trials_over_bound", "count"),
    ("records.write_records_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("final.motifs_aligned", "count"),
    ("final.edges_aligned", "count"),
    ("final.accuracy", "frac"),
))


def worker_env() -> dict:
    """This environment with every thread variable capped at the usable cores."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = nproc
        env[var] = str(min(max(current, 1), nproc))
    return env


def run_worker(args, workdir: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned", repr(time.monotonic())]
    subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0), check=True)
    with open(workdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(args, setups: list, result: dict) -> dict:
    """Print what ran and return the final JSON object."""
    print("environment:", json.dumps(result["environment"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload {args.workload}: seed {args.seed}, {attempted} operations "
        f"(closed loop, 1 client), {failed} failed, failed_frac {failed / attempted:.4g}"
    )
    for problem in result["problems"]:
        print("  failed:", problem.rstrip())
    print(
        f"  {result['samples']} untraced samples; no tail percentile, since fewer "
        "than ten samples lie beyond any percentile above the median"
    )
    for item in result["per_input"]:
        print(
            f"  input {item['index']} ({item['part']}): {item['ops']} untraced ops,",
            f"median {item['median_s']:.4f} s,",
            "quality", json.dumps(item["quality"], sort_keys=True),
        )
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = dict(result, setup_s=sorted(setups)[len(setups) // 2])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"  setup_s of {len(setups)} worker processes:", ", ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="run the workload at a tiny size")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tenalign" / "__init__.py").is_file():
        print(f"bench: no tenalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # set-up is timed in fresh processes; only the last one measures
        processes = 1 if args.trace else SETUP_PROCESSES
        setups = []
        for i in range(processes):
            last = i == processes - 1
            result = run_worker(args, work / f"p{i}", env, deadline, setup_only=not last)
            setups.append(result["setup_s"])
        final = report(args, setups, result)
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
