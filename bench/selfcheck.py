"""Quick self-check of the benchmark: ``python3 bench/selfcheck.py``

Runs every workload at a tiny size through ``run.py``, untraced and traced,
and exits nonzero unless:

* every operation passed the same output checks a full run applies;
* the printed metrics are exactly those ``BENCHMARK.json`` names;
* the spans of the traced run nest inside their parents and operations, and
  no span has a negative self time;
* the seed reaches the inputs: one seed writes identical inputs twice,
  another seed writes different ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS as NAMES  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs, tiny  # noqa: E402

SEED = 3


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def span_problems(workload: str) -> list[str]:
    tracer = Tracer()
    path = ROOT / ".bench_work" / "traces" / f"{workload}-seed{SEED}.jsonl"
    with open(path, encoding="utf-8") as fh:
        tracer.spans = [Span(**json.loads(line)) for line in fh]
    problems = tracer.nesting_errors()
    problems += [f"span {s.sid} {s.name} self time {own}"
                 for s, own in zip(tracer.spans, tracer.self_seconds()) if own < 0]
    if not any(s.parent is not None for s in tracer.spans):
        problems.append("no span below cli.main")
    return problems


def inputs_of(workload, seed: int, directory: Path) -> list:
    """What one seed gives a run: input file contents, or the eigcheck seeds."""
    directory.mkdir(parents=True)
    return [
        item.argv[item.argv.index("--seed") + 1]
        if item.part.kind == "eigcheck"
        else [Path(p).read_bytes() for p in (item.graph_a, item.graph_b, item.truth)]
        for item in make_inputs(workload, seed, str(directory))
    ]


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    if sorted(NAMES) != sorted(WORKLOADS) or sorted(NAMES) != sorted(w["name"] for w in spec["workloads"]):
        failures.append("workload names differ between run.py, workloads.py and BENCHMARK.json")
    scratch = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name in NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = run(name, trace)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{name} trace {trace}: {result['failed']} failed operations")
                if list(result["metrics"]) != [m["name"] for m in spec[key]]:
                    failures.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json {key}")
            failures += [f"{name}: {p}" for p in span_problems(name)]
            workload = tiny(WORKLOADS[name])
            first = inputs_of(workload, SEED, scratch / name / "a")
            if first != inputs_of(workload, SEED, scratch / name / "b"):
                failures.append(f"{name}: one seed gave different inputs")
            if first == inputs_of(workload, SEED + 1, scratch / name / "c"):
                failures.append(f"{name}: another seed gave the same inputs")
            print(f"{name}: checked", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
