"""Golden records: one small problem through ``align`` with every method.

The reference in ``tests/data/golden_align_n30.json`` was captured before
the clique join, the sorted-code motif counts and the one-pass pair scoring
replaced the code they stand for, and it pins what those changes promise to
keep: per-iteration ranks and scores, the final counts, the refinement
counters and the matching.  Integers and matched pairs must be equal; float
fields must agree to a relative ``1e-12``.

A change that is meant to move results regenerates the reference with
``PYTHONPATH=src python tests/test_golden_records.py`` and says why.
"""

import json
import math
import os

import pytest

from tenalign import cli
from tenalign import records as rec
from tenalign.graphs import save_edge_list
from tenalign.synth import make_problem

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_align_n30.json")
RUNS = (
    ("tame", "none"),
    ("lowrank-tame", "none"),
    ("lambda-tame", "none"),
    ("lambda-tame", "local-search"),
)
FINAL_KEYS = (
    "best_index",
    "best_score",
    "converged",
    "matching_size",
    "motifs_aligned",
    "edges_aligned",
    "accuracy",
    "max_rank",
    "used_accumulation",
)
REFINE_KEYS = ("sweeps", "candidates_scored", "swaps_accepted")
REL = 1e-12


def run_all(workdir) -> dict:
    """The pinned fields of each run on the n=30 ER problem, seed 4."""
    problem = make_problem(30, "er", {"p": 0.05}, seed=4)
    paths = {name: os.path.join(workdir, name) for name in ("a.el", "b.el", "truth.tsv")}
    save_edge_list(problem.graph_a, paths["a.el"])
    save_edge_list(problem.graph_b, paths["b.el"])
    rec.save_truth(problem.truth, paths["truth.tsv"])
    out = {}
    for method, refine in RUNS:
        name = f"{method}+{refine}"
        record_path = os.path.join(workdir, name + ".jsonl")
        matching_path = os.path.join(workdir, name + ".pairs")
        code = cli.main([
            "align", "--graph-a", paths["a.el"], "--graph-b", paths["b.el"],
            "--truth", paths["truth.tsv"], "--method", method, "--refine", refine,
            "--alpha", "0.5", "--beta", "1", "--iters", "8",
            "--out", record_path, "--matching-out", matching_path,
        ])
        assert code == 0
        (record,) = rec.load_records(record_path)
        matching = rec.load_matching(matching_path)
        out[name] = {
            "per_iteration": [
                {"rank": s["rank"], "score": s["score"]} for s in record["per_iteration"]
            ],
            "final": {key: record["final"][key] for key in FINAL_KEYS},
            "refine": {key: record["refine"][key] for key in REFINE_KEYS},
            "pairs": [list(p) for p in matching.pairs],
            "weight": matching.weight,
        }
    return out


def assert_close(got, want, where="") -> None:
    """Equal structure; floats to relative ``REL``, everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("run", [f"{m}+{r}" for m, r in RUNS])
def test_matches_golden_record(results, run):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)[run]
    assert_close(results[run], want, run)


def test_golden_runs_do_work():
    """The reference exercises every pinned part: motifs, ranks and swaps."""
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden.keys() == {f"{m}+{r}" for m, r in RUNS}
    for entry in golden.values():
        assert entry["final"]["motifs_aligned"] > 0 and entry["pairs"]
    assert any(s["rank"] for s in golden["lowrank-tame+none"]["per_iteration"])
    assert golden["lambda-tame+local-search"]["refine"]["swaps_accepted"] > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = run_all(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
