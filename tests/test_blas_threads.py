"""CLI commands run on one OpenBLAS thread, whatever the environment caps.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads, and the
thread count changes the last bits of the rank reveal's QR and SVD, so
``lowrank-tame`` records and matchings used to follow the core count.
``cli.main`` pins one thread through ``tenalign._blas`` and sets the
caller's count back when it returns.
"""

import os
import subprocess
import sys

import pytest

import tenalign
from tenalign import _blas
from tenalign.cli import main
from tenalign.graphs import save_edge_list
from tenalign.records import load_records, strip_timing
from tenalign.synth import make_problem

needs_openblas = pytest.mark.skipif(
    _blas._library() is None, reason="numpy links no OpenBLAS"
)


@pytest.fixture(scope="module")
def er100(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("er100")
    problem = make_problem(100, "er", {"p": 0.05}, seed=1)
    paths = {"a": str(tmp / "a.el"), "b": str(tmp / "b.el")}
    save_edge_list(problem.graph_a, paths["a"])
    save_edge_list(problem.graph_b, paths["b"])
    return paths


def _align_argv(paths, out, matching_out):
    return [
        "align", "--graph-a", paths["a"], "--graph-b", paths["b"],
        "--method", "lowrank-tame", "--alpha", "0.5", "--beta", "1",
        "--out", out, "--matching-out", matching_out,
    ]


def _without_machine(record):
    record = strip_timing(record)
    del record["environment"]
    return record


def test_lowrank_records_do_not_depend_on_the_thread_caps(er100, tmp_path):
    # each run is a fresh interpreter, since OpenBLAS reads the variable
    # only when numpy loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(tenalign.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = str(tmp_path / f"run{threads}.jsonl")
        pairs = tmp_path / f"pairs{threads}.txt"
        subprocess.run(
            [sys.executable, "-m", "tenalign.cli", *_align_argv(er100, out, str(pairs))],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        (record,) = load_records(out)
        runs.append((record, pairs.read_bytes()))
    (rec1, pairs1), (rec2, pairs2) = runs
    assert rec1["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert rec2["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert _without_machine(rec1) == _without_machine(rec2)
    assert pairs1 == pairs2


@needs_openblas
def test_main_sets_the_callers_thread_count_back(er100, tmp_path):
    get, put = _blas._library()
    caller = get()
    put(2)
    try:
        out = str(tmp_path / "run.jsonl")
        assert main(_align_argv(er100, out, str(tmp_path / "pairs.txt"))) == 0
        assert _blas.threads() == 2
        assert load_records(out)[0]["environment"]["blas_threads"] == 1
        missing = str(tmp_path / "missing.el")
        bad = _align_argv({"a": missing, "b": er100["b"]}, out, str(tmp_path / "p.txt"))
        assert main(bad) == 2
        assert _blas.threads() == 2
    finally:
        put(caller)


def test_commands_run_without_openblas(er100, tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "_library", lambda: None)
    out = str(tmp_path / "run.jsonl")
    assert main(_align_argv(er100, out, str(tmp_path / "pairs.txt"))) == 0
    (record,) = load_records(out)
    assert record["environment"]["blas_threads"] is None
    assert record["final"]["motifs_aligned"] > 0
