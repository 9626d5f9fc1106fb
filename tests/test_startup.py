"""Start-up guard: scipy's heavy submodules load only where they run.

``scipy.optimize`` (the matching solver) and ``scipy.sparse`` (the incidence
product of the low-rank expansion) are imported inside the functions that
use them, so a process that never matches loads neither.  Each check runs in
a fresh interpreter, since this test process has loaded both long before,
and asserts module presence only, never time.
"""

import json
import os
import subprocess
import sys

import tenalign

LAZY = ("scipy.optimize", "scipy.sparse")

CHILD = """
import json, os, sys, tempfile

import tenalign
from tenalign import cli

LAZY = {lazy!r}
seen = {{"import": [m for m in LAZY if m in sys.modules]}}
with tempfile.TemporaryDirectory() as tmp:
    codes = {{}}
    codes["eigcheck"] = cli.main(["eigcheck", "--dims", "2", "--orders", "3", "--trials", "1",
                                  "--restarts", "50", "--out", os.path.join(tmp, "eig.jsonl")])
    seen["eigcheck"] = [m for m in LAZY if m in sys.modules]
    out = os.path.join(tmp, "synth")
    codes["synth"] = cli.main(["synth", "--n", "20", "--model", "er", "--trials", "1",
                               "--out", out])
    seen["synth"] = [m for m in LAZY if m in sys.modules]
    stem = os.path.join(out, "trial000")
    codes["align"] = cli.main(["align", "--graph-a", stem + "_a.el", "--graph-b", stem + "_b.el",
                               "--truth", stem + "_truth.tsv", "--method", "lambda-tame",
                               "--refine", "local-search", "--iters", "3",
                               "--out", os.path.join(tmp, "align.jsonl")])
print(json.dumps({{"codes": codes, "seen": seen}}))
"""


def run_child():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tenalign.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(lazy=LAZY)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_where_it_runs():
    result = run_child()
    assert result["seen"] == {"import": [], "eigcheck": [], "synth": []}
    assert result["codes"] == {"eigcheck": 0, "synth": 0, "align": 0}
