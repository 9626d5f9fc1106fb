"""Golden records: a small ``eigcheck`` grid through the command line.

The reference in ``tests/data/golden_eigcheck.json`` was captured before the
per-phase power batch of ``eigen.dominant_eigen`` replaced the one batch per
(sign, shift) config, and it pins what that change promises to keep: every
trial's shape, its convergence and the three dominant eigenvalues with the
gaps between them.  Integers, flags and strings must be equal; the
eigenvalues must agree to a relative ``1e-12`` and the gaps to an absolute
``1e-12``.  Batched BLAS products may round the last bits differently for a
different number of columns, so exact float equality is not promised.  The
batched Newton polish that replaced the serial one moved such last bits
(by at most 1.5e-15 relative on a lambda) and kept this reference as it was.
The ``solver`` block of each trial (the solver counters of ``eigen.EigenStats``)
was added to the reference later, with no other value changed; its counts are
integers and must be equal.

A change that is meant to move results regenerates the reference with
``PYTHONPATH=src python tests/test_golden_eigcheck.py`` and says why.
"""

import json
import math
import os

import pytest

from tenalign import cli
from tenalign import records as rec

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_eigcheck.json")
ARGV = (
    "eigcheck", "--dims", "2,3", "--orders", "3,4,5",
    "--trials", "6", "--restarts", "300", "--seed", "5",
)
REL_KEYS = ("lambda_a", "lambda_b", "lambda_kron")
ABS_KEYS = ("eig_gap", "vec_gap")
TOL = 1e-12


def run_grid(workdir) -> list:
    """The records of the pinned grid, without their timing fields and their
    ``environment`` block, which describe the machine and not the result."""
    out = os.path.join(workdir, "eig.jsonl")
    assert cli.main([*ARGV, "--out", out]) == 0
    return [
        {k: v for k, v in rec.strip_timing(r).items() if k != "environment"}
        for r in rec.load_records(out)
    ]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_grid(str(tmp_path_factory.mktemp("golden_eig")))


def golden() -> list:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trial", range(6))
def test_matches_golden_record(results, trial):
    got, want = results[trial], golden()[trial]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in REL_KEYS:
            assert math.isclose(got[key], value, rel_tol=TOL, abs_tol=0.0), (key, got[key], value)
        elif key in ABS_KEYS:
            assert abs(got[key] - value) <= TOL, (key, got[key], value)
        else:
            assert type(got[key]) is type(value) and got[key] == value, (key, got[key], value)


def test_golden_grid_covers_the_shapes():
    """The reference holds every order, both dimensions and converged trials."""
    records = golden()
    assert len(records) == 6
    assert {r["order"] for r in records} == {3, 4, 5}
    assert {r["dim_a"] for r in records} | {r["dim_b"] for r in records} == {2, 3}
    assert all(r["converged"] for r in records)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = run_grid(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
