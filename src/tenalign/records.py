"""Structured run records and the small text file formats.

Records are line-delimited JSON with a versioned schema; every record embeds
the parameters that produced it.  Timing fields all end in ``_seconds`` so
two runs of the same seed can be compared modulo wall-clock noise.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict

import numpy as np
import scipy

from . import _blas
from .errors import InputFormatError
from .graphs import _read_pairs, _write_pairs
from .matching import Matching

__all__ = [
    "SCHEMA_VERSION",
    "write_records",
    "load_records",
    "save_matching",
    "load_matching",
    "save_truth",
    "load_truth",
    "strip_timing",
    "records_equal_modulo_timing",
    "iteration_entries",
    "environment",
]

SCHEMA_VERSION = 1


def _blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


# Read once, at import: the caps this process started with.  The BLAS
# libraries read them when numpy loads, so they set the thread count of
# library calls; CLI commands run on one OpenBLAS thread whatever the caps
# (see tenalign._blas), and ``blas_threads`` records the count in effect.
_BLAS = _blas_build()
_THREAD_CAPS = {
    name: os.environ.get(name)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def _numpy_value(value):
    """``json.dumps`` hook: numpy scalars and arrays as Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_records(path, records) -> None:
    """Write an iterable of dicts as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_numpy_value) + "\n")


def load_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def iteration_entries(output) -> list:
    """The fields of each :class:`~tenalign.align.IterationStats` of an
    :class:`~tenalign.align.AlignmentOutput`, with ``lam`` keyed ``lambda``."""
    return [
        {"lambda" if k == "lam" else k: v for k, v in asdict(s).items()}
        for s in output.per_iteration
    ]


def environment() -> dict:
    """Python, numpy, scipy and BLAS versions, the BLAS thread caps
    (``None`` where unset) of this process and the OpenBLAS thread count in
    effect (``None`` where numpy links no OpenBLAS), for the ``environment``
    block of a run record."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": dict(_BLAS),
        "threads": dict(_THREAD_CAPS),
        "blas_threads": _blas.threads(),
    }


def strip_timing(record):
    """Copy of a record with every ``*_seconds`` field removed, recursively."""
    if isinstance(record, dict):
        return {
            k: strip_timing(v)
            for k, v in record.items()
            if not (isinstance(k, str) and k.endswith("_seconds"))
        }
    if isinstance(record, list):
        return [strip_timing(v) for v in record]
    return record


def records_equal_modulo_timing(a, b) -> bool:
    return strip_timing(a) == strip_timing(b)


def save_matching(matching: Matching, path) -> None:
    """Two-column 1-based vertex pairs with weight and shape headers."""
    shape = f"{matching.n_rows} {matching.n_cols}"
    _write_pairs(path, {"weight": f"{matching.weight:.17g}", "shape": shape}, matching.pairs)


def load_matching(path) -> Matching:
    """Read a :func:`save_matching` file, whose ``# shape:`` header precedes the
    pairs; a bad line raises :class:`InputFormatError` naming it."""
    pairs, where, headers, fault = _read_pairs(path, {"weight": float, "shape": _shape})
    # with no shape header, every pair comes before it
    shape, _, before = headers.get("shape", ((0, 0), None, len(pairs)))
    if before:
        raise InputFormatError(f"{where(0)}: pair before the '# shape:' header")
    outside = np.flatnonzero((pairs >= shape).any(axis=1))
    out = int(outside[0]) if outside.size else len(pairs)
    bad = min(out, _first_repeat(pairs[:, 0]), _first_repeat(pairs[:, 1]))
    if bad < len(pairs):
        rule = "ids are 1-based and within the shape header" if bad == out else "vertex matched twice"
        i, j = pairs[bad] + 1
        raise InputFormatError(f"{where(bad)}: {rule}, got '{i} {j}'")
    if fault:
        raise fault
    if "shape" not in headers:
        raise InputFormatError(f"{path}: no '# shape:' header")
    return Matching(*shape, pairs, headers.get("weight", (0.0,))[0])


def _shape(text: str) -> tuple:
    """The ``m n`` of a ``# shape:`` header; a ValueError unless it holds two
    nonnegative integers."""
    rows, cols = (int(t) for t in text.split()[:2])
    if min(rows, cols) < 0:
        raise ValueError(f"negative shape {rows} {cols}")
    return rows, cols


def _first_repeat(ids: np.ndarray) -> int:
    """Index of the first entry of ``ids`` equal to an earlier one, or ``ids.size``."""
    order = np.argsort(ids, kind="stable")
    later = order[1:][ids[order[1:]] == ids[order[:-1]]]
    return int(later.min(initial=ids.size))


def save_truth(truth: np.ndarray, path) -> None:
    """Ground-truth permutation as 1-based ``A-id B-id`` rows."""
    _write_pairs(path, {}, enumerate(np.asarray(truth).tolist()))


def load_truth(path) -> np.ndarray:
    """Read ``A-id B-id`` rows (1-based) into ``truth[a] = b`` (0-based).

    Each A-id and each B-id may appear once, the A-ids must cover ``1..N``,
    and there must be at least one row; violations raise
    :class:`InputFormatError`.
    """
    pairs, where, _, fault = _read_pairs(path, {})
    a, b = pairs.T
    rep_a, rep_b = _first_repeat(a), _first_repeat(b)
    if rep_a < len(a) and rep_a <= rep_b:
        raise InputFormatError(f"{where(rep_a)}: A-id {a[rep_a] + 1} repeated")
    if rep_b < len(b):
        raise InputFormatError(f"{where(rep_b)}: B-id {b[rep_b] + 1} repeated")
    if fault:
        raise fault
    if not len(a):
        raise InputFormatError(f"{path}: truth file holds no A-id B-id rows")
    if a.max() + 1 != len(a):
        raise InputFormatError(f"{path}: truth file must cover ids 1..{a.max() + 1}")
    truth = np.empty(len(a), dtype=np.int64)
    truth[a] = b
    return truth
