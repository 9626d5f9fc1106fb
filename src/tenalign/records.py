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
from .graphs import parse_ints
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# weight: {matching.weight:.17g}\n")
        fh.write(f"# shape: {matching.n_rows} {matching.n_cols}\n")
        for i, j in matching.pairs:
            fh.write(f"{i + 1} {j + 1}\n")


def load_matching(path) -> Matching:
    """Read a :func:`save_matching` file, whose ``# shape:`` header precedes the
    pairs; a bad line raises :class:`InputFormatError` naming it."""
    weight = 0.0
    shape = None
    pairs, rows, cols = [], set(), set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            where = f"{path}:{lineno}"
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("weight:"):
                    try:
                        weight = float(body.split(":", 1)[1])
                    except ValueError:
                        raise InputFormatError(f"{where}: bad weight {line!r}") from None
                elif body.startswith("shape:"):
                    shape = _pair(body.split(":", 1)[1].split(), where, line)
                    if min(shape) < 0:
                        raise InputFormatError(f"{where}: negative shape {line!r}")
            elif line:
                if shape is None:
                    raise InputFormatError(f"{where}: pair before the '# shape:' header")
                i, j = _pair(line.split(), where, line)
                if not (1 <= i <= shape[0] and 1 <= j <= shape[1]):
                    raise InputFormatError(
                        f"{where}: ids are 1-based and within the shape header, got {line!r}"
                    )
                if i in rows or j in cols:
                    raise InputFormatError(f"{where}: vertex matched twice in {line!r}")
                rows.add(i)
                cols.add(j)
                pairs.append((i - 1, j - 1))
    if shape is None:
        raise InputFormatError(f"{path}: no '# shape:' header")
    return Matching(*shape, pairs, weight)


def _pair(parts, where, line):
    if len(parts) < 2:
        raise InputFormatError(f"{where}: expected two integers, got {line!r}")
    return parse_ints(parts[:2], where)


def save_truth(truth: np.ndarray, path) -> None:
    """Ground-truth permutation as 1-based ``A-id B-id`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in enumerate(np.asarray(truth).tolist()):
            fh.write(f"{i + 1} {j + 1}\n")


def load_truth(path) -> np.ndarray:
    """Read ``A-id B-id`` rows (1-based) into ``truth[a] = b`` (0-based).

    Each A-id and each B-id may appear once, the A-ids must cover ``1..N``,
    and there must be at least one row; violations raise
    :class:`InputFormatError`.
    """
    mapping = {}
    seen_b = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            a, b = _pair(line.split(), where, line)
            if a < 1 or b < 1:
                raise InputFormatError(f"{where}: ids are 1-based, got {line!r}")
            if a - 1 in mapping:
                raise InputFormatError(f"{where}: A-id {a} repeated")
            if b - 1 in seen_b:
                raise InputFormatError(f"{where}: B-id {b} repeated")
            mapping[a - 1] = b - 1
            seen_b.add(b - 1)
    if not mapping:
        raise InputFormatError(f"{path}: truth file holds no A-id B-id rows")
    size = max(mapping) + 1
    if sorted(mapping) != list(range(size)):
        raise InputFormatError(f"{path}: truth file must cover ids 1..{size}")
    return np.array([mapping[i] for i in range(size)], dtype=np.int64)
