"""Structured run records and the small text file formats.

Records are line-delimited JSON with a versioned schema; every record embeds
the parameters that produced it.  Timing fields all end in ``_seconds`` so
two runs of the same seed can be compared modulo wall-clock noise.
"""

from __future__ import annotations

import json

import numpy as np

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
]

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_records(path, records) -> None:
    """Write an iterable of dicts as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")


def load_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def iteration_entries(output) -> list:
    """Per-iteration metrics of an :class:`~tenalign.align.AlignmentOutput`."""
    entries = []
    for s in output.per_iteration:
        entries.append(
            {
                "index": s.index,
                "lambda": s.lam,
                "rank": s.rank,
                "score": s.score,
                "sigma_ratio": s.sigma_ratio,
                "path": s.path,
                "contraction_seconds": s.contraction_seconds,
                "matching_seconds": s.matching_seconds,
            }
        )
    return entries


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
    weight = 0.0
    n_rows = n_cols = 0
    pairs = []
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
                    n_rows, n_cols = _pair(body.split(":", 1)[1].split(), where, line)
            elif line:
                i, j = _pair(line.split(), where, line)
                pairs.append((i - 1, j - 1))
    try:
        return Matching(n_rows, n_cols, pairs, weight)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


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

    Each A-id and each B-id may appear once, and the A-ids must cover
    ``1..N``; violations raise :class:`InputFormatError`.
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
        return np.empty(0, dtype=np.int64)
    size = max(mapping) + 1
    if sorted(mapping) != list(range(size)):
        raise InputFormatError(f"{path}: truth file must cover ids 1..{size}")
    return np.array([mapping[i] for i in range(size)], dtype=np.int64)
