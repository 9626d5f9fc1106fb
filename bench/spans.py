"""Spans and exact work counts around the public functions of each layer.

The tracer wraps functions by replacing their names in the namespaces of the
modules that call them (``tenalign.cli``, ``tenalign.align``,
``tenalign.eigen``, and the ``write_records`` attribute of
``tenalign.records``), so the program under test is not edited.  Private
helpers are not wrapped: the kNN table and the candidate swaps scored inside
``refine.local_search`` wait for spans inside the program.

Each span keeps its name, start, end, parent span and operation id in memory;
``write`` stores them as JSON lines when the run ends.  A span's self time is
its duration minus the durations of its direct children (children of one
parent never overlap: the program is single-threaded Python around its BLAS
calls).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._deferred: list = []
        self._products: list = []
        self._saved: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Run one operation under a root span named ``cli.main``."""
        self.op = op
        span = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(span)
            for job in self._deferred:
                job()
            self._deferred.clear()
            self._products.clear()

    def count(self, name: str, amount) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def defer(self, job) -> None:
        """Run ``job`` when the current operation ends, outside every span."""
        self._deferred.append(job)

    def note_product(self, tensor) -> None:
        """Remember an ``explicit_kron`` result of the current operation."""
        self._products.append(tensor)

    def is_product(self, tensor) -> bool:
        return any(tensor is p for p in self._products)

    def wrap(self, fn, name, on_result=None):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            label = name(self, args) if callable(name) else name
            span = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for module_name, attr, name, on_result in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, on_result))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        return [span.seconds - child[span.sid] for span in self.spans]

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's interval or operation."""
        errors = []
        for span in self.spans:
            if span.parent is None:
                if span.name != "cli.main":
                    errors.append(f"span {span.sid} {span.name} has no parent")
                continue
            up = self.spans[span.parent]
            if not (up.start <= span.start <= span.end <= up.end) or up.op != span.op:
                errors.append(f"span {span.sid} {span.name} escapes parent {up.sid} {up.name}")
        return errors

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- work counts, computed from wrapper arguments and results ---------------


def _cliques(tracer, args, result):
    tracer.count("graphs.cliques", result.nnz)


def _implicit(tracer, args, result):
    pair = args["pair"]
    tracer.count("kron.implicit_pairs", pair.a.nnz * pair.b.nnz)


def _lowrank(tracer, args, result):
    pair = args["pair"]
    columns = np.shape(args["U"])[1] ** (pair.order - 1)
    tracer.count("kron.expand_columns", columns)
    # bytes of the two expanded float64 factor blocks the call returns
    tracer.count("kron.expand_bytes", columns * (pair.dim_a + pair.dim_b) * 8)


def _cells(tracer, args, result):
    m, n = np.shape(args["X"])
    tracer.count("matching.cells", m * n)


def _method(tracer, args, result):
    tracer.count("align.iterations", len(result.per_iteration))
    ranks = [s.rank for s in result.per_iteration if s.rank]
    tracer.maximum("align.max_rank", max(ranks, default=0))


def _local_search(tracer, args, result):
    from tenalign.matching import motifs_aligned

    before = args["matching"]

    def job():
        tracer.count("refine.pairs_changed", int(np.sum(before.row_map() != result.row_map())))
        tracer.count("refine.matched_pairs", len(result))
        tracer.count(
            "refine.motif_gain",
            motifs_aligned(result, args["tensor_a"], args["tensor_b"])
            - motifs_aligned(before, args["tensor_a"], args["tensor_b"]),
        )

    tracer.defer(job)


def _product(tracer, args, result):
    tracer.note_product(result)


def _dominant_name(tracer, args):
    if tracer.is_product(args[0]):
        return "eigen.dominant_eigen_product"
    return "eigen.dominant_eigen_operand"


# (module, attribute, span name, count hook): the calling namespaces.
PATCHES = (
    ("tenalign.cli", "load_edge_list", "graphs.load_edge_list", None),
    ("tenalign.cli", "clique_tensor", "graphs.clique_tensor", _cliques),
    ("tenalign.cli", "tame", "align.method", _method),
    ("tenalign.cli", "lowrank_tame", "align.method", _method),
    ("tenalign.cli", "lambda_tame", "align.method", _method),
    ("tenalign.cli", "local_search", "refine.local_search", _local_search),
    ("tenalign.cli", "motifs_aligned", "matching.motifs_aligned", None),
    ("tenalign.cli", "edges_aligned", "matching.edges_aligned", None),
    ("tenalign.cli", "accuracy", "matching.accuracy", None),
    ("tenalign.cli", "verify_decoupling", "eigen.verify_decoupling", None),
    ("tenalign.records", "write_records", "records.write_records", None),
    ("tenalign.align", "implicit_kron_ttv", "kron.implicit_kron_ttv", _implicit),
    ("tenalign.align", "lowrank_kron_ttv", "kron.lowrank_kron_ttv", _lowrank),
    ("tenalign.align", "max_weight_matching", "matching.max_weight_matching", _cells),
    ("tenalign.align", "motifs_aligned", "matching.motifs_aligned", None),
    ("tenalign.align", "ttv_same", "tensors.ttv_same", None),
    ("tenalign.align", "rank_reveal", "align.rank_reveal", None),
    ("tenalign.eigen", "explicit_kron", "kron.explicit_kron", _product),
    ("tenalign.eigen", "dominant_eigen", _dominant_name, None),
)
