"""Spans and counters recorded from outside the engine.

A traced run replaces public functions at the module attribute their caller
looks them up through (``trustnet.composite.find_paths`` and so on) with
wrappers that record one span per call: name, start, end, parent span and the
id of the operation it served.  Spans stay in memory; per-layer metrics are
derived from them when the run ends.  Nothing under ``src/`` is modified.

Log scans are counted by handing ``evaluate`` a :class:`CountingLog`, whose
``__iter__`` counts the records each pass yields.  It hands out the plain
list iterator and reads the count back from the iterator's remaining length,
so counting adds nothing per record; ``trace.overhead_ratio`` reports the
cost of the spans themselves.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from trustnet import composite, core, persist, reputation


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    op: Optional[int]
    reads_at_start: int
    end: float = 0.0
    reads: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _find_paths_attrs(result, args) -> dict:
    return {
        "expansions": result.expansions,
        "rows": len(result.rows),
        "discovered": len(result.trustee_rows),
    }


def _propagation_matrix_attrs(result, args) -> dict:
    env = args[0]
    return {"nnz": result.nnz, "edges": len(env.edges)}


def _save_snapshot_attrs(result, args) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attribute extractor).  Each entry is the
# binding a caller resolves at call time: ``evaluate`` reaches the layers
# through ``trustnet.composite``'s globals, ``build_reputation`` reaches its
# steps through ``trustnet.reputation``'s, and the harness calls the entry
# points through their defining modules.
TARGETS: list[tuple[Any, str, str, Optional[Callable]]] = [
    (core, "build_environment", "core.build_environment", None),
    (composite, "evaluate", "composite.evaluate", None),
    (composite, "dt_min", "composite.dt_min", None),
    (composite, "direct_trust", "direct.direct_trust", None),
    (composite, "find_paths", "indirect.find_paths", _find_paths_attrs),
    (composite, "aggregate", "indirect.aggregate", None),
    (composite, "retained_paths", "indirect.retained_paths",
     lambda result, args: {"kept": len(result)}),
    (composite, "reputation_of", "reputation.reputation_of", None),
    (reputation, "build_reputation", "reputation.build_reputation", None),
    (reputation, "reputation_nodes", "reputation.reputation_nodes", None),
    (reputation, "propagation_matrix", "reputation.propagation_matrix",
     _propagation_matrix_attrs),
    (reputation, "pagerank", "reputation.pagerank",
     lambda result, args: {"iterations": result[1]}),
    (persist, "parse_log", "persist.parse_log", None),
    (persist, "save_snapshot", "persist.save_snapshot", _save_snapshot_attrs),
    (persist, "load_snapshot", "persist.load_snapshot", None),
]

BENCH_PREFIX = "bench."


class Tracer:
    """In-memory span recorder; ``install`` patches the engine, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._passes: list[tuple[Any, int]] = []
        self._reads = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self.op: Optional[int] = None

    # -- log-read counting -------------------------------------------------
    def count_pass(self, iterator, length: int) -> None:
        self._passes.append((iterator, length))

    def reads(self) -> int:
        """Records yielded by every counting pass so far.

        An engine scan never spans a span boundary, so every pass registered
        so far is finished (or abandoned) whenever this is called.
        """
        for iterator, length in self._passes:
            self._reads += length - iterator.__length_hint__()
        self._passes.clear()
        return self._reads

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, self.reads()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.reads = self.reads() - span.reads_at_start
        self._stack.pop()
        return span

    def root(self, name: str, op: Optional[int] = None) -> "_Root":
        return _Root(self, BENCH_PREFIX + name, op)

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.finish(index)
            if attrs is not None:
                span.attrs = attrs(result, args)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, attrs in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class _Root:
    def __init__(self, tracer: Tracer, name: str, op: Optional[int]):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        self.tracer.op = self.op
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.index)
        self.tracer.op = None
        return False


class CountingLog(list):
    """A log whose every iteration pass reports the records it yields."""

    def __init__(self, records, tracer: Tracer):
        super().__init__(records)
        self._tracer = tracer

    def __iter__(self):
        iterator = list.__iter__(self)
        self._tracer.count_pass(iterator, len(self))
        return iterator


class NullTracer:
    """Stand-in used by untraced runs: roots cost one attribute lookup."""

    def root(self, name: str, op: Optional[int] = None) -> "NullTracer":
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# -- derived metrics ---------------------------------------------------------

def self_times(spans: list[Span]) -> tuple[list[float], list[int]]:
    """Each span's duration and log reads minus those of its direct children."""
    times = [s.duration for s in spans]
    reads = [s.reads for s in spans]
    for s in spans:
        if s.parent is not None:
            times[s.parent] -= s.duration
            reads[s.parent] -= s.reads
    return times, reads


def _median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], search_steps: Optional[int], overhead_ratio: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are medians per call; counts are means per call.  Every span the
    run recorded contributes, including those of the traced checks (snapshot
    and log round trips on the query workloads, one probe query per epoch on
    ``refresh``), so each layer is measured on every workload.
    """
    own_time, own_reads = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name: str) -> list[float]:
        return [spans[i].duration for i in by_name.get(name, [])]

    def attr(name: str, key: str) -> list[float]:
        return [spans[i].attrs[key] for i in by_name.get(name, [])]

    def reads(name: str) -> list[float]:
        return [spans[i].reads for i in by_name.get(name, [])]

    evaluations = by_name.get("composite.evaluate", [])
    dt_min_reads: dict[int, int] = {}
    for i in by_name.get("composite.dt_min", []):
        parent = spans[i].parent
        dt_min_reads[parent] = dt_min_reads.get(parent, 0) + spans[i].reads
    expansions = attr("indirect.find_paths", "expansions")
    nnz = attr("reputation.propagation_matrix", "nnz")
    edges = attr("reputation.propagation_matrix", "edges")

    # Wall time of the workload proper (set-up and operations) against the
    # self time of the layer spans inside it; the remainder is harness code.
    measured = [i for i, s in enumerate(spans) if s.name in ("bench.setup", "bench.op")]
    inside = set(measured)
    accounted = 0.0
    for i, s in enumerate(spans):
        root = i
        while spans[root].parent is not None:
            root = spans[root].parent
        if root in inside and not s.name.startswith(BENCH_PREFIX):
            accounted += own_time[i]
    wall = sum(spans[i].duration for i in measured)

    return {
        "core.build_environment_s": _median(durations("core.build_environment")),
        "direct.direct_trust_ms": _median(durations("direct.direct_trust"), 1e3),
        "direct.log_records_read": _mean(reads("direct.direct_trust")),
        "indirect.find_paths_ms": _median(durations("indirect.find_paths"), 1e3),
        "indirect.expansions": _mean(expansions),
        "indirect.rows_per_expansion": _ratio(
            sum(attr("indirect.find_paths", "rows")), sum(expansions)
        ),
        "indirect.paths_retained_ratio": _ratio(
            sum(attr("indirect.retained_paths", "kept")),
            sum(attr("indirect.find_paths", "discovered")),
        ),
        "indirect.budget_stop_ratio": _ratio(
            sum(1 for e in expansions if search_steps is not None and e >= search_steps),
            len(expansions),
        ),
        "indirect.log_records_read": _mean(reads("indirect.find_paths")),
        "composite.evaluate_ms": _median(durations("composite.evaluate"), 1e3),
        "composite.self_ms": _median([own_time[i] for i in evaluations], 1e3),
        "composite.dt_min_ms": _median(durations("composite.dt_min"), 1e3),
        "composite.log_records_read": _mean(
            [own_reads[i] + dt_min_reads.get(i, 0) for i in evaluations]
        ),
        "reputation.build_reputation_s": _median(durations("reputation.build_reputation")),
        "reputation.propagation_matrix_s": _median(durations("reputation.propagation_matrix")),
        "reputation.pagerank_s": _median(durations("reputation.pagerank")),
        "reputation.iterations": _mean(attr("reputation.pagerank", "iterations")),
        "reputation.matrix_nnz": _mean(nnz),
        "reputation.nnz_per_edge": _mean([_ratio(a, b) for a, b in zip(nnz, edges)]),
        "persist.parse_log_s": _median(durations("persist.parse_log")),
        "persist.save_snapshot_s": _median(durations("persist.save_snapshot")),
        "persist.load_snapshot_s": _median(durations("persist.load_snapshot")),
        "persist.snapshot_bytes": _mean(attr("persist.save_snapshot", "bytes")),
        "trace.overhead_ratio": overhead_ratio,
        "trace.accounted_ratio": _ratio(accounted, wall),
    }
