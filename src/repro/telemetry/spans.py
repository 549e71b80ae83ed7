"""Hierarchical span records — the single source of run timing truth.

A :class:`SpanRecord` is one timed region of a run: an engine campaign,
one shard, one kernel stage inside a shard, one block-cache lookup.
Spans nest (``children``), carry free-form ``attrs`` (identity: shard
index, cache outcome, experiment name) and numeric ``counters`` (cost:
items processed, bytes materialized), and are plain picklable
dataclasses, so a worker process can build its shard's subtree lock-free
and ship it to the parent inside the shard metrics it already returns.

Every higher-level timing view in the repository — ``StageProfile``
aggregates, ``ShardMetrics.stage_seconds``, ``EngineMetrics.
stage_totals`` — is derived from these records rather than kept as
parallel bookkeeping, so the JSONL run log, the Perfetto export and the
human-readable summaries can never drift apart.

Determinism contract: the *structure* of a span tree (names, nesting,
attrs, counters except wall-clock) depends only on the workload — the
engine attaches shard subtrees in shard-index order regardless of
completion order, so two runs of the same campaign at different worker
counts flatten to the same sequence of span paths.

Timestamps: ``start`` is ``time.time()`` (epoch seconds — comparable
across worker processes), ``seconds`` is a ``time.perf_counter()``
difference (monotonic duration).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "Telemetry",
    "walk_spans",
    "leaf_totals",
    "sum_by_name",
]


@dataclass
class SpanRecord:
    """One timed region of a run (picklable, nestable)."""

    name: str
    #: Epoch seconds at span start (``time.time()``).
    start: float = 0.0
    #: Wall-clock duration (``time.perf_counter()`` difference).
    seconds: float = 0.0
    #: Identity attributes (shard index, cache outcome, experiment...).
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Numeric cost counters (items, nbytes, calls...).
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)
    #: Process that recorded the span (Perfetto track identity).
    pid: int = field(default_factory=os.getpid)

    def counter(self, name: str, default: float = 0.0) -> float:
        """One counter's value (``default`` when absent)."""
        return self.counters.get(name, default)

    def child(self, name: str) -> Optional["SpanRecord"]:
        """First direct child with ``name`` (``None`` when absent)."""
        for rec in self.children:
            if rec.name == name:
                return rec
        return None

    def as_dict(self) -> Dict[str, object]:
        """Recursive JSON-friendly view (used by the run log)."""
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "pid": self.pid,
            "children": [c.as_dict() for c in self.children],
        }


def walk_spans(
    roots: List[SpanRecord], prefix: str = ""
) -> Iterator[Tuple[str, int, SpanRecord]]:
    """Pre-order ``(path, depth, span)`` traversal of a span forest.

    ``path`` joins span names with ``/`` (``run.fig5/engine.stream/
    shard/pdn``); sibling spans share a path, which is exactly what the
    report layer wants when aggregating per-stage cost.
    """
    for rec in roots:
        path = f"{prefix}/{rec.name}" if prefix else rec.name
        yield path, path.count("/"), rec
        yield from walk_spans(rec.children, path)


def sum_by_name(
    spans: List[SpanRecord], counter: Optional[str] = None
) -> Dict[str, float]:
    """Aggregate sibling spans by name, in first-seen order.

    Sums ``seconds`` (default) or one named counter.
    """
    totals: Dict[str, float] = {}
    for rec in spans:
        value = rec.seconds if counter is None else rec.counter(counter)
        totals[rec.name] = totals.get(rec.name, 0.0) + value
    return totals


def leaf_totals(roots: List[SpanRecord]) -> Dict[str, float]:
    """Summed seconds of *leaf* spans, keyed by span name.

    Leaves are where time is actually spent (kernel stages, cache
    lookups, state restores); interior spans only contain them.  This is
    the stage split the report layer compares across runs.
    """
    totals: Dict[str, float] = {}
    for _path, _depth, rec in walk_spans(roots):
        if not rec.children:
            totals[rec.name] = totals.get(rec.name, 0.0) + rec.seconds
    return totals


class Telemetry:
    """Per-process span recorder with a context-manager API.

    Spans open/close on a plain list stack — no locks, no globals — and
    completed roots accumulate in :attr:`roots`::

        telemetry = Telemetry()
        with telemetry.span("engine.collect", n_items=n) as rec:
            ...
            telemetry.attach(worker_built_subtree)

    Worker processes do not share a recorder: they build their subtree
    with :class:`SpanRecord` directly (via ``StageProfile.to_span``) and
    the parent grafts it with :meth:`attach`, keeping recording
    lock-free per process while the merged tree stays deterministic.
    """

    def __init__(self) -> None:
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[SpanRecord]:
        """Record one span around a code region; attrs are identity."""
        rec = SpanRecord(name=name, start=time.time(), attrs=attrs)
        t0 = time.perf_counter()
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.seconds = time.perf_counter() - t0
            self._stack.pop()
            self.attach(rec)

    def attach(self, rec: SpanRecord) -> None:
        """Graft a completed span under the open span (or as a root)."""
        if self._stack:
            self._stack[-1].children.append(rec)
        else:
            self.roots.append(rec)

    def event(self, name: str, counters: Optional[Dict] = None, **attrs) -> SpanRecord:
        """Record a zero-duration marker span (e.g. a checkpoint)."""
        rec = SpanRecord(
            name=name, start=time.time(), attrs=attrs,
            counters=dict(counters or {}),
        )
        self.attach(rec)
        return rec

    def clear(self) -> None:
        """Drop recorded roots (open spans are unaffected)."""
        self.roots.clear()
