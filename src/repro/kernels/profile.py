"""Stage-level profiling for the acquisition hot path.

Campaign throughput questions ("where did the cores go", "is the PDN
filter or the sensor model the ceiling") are answered with spans: every
``stage()`` call records one :class:`~repro.telemetry.spans.SpanRecord`
— start timestamp, wall seconds, bytes/items/calls counters — and the
familiar aggregate views (:class:`StageStats`, ``stage_seconds()``,
``summary()``) are computed *from those records*, so the profile, the
JSONL run log and the Perfetto trace can never disagree.

* :class:`StageStats` — aggregated wall seconds, bytes of arrays
  produced, items processed and call count for one pipeline stage (a
  view over span records, not separate bookkeeping);
* :class:`StageProfile` — the per-shard recorder with a
  context-manager API, mergeable across shards.

Byte accounting is deliberately *deterministic*: a stage reports the
``nbytes`` of the arrays it materializes (via :meth:`StageAccount.
account`), not allocator telemetry, so profiles are reproducible and
cost nothing to collect.

Usage::

    profile = StageProfile()
    with profile.stage("pdn", items=m) as acct:
        droop = per_cycle @ basis
        acct.account(droop)
    print(profile.summary())

For regression-fixture testing only, ``REPRO_INJECT_STAGE_SLEEP``
(``"stage:seconds[,stage:seconds]"``) injects a synthetic sleep into
the named stages — CI's ``telemetry-regression`` job uses it to prove
``repro report diff`` catches a slowdown.  Unset (the default) it costs
one dict lookup per profile.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.telemetry.spans import SpanRecord


def _injected_sleeps() -> Dict[str, float]:
    """Parse the test-only stage-sleep injection env var."""
    spec = os.environ.get("REPRO_INJECT_STAGE_SLEEP", "")
    sleeps: Dict[str, float] = {}
    for part in spec.split(","):
        if ":" in part:
            name, _, seconds = part.partition(":")
            try:
                sleeps[name.strip()] = float(seconds)
            except ValueError:
                continue
    return sleeps


@dataclass
class StageStats:
    """Aggregated cost of one pipeline stage (a view over spans)."""

    seconds: float = 0.0
    #: Bytes of result arrays materialized by the stage.
    nbytes: int = 0
    #: Items (traces/readouts) processed by the stage.
    items: int = 0
    calls: int = 0

    @property
    def items_per_second(self) -> float:
        """Stage throughput (``0.0`` when no time was recorded)."""
        return self.items / self.seconds if self.seconds > 0 else 0.0

    def merge(self, other: "StageStats") -> "StageStats":
        """Fold another stage's totals into this one (in place)."""
        self.seconds += other.seconds
        self.nbytes += other.nbytes
        self.items += other.items
        self.calls += other.calls
        return self

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-friendly view (used by benches and metrics)."""
        return {
            "seconds": self.seconds,
            "nbytes": self.nbytes,
            "items": self.items,
            "calls": self.calls,
            "items_per_second": self.items_per_second,
        }


class StageAccount:
    """Handle yielded by :meth:`StageProfile.stage` for byte accounting
    and ``excluded``, seconds of other work inside the stage."""

    __slots__ = ("nbytes", "excluded")

    def __init__(self) -> None:
        self.nbytes = 0
        self.excluded = 0.0

    def account(self, *arrays) -> None:
        """Record the ``nbytes`` of arrays materialized by the stage."""
        for array in arrays:
            self.nbytes += int(array.nbytes)


def stats_from_spans(records: List[SpanRecord]) -> Dict[str, StageStats]:
    """Aggregate span records into per-stage stats, first-seen order."""
    stages: Dict[str, StageStats] = {}
    for rec in records:
        stats = stages.get(rec.name)
        if stats is None:
            stats = stages[rec.name] = StageStats()
        stats.seconds += rec.seconds
        stats.nbytes += int(rec.counter("nbytes"))
        stats.items += int(rec.counter("items"))
        stats.calls += int(rec.counter("calls", 1))
    return stages


class StageProfile:
    """Span-backed per-stage cost recorder for one acquisition pipeline.

    Every :meth:`stage`/:meth:`add` call appends one span record;
    :attr:`stages` and the derived dict views aggregate them by name in
    first-recorded order (the pipeline order).  Two profiles from
    different shards merge commutatively at the aggregate level, so the
    engine can sum worker-side profiles into campaign totals, and
    :meth:`to_span` lifts the records into the run's span tree.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._inject = _injected_sleeps()

    @property
    def stages(self) -> Dict[str, StageStats]:
        """Per-stage aggregate view over the recorded spans."""
        return stats_from_spans(self.records)

    @contextmanager
    def stage(self, name: str, items: int = 0) -> Iterator[StageAccount]:
        """Time a stage; the yielded handle records produced bytes."""
        acct = StageAccount()
        start = time.time()
        t0 = time.perf_counter()
        try:
            yield acct
        finally:
            if self._inject:
                time.sleep(self._inject.get(name, 0.0))
            self.records.append(
                SpanRecord(
                    name=name,
                    start=start,
                    seconds=time.perf_counter() - t0 - acct.excluded,
                    counters={"nbytes": acct.nbytes, "items": items, "calls": 1},
                )
            )

    def add(
        self,
        name: str,
        seconds: float,
        nbytes: int = 0,
        items: int = 0,
        calls: int = 1,
    ) -> None:
        """Record one stage observation directly."""
        self.records.append(
            SpanRecord(
                name=name,
                start=time.time(),
                seconds=seconds,
                counters={"nbytes": nbytes, "items": items, "calls": calls},
            )
        )

    def merge(self, other: "StageProfile") -> "StageProfile":
        """Fold another profile's records into this one (in place)."""
        self.records.extend(other.records)
        return self

    def to_span(
        self,
        name: str,
        *,
        start: float,
        seconds: float,
        attrs: Optional[Dict[str, object]] = None,
        counters: Optional[Dict[str, float]] = None,
    ) -> SpanRecord:
        """Lift this profile into one parent span with stage children."""
        return SpanRecord(
            name=name,
            start=start,
            seconds=seconds,
            attrs=dict(attrs or {}),
            counters=dict(counters or {}),
            children=list(self.records),
        )

    # -- views -----------------------------------------------------------
    def stage_seconds(self) -> Dict[str, float]:
        """``{stage: seconds}``."""
        return {name: stats.seconds for name, stats in self.stages.items()}

    def stage_nbytes(self) -> Dict[str, int]:
        """``{stage: bytes materialized}``."""
        return {name: stats.nbytes for name, stats in self.stages.items()}

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Nested JSON-friendly view of every stage."""
        return {name: stats.as_dict() for name, stats in self.stages.items()}

    def summary(self) -> str:
        """One human-readable line, pipeline order."""
        parts = []
        for name, stats in self.stages.items():
            part = f"{name} {stats.seconds:.3f}s"
            if stats.nbytes:
                part += f"/{stats.nbytes / 1e6:.0f}MB"
            if stats.items and stats.seconds > 0:
                part += f" ({stats.items_per_second:,.0f}/s)"
            parts.append(part)
        return ", ".join(parts) if parts else "no stages recorded"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StageProfile({self.summary()})"
