"""Per-shard and aggregate timing/throughput metrics — span views.

Every shard carries the span subtree its worker recorded
(:class:`~repro.telemetry.spans.SpanRecord`: the shard span with one
child per kernel stage / cache lookup), and every number these classes
report — stage splits, byte totals, cache hit rates — is *derived from
those spans*, never kept as parallel bookkeeping.  The engine grafts
the shard subtrees into one campaign span (``EngineMetrics.span``) in
shard-index order, which is what the run log flattens and the Perfetto
export draws.

Shard seconds are measured inside the worker; the aggregate wall clock
is measured by the engine around the whole run, so ``sum(shard seconds)
/ wall_seconds`` approximates the achieved parallelism.  Throughputs
report ``0.0`` (never ``inf``) when no time was recorded, so
sub-millisecond shards stay finite in logs and JSONL output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.spans import SpanRecord


@dataclass(frozen=True)
class ShardMetrics:
    """Timing of one completed shard (a view over its span subtree)."""

    shard_index: int
    n_items: int
    seconds: float
    #: The shard's span subtree: one child span per pipeline stage
    #: ("aes", "pdn", "sensor", "cache"), recorded by the worker.
    span: Optional[SpanRecord] = None
    #: Block-cache outcome for this shard: ``"hit"`` (served from the
    #: store), ``"miss"`` (acquired and published), ``"partial"`` (a
    #: fan-out shard where some sensors' sub-blocks hit and the rest
    #: were acquired) or ``""`` (cache off).
    cache: str = ""
    #: Bytes read from plus bytes written to the block store.
    cache_nbytes: int = 0
    #: The read/write split of :attr:`cache_nbytes` (a plain hit is all
    #: read, a plain miss all written; only fan-out partials mix).
    cache_bytes_read: int = 0
    cache_bytes_written: int = 0
    #: Sub-block outcomes: a shard counts one lookup per sensor (a full
    #: N-sensor hit counts N sub-hits, a single-sensor hit one); shards
    #: with the cache off and attack-state replays leave both at 0.
    cache_sub_hits: int = 0
    cache_sub_misses: int = 0

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Wall seconds per pipeline stage, derived from the span."""
        if self.span is None:
            return {}
        totals: Dict[str, float] = {}
        for rec in self.span.children:
            totals[rec.name] = totals.get(rec.name, 0.0) + rec.seconds
        return totals

    @property
    def stage_nbytes(self) -> Dict[str, int]:
        """Bytes of result arrays materialized per stage (deterministic
        byte accounting), derived from the span counters."""
        if self.span is None:
            return {}
        totals: Dict[str, int] = {}
        for rec in self.span.children:
            totals[rec.name] = totals.get(rec.name, 0) + int(rec.counter("nbytes"))
        return totals

    @property
    def items_per_second(self) -> float:
        """Shard throughput (``0.0`` when no time was recorded)."""
        return self.n_items / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        """One human-readable line (used as progress-event detail)."""
        parts = []
        nbytes_by_stage = self.stage_nbytes
        for stage, seconds in self.stage_seconds.items():
            part = f"{stage} {seconds:.3f}s"
            nbytes = nbytes_by_stage.get(stage, 0)
            if nbytes:
                part += f"/{nbytes / 1e6:.0f}MB"
            parts.append(part)
        if self.cache:
            parts.append(f"cache {self.cache} {self.cache_nbytes / 1e6:.1f}MB")
        split = f" ({', '.join(parts)})" if parts else ""
        rate = (
            f"{self.items_per_second:,.0f}/s" if self.seconds > 0 else "n/a"
        )
        return (
            f"shard {self.shard_index}: {self.n_items} items in "
            f"{self.seconds:.3f}s ({rate}){split}"
        )


def _read_through(shard: ShardMetrics) -> bool:
    """Whether the shard's reads reached the remote tier (its body
    stamps the remote-tier delta on its span)."""
    return shard.span is not None and shard.span.counter("cache_remote_hits") > 0


@dataclass
class EngineMetrics:
    """Aggregate metrics for one engine run."""

    kind: str
    n_items: int
    n_shards: int
    workers: int
    wall_seconds: float = 0.0
    shards: List[ShardMetrics] = field(default_factory=list)
    #: The campaign's span tree: the ``engine.<kind>`` root with shard
    #: subtrees (shard-index order) and checkpoint events as children.
    span: Optional[SpanRecord] = None

    @property
    def items_per_second(self) -> float:
        """End-to-end throughput (``0.0`` when no time was recorded)."""
        return self.n_items / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def busy_seconds(self) -> float:
        """Total in-shard compute time across all workers."""
        return sum(s.seconds for s in self.shards)

    @property
    def parallelism(self) -> float:
        """Achieved parallelism: busy seconds over wall seconds."""
        return self.busy_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def stage_totals(self) -> Dict[str, float]:
        """Summed per-stage seconds across shards."""
        totals: Dict[str, float] = {}
        for shard in self.shards:
            for stage, seconds in shard.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def stage_nbytes_totals(self) -> Dict[str, int]:
        """Summed per-stage bytes materialized across shards."""
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for stage, nbytes in shard.stage_nbytes.items():
                totals[stage] = totals.get(stage, 0) + nbytes
        return totals

    # -- block-cache views ------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """Whether this run went through a block store."""
        return any(s.cache for s in self.shards)

    @property
    def cache_hits(self) -> int:
        """Shards served from the local tier of the block store alone.

        A served shard counts here or in :attr:`cache_remote_served`,
        never both."""
        return sum(
            1 for s in self.shards if s.cache == "hit" and not _read_through(s)
        )

    @property
    def cache_remote_served(self) -> int:
        """Shards served from the block store where at least one
        sub-block was read through from the remote tier (at N > 1
        :attr:`cache_remote_hits` counts those sub-blocks, so it is no
        shard count)."""
        return sum(1 for s in self.shards if s.cache == "hit" and _read_through(s))

    @property
    def cache_misses(self) -> int:
        """Shards acquired live (and published to the store)."""
        return sum(1 for s in self.shards if s.cache == "miss")

    @property
    def cache_partial(self) -> int:
        """Fan-out shards where only some sensors' sub-blocks hit."""
        return sum(1 for s in self.shards if s.cache == "partial")

    @property
    def cache_sub_hits(self) -> int:
        """Per-sensor sub-block hits across all shards (distinct from
        :attr:`cache_hits`, which counts whole shards where *every*
        sensor hit)."""
        return sum(s.cache_sub_hits for s in self.shards)

    @property
    def cache_sub_misses(self) -> int:
        """Per-sensor sub-block misses across all shards."""
        return sum(s.cache_sub_misses for s in self.shards)

    @property
    def cache_hit_rate(self) -> float:
        """Full-shard hits from either tier over cache-visible shards
        (partially-hit fan-out shards count as lookups, not hits; 0.0
        with the cache off)."""
        served = self.cache_hits + self.cache_remote_served
        lookups = served + self.cache_misses + self.cache_partial
        return served / lookups if lookups else 0.0

    @property
    def cache_bytes_read(self) -> int:
        """Bytes served from the store across all shards."""
        return sum(s.cache_bytes_read for s in self.shards)

    @property
    def cache_bytes_written(self) -> int:
        """Bytes published to the store across all shards."""
        return sum(s.cache_bytes_written for s in self.shards)

    def _span_counter_total(self, name: str) -> int:
        """Sum one span counter across shard spans (tiered-store
        shard bodies stamp remote activity there — a shard that never
        touched the remote tier carries no such counter)."""
        return int(
            sum(s.span.counter(name) for s in self.shards if s.span is not None)
        )

    @property
    def cache_remote_hits(self) -> int:
        """Blocks served by read-through from the remote tier."""
        return self._span_counter_total("cache_remote_hits")

    @property
    def cache_remote_misses(self) -> int:
        """Remote-tier lookups that found nothing usable."""
        return self._span_counter_total("cache_remote_misses")

    @property
    def cache_remote_bytes_read(self) -> int:
        """Wire bytes pulled from the remote tier during this run."""
        return self._span_counter_total("cache_remote_bytes_read")

    @property
    def cache_expired(self) -> int:
        """Lookups of keys the store *expected* to hold but had lost
        (pruned/evicted between ``contains`` and read)."""
        return self._span_counter_total("cache_expired")

    def cache_summary(self) -> Dict[str, object]:
        """Flat JSON-friendly cache view of this run."""
        return {
            "enabled": self.cache_enabled,
            "hits": self.cache_hits,
            "remote_served": self.cache_remote_served,
            "misses": self.cache_misses,
            "partial": self.cache_partial,
            "sub_hits": self.cache_sub_hits,
            "sub_misses": self.cache_sub_misses,
            "hit_rate": round(self.cache_hit_rate, 4),
            "bytes_read": self.cache_bytes_read,
            "bytes_written": self.cache_bytes_written,
            "remote_hits": self.cache_remote_hits,
            "remote_misses": self.cache_remote_misses,
            "remote_bytes_read": self.cache_remote_bytes_read,
            "expired": self.cache_expired,
        }

    def stage_items_per_second(self) -> Dict[str, float]:
        """Per-stage throughput: campaign items over that stage's
        summed worker seconds (i.e. the rate each stage alone would
        sustain on one core).  ``0.0`` for zero-time stages."""
        return {
            stage: (self.n_items / seconds if seconds > 0 else 0.0)
            for stage, seconds in self.stage_totals().items()
        }

    def summary(self) -> str:
        """One human-readable line for logs and progress output."""
        stages = self.stage_totals()
        split = ", ".join(f"{k} {v:.2f}s" for k, v in sorted(stages.items()))
        cache = ""
        if self.cache_enabled:
            served = self.cache_hits + self.cache_remote_served
            lookups = served + self.cache_misses + self.cache_partial
            cache = (
                f"; cache {served}/{lookups}"
                f" hits ({self.cache_hit_rate:.0%})"
            )
            if self.cache_partial:
                cache += (
                    f", {self.cache_partial} partial"
                    f" ({self.cache_sub_hits} sub-hits)"
                )
        rate = (
            f"{self.items_per_second:.0f}/s" if self.wall_seconds > 0 else "n/a"
        )
        return (
            f"{self.kind}: {self.n_items} items in {self.wall_seconds:.2f}s "
            f"({rate}, {self.n_shards} shards, "
            f"{self.workers} workers; {split}{cache})"
        )
