"""Per-shard and aggregate timing/throughput metrics — span views.

Every shard carries the span subtree its worker recorded
(:class:`~repro.telemetry.spans.SpanRecord`: the shard span with one
child per kernel stage / cache lookup), and every number these classes
report — stage splits, byte totals, cache counts — is *derived from
those spans*, never kept as parallel bookkeeping.  The engine grafts
the shard subtrees into one campaign span (``EngineMetrics.span``) in
shard-index order, which is what the run log flattens and the Perfetto
export draws.

Block-cache counts have one vocabulary, :data:`CACHE_COUNTS`: each
entry names a count once — where it is recorded, its key in
``Engine.cache_totals``, :meth:`EngineMetrics.cache_summary` and the
run log's ``cache`` event, and the registry series it is mirrored
onto.  Every cache surface of the engine is a fold or a loop over that
table, and every hit rate comes from :func:`hit_rate`.

Shard seconds are measured inside the worker; the aggregate wall clock
is measured by the engine around the whole run, so ``sum(shard seconds)
/ wall_seconds`` approximates the achieved parallelism.  Throughputs
report ``0.0`` (never ``inf``) when no time was recorded, so
sub-millisecond shards stay finite in logs and JSONL output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional

from repro.telemetry.spans import SpanRecord

LOOKUPS = "repro_cache_lookups_total"
BYTES = "repro_cache_bytes_total"
TIER = "repro_cache_tier_total"
#: The registry counters the cache counts are mirrored onto (the
#: engine registers them): name -> (help, label name, deterministic).
CACHE_SERIES = {
    LOOKUPS: (
        "Shard cache lookups by outcome (hit counts any warm tier).",
        "outcome", True,
    ),
    BYTES: ("Block-cache payload traffic by direction.", "direction", True),
    TIER: (
        "Tiered-store counter deltas (hit/miss/wire/publish/prefetch per "
        "tier) — timing-dependent, not deterministic.",
        "counter", False,
    ),
}


class CacheCount(NamedTuple):
    """One per-campaign block-cache count and every name it goes by.

    ``key`` names it in ``Engine.cache_totals``,
    ``EngineMetrics.cache_summary()`` and the run log's ``cache`` event.
    ``source`` says where it is recorded: ``"outcome"`` — counted from
    each shard span's ``cache`` attribute; ``"shard"`` — stamped on the
    shard span by the shard body; ``"store"`` — the shard's delta of the
    block-store counter ``key``, stamped on the shard span;
    ``"publish"`` / ``"prefetch"`` — the parent's write-behind publishing
    and background prefetch, folded once per campaign.  The count is
    mirrored onto the registry counter ``series`` under ``label``: even
    when 0 if it is ``deterministic`` (a function of workload, seed and
    cache contents; the local/remote split, prefetch and publishing
    depend on timing), else only when nonzero.
    """

    key: str
    source: str
    series: Optional[str] = None
    label: Optional[str] = None
    deterministic: bool = False

    @property
    def span(self) -> Optional[str]:
        """The shard-span counter the count is recorded under."""
        return f"cache_{self.key}" if self.source in ("shard", "store") else None


#: Every per-campaign cache count, in ``cache_totals`` order.  A served
#: shard is a local ``hits`` or a read-through ``remote_served``, never
#: both; ``remote_hits`` counts read-through *blocks* (up to N per
#: N-sensor shard).  Sub-lookups count one per sensor per shard.
CACHE_COUNTS = (
    CacheCount("hits", "outcome", TIER, "local_hits"),
    CacheCount("remote_served", "outcome"),
    CacheCount("misses", "outcome", LOOKUPS, "miss", True),
    CacheCount("partial", "outcome", LOOKUPS, "partial", True),
    CacheCount("sub_hits", "shard", LOOKUPS, "sub_hit", True),
    CacheCount("sub_misses", "shard", LOOKUPS, "sub_miss", True),
    CacheCount("bytes_read", "shard", BYTES, "read", True),
    CacheCount("bytes_written", "shard", BYTES, "written", True),
    # Lookups of keys the store expected to hold but had lost
    # (pruned/evicted between ``contains`` and read).
    CacheCount("expired", "store", TIER, "expired"),
    CacheCount("remote_hits", "store", TIER, "remote_hits"),
    CacheCount("remote_misses", "store", TIER, "remote_misses"),
    CacheCount("remote_bytes_read", "store", TIER, "remote_bytes_read"),
    CacheCount("remote_bytes_written", "publish", TIER, "remote_bytes_written"),
    CacheCount("remote_puts", "publish", TIER, "remote_puts"),
    CacheCount("remote_publish_skipped", "publish", TIER, "remote_publish_skipped"),
    CacheCount("remote_publish_dropped", "publish", TIER, "remote_publish_dropped"),
    CacheCount("remote_errors", "publish", TIER, "remote_errors"),
    CacheCount("prefetch_fetched", "prefetch", TIER, "prefetch_fetched"),
    CacheCount("prefetch_local", "prefetch", TIER, "prefetch_local"),
    CacheCount("prefetch_missed", "prefetch", TIER, "prefetch_missed"),
    CacheCount("prefetch_bytes", "prefetch", TIER, "prefetch_bytes"),
)

#: The counts a shard records (on its span), i.e. those of
#: :meth:`EngineMetrics.cache_summary`.
SHARD_COUNTS = tuple(c for c in CACHE_COUNTS if c.source not in ("publish", "prefetch"))
_OUTCOME_KEYS = {"hit": "hits", "miss": "misses", "partial": "partial"}


HitRate = NamedTuple("HitRate", [("served", int), ("lookups", int), ("rate", float)])


def hit_rate(counts: Mapping[str, object]) -> HitRate:
    """Full-shard hits from either tier over shard lookups, from any
    mapping keyed by :data:`CACHE_COUNTS` (``cache_totals``,
    ``cache_summary()``, a run-log ``cache`` event; absent keys count
    0).  Partially-hit fan-out shards count as lookups, not hits; the
    rate is 0.0 with no lookups."""
    served = counts.get("hits", 0) + counts.get("remote_served", 0)
    lookups = served + counts.get("misses", 0) + counts.get("partial", 0)
    return HitRate(served, lookups, served / lookups if lookups else 0.0)


@dataclass(frozen=True)
class ShardMetrics:
    """Timing of one completed shard (a view over its span subtree)."""

    shard_index: int
    n_items: int
    seconds: float
    #: The shard's span subtree: one child span per pipeline stage
    #: ("aes", "pdn", "sensor", "cache"), recorded by the worker.
    span: Optional[SpanRecord] = None

    @property
    def cache(self) -> str:
        """Block-cache outcome: ``"hit"`` (served from the store),
        ``"miss"`` (acquired and published), ``"partial"`` (a fan-out
        shard where some sensors' sub-blocks hit and the rest were
        acquired) or ``""`` (cache off)."""
        return self.span.attrs.get("cache", "") if self.span is not None else ""

    def cache_counts(self) -> Dict[str, int]:
        """This shard's :data:`SHARD_COUNTS`, read from its span (all 0
        with the cache off or no span)."""
        counters = self.span.counters if self.span is not None else {}
        counts = {
            c.key: int(counters.get(c.span, 0)) if c.span else 0 for c in SHARD_COUNTS
        }
        if self.cache:
            # A served shard with any sub-block read through from the
            # remote tier is remote-served, else a local hit.
            read_through = self.cache == "hit" and counts["remote_hits"]
            counts["remote_served" if read_through else _OUTCOME_KEYS[self.cache]] = 1
        return counts

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
            counts = self.cache_counts()
            moved = counts["bytes_read"] + counts["bytes_written"]
            parts.append(f"cache {self.cache} {moved / 1e6:.1f}MB")
        split = f" ({', '.join(parts)})" if parts else ""
        rate = (
            f"{self.items_per_second:,.0f}/s" if self.seconds > 0 else "n/a"
        )
        return (
            f"shard {self.shard_index}: {self.n_items} items in "
            f"{self.seconds:.3f}s ({rate}){split}"
        )


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
    def cache_summary(self) -> Dict[str, object]:
        """Flat JSON-friendly cache view of this run: ``enabled``, the
        :data:`SHARD_COUNTS` summed over shards, and ``hit_rate``."""
        totals = dict.fromkeys((c.key for c in SHARD_COUNTS), 0)
        for shard in self.shards:
            for key, value in shard.cache_counts().items():
                totals[key] += value
        return {
            "enabled": any(s.cache for s in self.shards),
            **totals,
            "hit_rate": round(hit_rate(totals).rate, 4),
        }

    @property
    def cache_hit_rate(self) -> float:
        """:func:`hit_rate` of this run (0.0 with the cache off)."""
        return hit_rate(self.cache_summary()).rate

    def summary(self) -> str:
        """One human-readable line for logs and progress output."""
        stages = self.stage_totals()
        split = ", ".join(f"{k} {v:.2f}s" for k, v in sorted(stages.items()))
        cache = ""
        counts = self.cache_summary()
        if counts["enabled"]:
            hits = hit_rate(counts)
            cache = f"; cache {hits.served}/{hits.lookups} hits ({hits.rate:.0%})"
            if counts["partial"]:
                cache += (
                    f", {counts['partial']} partial"
                    f" ({counts['sub_hits']} sub-hits)"
                )
        rate = (
            f"{self.items_per_second:.0f}/s" if self.wall_seconds > 0 else "n/a"
        )
        return (
            f"{self.kind}: {self.n_items} items in {self.wall_seconds:.2f}s "
            f"({rate}, {self.n_shards} shards, "
            f"{self.workers} workers; {split}{cache})"
        )
