"""The process-pool acquisition engine.

Trace acquisition dominates wall-clock for every experiment in this
repository (10k-500k simulated traces per figure), and the workload is
embarrassingly parallel once the random streams are pinned down.  The
engine shards a campaign into fixed-size blocks (:mod:`repro.runtime.
sharding`), spawns one child :class:`numpy.random.SeedSequence` per
shard, and runs shards either in-process (``workers=1``, the serial
reference path) or on a :class:`concurrent.futures.ProcessPoolExecutor`.
Because the shard plan and the per-shard streams depend only on the
workload and the root seed, the resulting traces are **bit-identical
for any worker count**.

There is one path per campaign kind — ``collect``, ``stream`` and
``characterize`` — and it always runs N sensors observing one victim
(:class:`~repro.traces.acquisition.MultiSensorAcquisition`).  A
single-sensor campaign is the N=1 case: :meth:`Engine.collect`,
:meth:`Engine.stream_attack` and :meth:`Engine.characterize` wrap a
fan-out of one.  The ``acquire_many`` contract makes each sensor of a
fan-out bit-identical to a campaign over that sensor alone, and each
sensor's block keys are exactly its single-sensor keys, so the shape of
a campaign changes neither its results nor its cache addresses.

Result buffers live in POSIX shared memory
(:mod:`multiprocessing.shared_memory`): each worker writes its shard's
slice directly, so trace arrays are never pickled through the result
pipe — only the small per-shard :class:`~repro.runtime.metrics.
ShardMetrics` travels back.  A streamed shard's segment accumulators
do come back, through one shared-memory segment per shard (see
:func:`~repro.runtime.scheduler.dispatch`).  The parent pre-builds
every model table that is expensive to derive (the sensor's
voltage->moments table) so workers inherit it with the pickled harness
instead of recomputing it.

A progress hook fires in the parent as shards complete::

    engine = Engine(workers=4, progress=lambda ev: print(ev.done, "/", ev.total))
    traces = engine.collect(acq, 60_000, key=KEY, seed=3)
    print(engine.last_metrics.summary())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.threads import pin_worker_threads
from repro.core.sensor import VoltageSensor
from repro.errors import ConfigurationError
from repro.kernels import StageProfile
from repro.pdn.coupling import CouplingModel
from repro.pdn.noise import NoiseModel
from repro.runtime.metrics import (
    CACHE_COUNTS,
    CACHE_SERIES,
    LOOKUPS,
    SHARD_COUNTS,
    EngineMetrics,
    ShardMetrics,
    hit_rate,
)
from repro.runtime.scheduler import (
    RemotePrefetcher,
    ShardTask,
    classify_tasks,
    dispatch,
    flatten_keys,
    segment_prefix,
    static_groups,
    validate_schedule,
)
from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    get_registry,
)
from repro.telemetry.spans import SpanRecord, Telemetry
from repro.runtime.sharding import (
    SeedLike,
    Shard,
    plan_shards,
    spawn_shard_sequences,
)
from repro.traces.acquisition import (
    AESTraceAcquisition,
    MultiSensorAcquisition,
    characterize_block,
    characterize_droop,
)
from repro.traces.blockstore import (
    SCHEMA_VERSION,
    BlockStore,
    block_key,
    open_store,
    seed_lineage,
)
from repro.traces.store import TraceSet
from repro.victims.aes import AES128
from repro.victims.power_virus import PowerVirusBank


@dataclass(frozen=True)
class ProgressEvent:
    """Progress of an engine run, delivered as shards complete.

    ``shard`` is ``None`` for events not tied to one shard (e.g. the
    attack-checkpoint events of streamed campaigns); ``detail`` carries
    an optional human-readable annotation (e.g. the current key rank).
    ``payload`` carries the event's exact machine-readable values when
    the emitter has them (e.g. the full-precision key-rank bounds of a
    ``"keyrank"`` event) — consumers that relay progress off-process
    (the campaign service) forward it instead of re-parsing ``detail``.
    """

    kind: str
    done: int
    total: int
    shard: Optional[ShardMetrics] = None
    detail: str = ""
    payload: Optional[Dict[str, object]] = None


ProgressFn = Callable[[ProgressEvent], None]


# ----------------------------------------------------------------------
# Shard bodies — shared verbatim by the serial and pooled paths, which
# is what makes worker count irrelevant to the output.  One shard covers
# N (sensor, placement) pairs.  Each body first offers its shard to the
# block store (when one is configured), *per sensor*: each sub-block key
# is the exact key a single-sensor campaign over that pair would use.
# A shard where every sensor hits is a "hit" (replayed through read-only
# memory maps), where none hit a "miss" (acquired live and published),
# and a mixed shard a "partial": the hit sensors are served from their
# blocks and only the missing ones acquired (skip semantics keep the
# missing sensors' draws bit-identical).  Cached blocks are
# bit-identical to live acquisition by construction (same key => same
# config, same RNG lineage), so cache state can never change a result —
# only its cost.
# ----------------------------------------------------------------------


def _block_meta(
    seed_seq: np.random.SeedSequence, n_sensors: int, index: int, **extra
) -> Dict[str, object]:
    """Provenance of a published block.  Sub-blocks of a fan-out wider
    than one also record their sensor slot (``repro cache stats``
    counts them)."""
    meta: Dict[str, object] = {"lineage": seed_lineage(seed_seq), **extra}
    if n_sensors > 1:
        meta["fanout"] = {"sensors": n_sensors, "index": index}
    return meta


class _ShardCache:
    """One shard body's traffic with the block store, and its counts.

    Construction looks up every sensor's sub-block under the ``cache``
    stage (``blocks[i]`` is ``None`` on a miss, and always without a
    store); :meth:`put` publishes acquired ones.  :meth:`metrics`
    stamps the shard's counts on its span, including the deltas of the
    store's ``"store"``-sourced counters: worker store counters never
    travel back to the parent, so the deltas ride the span instead.
    """

    def __init__(
        self,
        store: Optional[BlockStore],
        keys: Optional[Sequence[str]],
        profile: StageProfile,
        shard: Shard,
        n_sensors: int,
    ) -> None:
        self.store, self.keys, self.profile, self.shard = store, keys, profile, shard
        self.blocks: List[Optional[object]] = [None] * n_sensors
        #: ``"hit"``, ``"partial"``, ``"miss"`` or ``""`` (no store).
        self.outcome = ""
        self.counts: Dict[str, int] = {}
        self._snap: Dict[str, int] = {}
        if store is None:
            return
        deltas = (c.key for c in SHARD_COUNTS if c.source == "store")
        self._snap = {key: getattr(store.counters, key) for key in deltas}
        with profile.stage("cache", items=shard.size) as acct:
            self.blocks = [store.get(k) for k in keys]
            acct.nbytes += sum(b.nbytes for b in self.blocks if b is not None)
        sub_hits = sum(b is not None for b in self.blocks)
        self.outcome = (
            "hit" if sub_hits == n_sensors else "partial" if sub_hits else "miss"
        )
        self.counts = dict(
            bytes_read=acct.nbytes, bytes_written=0,
            sub_hits=sub_hits, sub_misses=n_sensors - sub_hits,
        )

    def put(self, blocks: Sequence[Tuple[int, Dict[str, np.ndarray], Dict]]) -> None:
        """Publish ``(sensor, arrays, meta)`` sub-blocks in one stage."""
        if self.store is None:
            return
        with self.profile.stage("cache", items=self.shard.size) as acct:
            before = self.store.counters.bytes_written
            for i, arrays, meta in blocks:
                self.store.put(self.keys[i], arrays, meta=meta)
            acct.nbytes += self.store.counters.bytes_written - before
        self.counts["bytes_written"] += acct.nbytes

    def metrics(self, start: float, seconds: float) -> ShardMetrics:
        """The finished shard's metrics (call once, after the body)."""
        for key, before in self._snap.items():
            self.counts[key] = getattr(self.store.counters, key) - before
        return _shard_metrics(
            self.shard, self.profile, start, seconds, self.outcome, self.counts
        )


def _put_attack_state(
    store: BlockStore, snapshots: StageProfile, key: str, arrays, end: int
) -> None:
    """Publish an attack-state snapshot as a ``cache`` stage of
    ``snapshots`` (see :func:`_charge_snapshots`)."""
    with snapshots.stage("cache") as acct:
        before = store.counters.bytes_written
        store.put(key, arrays, meta={"kind": "attack-state", "n_traces": end})
        acct.nbytes += store.counters.bytes_written - before


def _charge_snapshots(span: SpanRecord, snapshots: StageProfile) -> None:
    """Charge snapshot writes to the shard ``span`` they follow, as
    :meth:`_ShardCache.put` charges the shard's own blocks."""
    for record in snapshots.records:
        span.children.append(record)
        span.counters["cache_bytes_written"] = (
            span.counter("cache_bytes_written") + record.counter("nbytes")
        )


def _acquire_or_replay(
    msa: MultiSensorAcquisition,
    aes: AES128,
    n_samples: int,
    seed_seq: np.random.SeedSequence,
    cache: _ShardCache,
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """One shard's per-sensor readouts, with a per-sensor cache.

    Returns ``(readouts_list, pts, cts)``.  Hit arrays are read-only
    memmap views over the block files: consumers stream from the page
    cache without a copy.
    """
    shard, blocks = cache.shard, cache.blocks
    if cache.outcome == "hit":
        first = blocks[0].arrays
        return [b.arrays["traces"] for b in blocks], first["pts"], first["cts"]
    skip = frozenset(i for i, b in enumerate(blocks) if b is not None)
    rng = np.random.default_rng(seed_seq)
    shard_pts = rng.integers(0, 256, size=(shard.size, 16), dtype=np.uint8)
    results = msa.acquire_block_many(
        aes, shard_pts, rng, n_samples, profile=cache.profile, skip=skip
    )
    shard_cts = next(r[1] for r in results if r is not None)
    readouts = [
        blocks[i].arrays["traces"] if i in skip else results[i][0]
        for i in range(len(msa))
    ]
    cache.put([
        (
            i,
            {"traces": readouts[i], "pts": shard_pts, "cts": shard_cts},
            _block_meta(seed_seq, len(msa), i, block_items=shard.size),
        )
        for i in range(len(msa))
        if i not in skip
    ])
    return readouts, shard_pts, shard_cts


def _shard_metrics(
    shard: Shard,
    profile: StageProfile,
    start: float,
    seconds: float,
    cache: str,
    counts: Dict[str, int],
) -> ShardMetrics:
    """Lift a shard's profile into its span subtree + metrics view.

    The shard span records the cache outcome as its ``cache`` attribute
    and ``counts`` (keyed by :data:`~repro.runtime.metrics.CACHE_COUNTS`)
    as ``cache_*`` counters.  Only nonzero counts are stamped, so shards
    with the cache off and local-only runs keep their exact span shapes.
    """
    counters: Dict[str, float] = {"items": shard.size}
    for c in SHARD_COUNTS:
        if c.span is not None and counts.get(c.key):
            counters[c.span] = counts[c.key]
    span = profile.to_span(
        "shard",
        start=start,
        seconds=seconds,
        attrs={"shard": shard.index, "cache": cache},
        counters=counters,
    )
    return ShardMetrics(
        shard_index=shard.index, n_items=shard.size, seconds=seconds, span=span
    )


def _checkpoint_event(n_traces: int, consumer: object, sensor: int) -> SpanRecord:
    """A zero-duration checkpoint span tagged with its sensor index,
    carrying the accumulator's state counters when the consumer exposes
    them."""
    counters: Dict[str, float] = {"n_traces": float(n_traces)}
    get = getattr(consumer, "telemetry_counters", None)
    if callable(get):
        counters.update(get())
    return SpanRecord(
        name="checkpoint",
        start=time.time(),
        attrs={"n_traces": int(n_traces), "sensor": int(sensor)},
        counters=counters,
    )


def _collect_shard(
    ctx: Dict[str, object],
    shard: Shard,
    seed_seq: np.random.SeedSequence,
    keys: Optional[Sequence[str]],
) -> ShardMetrics:
    """Acquire one shard into ``ctx["arrays"]``, whose ``traces`` is
    the ``(n_sensors, n_traces, n_samples)`` buffer."""
    start = time.time()
    t0 = time.perf_counter()
    msa = ctx["msa"]
    cache = _ShardCache(ctx["store"], keys, StageProfile(), shard, len(msa))
    readouts, shard_pts, shard_cts = _acquire_or_replay(
        msa, ctx["aes"], ctx["n_samples"], seed_seq, cache
    )
    out = ctx["arrays"]
    for i, block in enumerate(readouts):
        out["traces"][i][shard.slice] = block
    out["pts"][shard.slice] = shard_pts
    out["cts"][shard.slice] = shard_cts
    return cache.metrics(start, time.perf_counter() - t0)


def _stream_shard(
    ctx: Dict[str, object],
    shard: Shard,
    seed_seq: np.random.SeedSequence,
    keys: Optional[Sequence[str]],
) -> Tuple[ShardMetrics, List[List[Tuple[int, object]]]]:
    """Acquire one shard and fold each sensor's readouts into the
    attack, segment by segment.

    The random draws are identical to :func:`_collect_shard` (same
    plaintexts, same noise), so a streamed campaign sees exactly the
    traces a collected campaign would — it just never keeps them.  The
    shard is split at the global checkpoint ``ctx["boundaries"]``; each
    segment is fed whole to one accumulator per sensor, through one
    ``update_many`` call when their type has one (shared per-ciphertext
    work, e.g. :meth:`~repro.attacks.cpa.CPAAttack.update_many`), else
    through each one's ``update``.

    A serial run's accumulators are the masters, ``ctx["masters"]``,
    and after each segment the body runs ``ctx["segment_end"](end,
    snapshots)`` at the global trace count ``end``; that step's time is
    left out of the ``accumulate`` stage and the shard's seconds, and
    its snapshot writes are charged to the shard's span.  A pool worker
    (``masters`` is ``None``) builds each segment's accumulators with
    ``ctx["factory"]``.  Returns ``(metrics, per_sensor_segments)``,
    ``per_sensor_segments[i]`` being sensor ``i``'s ``[(end,
    accumulator), ...]`` (empty on a serial run) for the parent to fold.

    With a block store, a hit feeds the accumulators straight from the
    memory-mapped block — zero-copy: the trace matrix exists only as
    page-cache-backed views, exactly the peak-memory story of live
    streaming.
    """
    start = time.time()
    t0 = time.perf_counter()
    msa = ctx["msa"]
    cache = _ShardCache(ctx["store"], keys, StageProfile(), shard, len(msa))
    readouts_list, _shard_pts, shard_cts = _acquire_or_replay(
        msa, ctx["aes"], ctx["n_samples"], seed_seq, cache
    )
    cuts = [
        b - shard.start for b in ctx["boundaries"] if shard.start < b < shard.stop
    ]
    edges = [0, *cuts, shard.size]
    per_sensor: List[List[Tuple[int, object]]] = [[] for _ in readouts_list]
    masters = ctx["masters"]
    snapshots = StageProfile()
    with cache.profile.stage("accumulate", items=shard.size) as acct:
        for lo, hi in zip(edges, edges[1:]):
            parts = masters or [ctx["factory"]() for _ in readouts_list]
            update_many = getattr(type(parts[0]), "update_many", None)
            rows = slice(lo, hi)
            if update_many is not None:
                update_many(parts, [r[rows] for r in readouts_list], shard_cts[rows])
            else:
                for part, readouts in zip(parts, readouts_list):
                    part.update(readouts[rows], shard_cts[rows])
            end = shard.start + hi
            if masters is None:
                for segments, part in zip(per_sensor, parts):
                    segments.append((end, part))
            else:
                t_end = time.perf_counter()
                ctx["segment_end"](end, snapshots)
                acct.excluded += time.perf_counter() - t_end
    metrics = cache.metrics(start, time.perf_counter() - t0 - acct.excluded)
    _charge_snapshots(metrics.span, snapshots)
    return metrics, per_sensor


def _characterize_shard(
    ctx: Dict[str, object],
    shard: Shard,
    seed_seq: np.random.SeedSequence,
    keys: Optional[Sequence[str]],
) -> ShardMetrics:
    """Characterize one shard for every sensor into
    ``ctx["arrays"]["out"]``, the ``(n_sensors, n_readouts)`` buffer.

    Every sensor's readouts come from the *same* entry RNG state
    (restored between sensors), so row ``i`` is bit-identical to
    characterizing sensor ``i`` alone with the same seed.
    """
    start = time.time()
    t0 = time.perf_counter()
    profile = StageProfile()
    sensors, droops, noises = ctx["sensors"], ctx["droops"], ctx["noises"]
    out = ctx["arrays"]["out"]
    n_sensors = len(sensors)
    cache = _ShardCache(ctx["store"], keys, profile, shard, n_sensors)
    rng: Optional[np.random.Generator] = None
    entry_state = None
    for i, block in enumerate(cache.blocks):
        if block is not None:
            out[i][shard.slice] = block.arrays["readouts"]
            continue
        if rng is None:
            rng = np.random.default_rng(seed_seq)
            entry_state = rng.bit_generator.state
        else:
            rng.bit_generator.state = entry_state
        readouts = characterize_block(
            sensors[i], droops[i], noises[i], shard.size, rng, profile=profile
        )
        out[i][shard.slice] = readouts
        cache.put([(i, {"readouts": readouts}, _block_meta(seed_seq, n_sensors, i))])
    return cache.metrics(start, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Worker-side plumbing.  Workers attach the parent's shared-memory
# segments once (in the pool initializer) and keep the campaign context
# and array views for the pool's lifetime; per-shard tasks then only
# carry (shard, seed, block keys).
# ----------------------------------------------------------------------

#: A pool worker's shard-body context: the campaign kind's context plus
#: ``arrays`` (the attached shared-memory views) and ``store``.  Serial
#: runs build the same dict locally instead (see :meth:`Engine._drive`).
_WORKER: dict = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    seg = shared_memory.SharedMemory(name=name)
    # On POSIX Pythons before 3.13, attaching registers the segment with
    # the process's resource tracker.  Under the fork start method the
    # tracker is shared with the parent, so the duplicate registration
    # is harmless; under spawn each worker gets its own tracker, which
    # would unlink the parent's segment at worker exit — undo the
    # registration there (the parent owns the segment and unlinks it
    # exactly once).
    try:
        import multiprocessing

        if multiprocessing.get_start_method(allow_none=True) != "fork":
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass
    return seg


def _init_worker(context: Dict[str, object], buffers, store):
    """Pool initializer for every campaign kind: ``context`` is what
    the kind's shard body needs (harness, cipher, ...), ``buffers`` the
    shared-memory result buffers to attach."""
    # One BLAS/OMP thread per worker: the pool already claims every
    # core, and nested threadpools thrash.
    pin_worker_threads()
    segments = {}
    arrays = {}
    for label, (name, shape, dtype) in buffers.items():
        seg = _attach_segment(name)
        segments[label] = seg
        arrays[label] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
    _WORKER.clear()
    _WORKER.update(context, segments=segments, arrays=arrays, store=store)


def _in_worker(body: Callable, shard: Shard, seed_seq, keys):
    """Run a shard ``body`` against this worker's context (module-level,
    so the pool pickles ``partial(_in_worker, body)`` by reference)."""
    return body(_WORKER, shard, seed_seq, keys)


class _SharedBuffers:
    """Parent-owned shared-memory result buffers, named
    :func:`~repro.runtime.scheduler.segment_prefix` + index."""

    def __init__(self, specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]]) -> None:
        self.segments: Dict[str, shared_memory.SharedMemory] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.spec_for_worker: Dict[str, Tuple[str, Tuple[int, ...], np.dtype]] = {}
        prefix = segment_prefix()
        try:
            for i, (label, (shape, dtype)) in enumerate(specs.items()):
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                seg = shared_memory.SharedMemory(
                    name=f"{prefix}{i}", create=True, size=max(nbytes, 1)
                )
                self.segments[label] = seg
                self.arrays[label] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
                self.spec_for_worker[label] = (seg.name, shape, dtype)
        except BaseException:
            self.close()
            raise

    def copy_out(self, label: str) -> np.ndarray:
        """A private copy of one buffer (safe to use after close)."""
        return np.array(self.arrays[label])

    def close(self) -> None:
        self.arrays.clear()
        for seg in self.segments.values():
            try:
                seg.close()
                seg.unlink()
            except Exception:
                pass
        self.segments.clear()


class Engine:
    """Deterministic multi-process acquisition engine.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every shard in the parent process
        (the serial reference path — no pool, no shared memory);
        higher counts use a process pool with shared-memory buffers.
        Output is bit-identical either way.
    shard_size:
        Traces/readouts per shard.  Part of the deterministic plan:
        changing it changes the random streams, changing the worker
        count does not.
    progress:
        Optional callback receiving a :class:`ProgressEvent` in the
        parent as each shard completes.
    cache:
        Optional block store for acquire-through-cache: a
        :class:`~repro.traces.blockstore.BlockStore`, or a directory
        path to open one at.  ``None`` (default) acquires everything
        live.  Cached blocks are bit-identical to live acquisition by
        construction, so results never depend on cache state — a warm
        store only removes the sensor-pipeline cost of shards it holds.

    Each campaign's span tree (``engine.<kind>`` -> shard -> stage/cache
    spans, plus checkpoint events) is attached to the engine's own
    ``telemetry`` recorder and kept on ``last_metrics.span``.  Shard
    subtrees are grafted in shard-index order, so the tree's structure
    is identical at any worker count.
    """

    def __init__(
        self,
        workers: int = 1,
        shard_size: int = 4096,
        progress: Optional[ProgressFn] = None,
        cache: Union[None, str, "BlockStore"] = None,
        schedule: str = "stealing",
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        self.workers = workers
        self.shard_size = shard_size
        self.progress = progress
        self.telemetry = Telemetry()
        self.cache = open_store(cache)
        self.schedule = validate_schedule(schedule)
        #: Metrics of the most recent run (:class:`EngineMetrics`).
        self.last_metrics: Optional[EngineMetrics] = None
        #: Cache activity accumulated over *all* runs of this engine,
        #: one entry per :data:`~repro.runtime.metrics.CACHE_COUNTS`
        #: count — ``last_metrics`` only covers the final campaign of a
        #: multi-campaign experiment.
        self.cache_totals = dict.fromkeys((c.key for c in CACHE_COUNTS), 0)
        # High-water mark of the parent store's publish-side counters
        # (the write-behind thread runs in this process, never in
        # workers — see TieredStore.for_worker — so each campaign's
        # delta is exact).
        self._pub_mark: Dict[str, int] = {}
        # Live metrics (process-wide registry).  The deterministic ones
        # (items, shards, shard-size histogram, cache lookups/bytes)
        # are functions of workload + seed alone; scheduler behaviour
        # (steals, queue depth, shard wall time, tier split) is not.
        registry = get_registry()
        self._metric_items = registry.counter(
            "repro_engine_items_total",
            "Traces/readouts produced, by campaign kind.",
            labelnames=("kind",), deterministic=True,
        )
        self._metric_shards = registry.counter(
            "repro_engine_shards_total",
            "Shards completed, by campaign kind.",
            labelnames=("kind",), deterministic=True,
        )
        self._metric_shard_items = registry.histogram(
            "repro_engine_shard_items",
            "Items per completed shard.",
            deterministic=True, buckets=COUNT_BUCKETS,
        )
        self._metric_shard_seconds = registry.histogram(
            "repro_engine_shard_seconds",
            "Wall time per completed shard.",
            buckets=LATENCY_BUCKETS,
        )
        self._metric_queue_depth = registry.gauge(
            "repro_engine_queue_depth",
            "Shards of the running campaign not yet completed.",
        )
        self._metric_steals = registry.counter(
            "repro_engine_steals_total",
            "Shards that ran outside their static-partition run "
            "(work actually stolen vs the baseline assignment).",
        )
        self._metric_cache = {
            name: registry.counter(
                name, help, labelnames=(label,), deterministic=deterministic
            )
            for name, (help, label, deterministic) in CACHE_SERIES.items()
        }

    # ------------------------------------------------------------------
    def cache_hit_rate(self) -> float:
        """:func:`~repro.runtime.metrics.hit_rate` over every run of
        this engine."""
        return hit_rate(self.cache_totals).rate

    def _finish_metrics(
        self,
        metrics: EngineMetrics,
        t0: float,
        start: float = 0.0,
        events: Sequence[SpanRecord] = (),
        prefetcher: Optional[RemotePrefetcher] = None,
    ) -> EngineMetrics:
        """Sort shards, stamp the wall clock, fold cache totals, and
        assemble the campaign span tree (shard-index order — identical
        structure at any worker count).

        With a tiered store this also drains the write-behind publish
        queue (so a campaign *returns* only once every missed block is
        on the remote tier — a second host's warm replay must find a
        complete cache) and folds the publish/prefetch counters into
        ``cache_totals``.
        """
        metrics.shards.sort(key=lambda s: s.shard_index)
        metrics.wall_seconds = time.perf_counter() - t0
        extra = list(events)
        prefetch_snap: Dict[str, int] = {}
        if prefetcher is not None:
            prefetch_snap = prefetcher.snapshot()
            extra.append(
                SpanRecord(
                    name="cache.prefetch",
                    start=start,
                    seconds=prefetcher.busy_seconds,
                    counters={k: float(v) for k, v in prefetch_snap.items()},
                )
            )
        metrics.span = SpanRecord(
            name=f"engine.{metrics.kind}",
            start=start,
            seconds=metrics.wall_seconds,
            attrs={
                "n_items": metrics.n_items,
                "n_shards": metrics.n_shards,
                "workers": metrics.workers,
                "schedule": self.schedule,
            },
            counters={"items": metrics.n_items},
            children=[s.span for s in metrics.shards if s.span is not None]
            + extra,
        )
        self.telemetry.attach(metrics.span)
        if self.cache is not None:
            self.cache.flush()
        # One campaign's CACHE_COUNTS: the shard spans' fold, the
        # prefetch snapshot and the publish-side delta since the
        # previous campaign (no store: no publish counters, all 0).
        counters = self.cache.counters if self.cache is not None else None
        folded = {**metrics.cache_summary(), **prefetch_snap}
        campaign: Dict[str, int] = {}
        for c in CACHE_COUNTS:
            if c.source == "publish":
                mark = int(getattr(counters, c.key, 0))
                folded[c.key] = mark - self._pub_mark.get(c.key, 0)
                self._pub_mark[c.key] = mark
            campaign[c.key] = folded.get(c.key, 0)
            self.cache_totals[c.key] += campaign[c.key]
        self._record_campaign_metrics(metrics, campaign)
        self.last_metrics = metrics
        return metrics

    def _record_campaign_metrics(
        self, metrics: EngineMetrics, campaign: Dict[str, int]
    ) -> None:
        """Mirror one campaign's totals onto the live registry."""
        self._metric_items.inc(metrics.n_items, kind=metrics.kind)
        self._metric_shards.inc(metrics.n_shards, kind=metrics.kind)
        for sm in metrics.shards:
            self._metric_shard_items.observe(sm.n_items)
            self._metric_shard_seconds.observe(sm.seconds)
        steals = self._count_steals(metrics)
        if steals:
            self._metric_steals.inc(steals)
        if self.cache is None:
            return
        # Deterministic view: a hit from any warm tier is a hit (the
        # local/remote split depends on prefetch timing, the union does
        # not).
        self._metric_cache[LOOKUPS].inc(hit_rate(campaign).served, outcome="hit")
        for c in CACHE_COUNTS:
            value = campaign[c.key]
            if c.series is not None and (value or c.deterministic):
                metric = self._metric_cache[c.series]
                metric.inc(value, **{metric.labelnames[0]: c.label})

    def _count_steals(self, metrics: EngineMetrics) -> int:
        """Shards whose worker differs from the previous shard of the
        static run they would have belonged to — i.e. work the shared
        queue actually moved relative to the baseline partition."""
        if self.schedule != "stealing" or metrics.workers <= 1:
            return 0
        pids = [sm.span.pid if sm.span is not None else 0 for sm in metrics.shards]
        steals = 0
        for group in static_groups(len(pids), metrics.workers):
            for a, b in zip(group, group[1:]):
                if pids[a] != pids[b]:
                    steals += 1
        return steals

    def _worker_cache(self) -> Optional["BlockStore"]:
        """The store view shipped to pool workers: read-through stays
        on, publishing turns off — every remote upload funnels through
        the parent (one queue, one flush, nothing orphaned when a
        worker exits via ``os._exit``)."""
        return self.cache.for_worker() if self.cache is not None else None

    def _plan_cache_traffic(
        self, tasks: Sequence[ShardTask]
    ) -> Tuple[Optional[List[str]], Optional[RemotePrefetcher]]:
        """Classify shards against the store's tiers and kick off
        background prefetch of remote-tier blocks.

        Classification costs one batched remote round trip, so it is
        skipped when nothing would use it: no cache, or a plain local
        store under a serial / static plan.
        """
        if self.cache is None:
            return None, None
        tiered = hasattr(self.cache, "fetch")
        stealing = self.workers > 1 and self.schedule == "stealing"
        if not (tiered or stealing):
            return None, None
        classes, tiers = classify_tasks(self.cache, tasks)
        prefetcher = None
        if tiered:
            remote_keys = [k for k, tier in sorted(tiers.items()) if tier == "remote"]
            if remote_keys:
                prefetcher = RemotePrefetcher(self.cache, remote_keys)
        return classes, prefetcher

    def _publish_after(self, task: ShardTask, sm: ShardMetrics) -> None:
        """Pool-path write-behind: workers publish locally only, so as
        each missed shard completes the parent enqueues its block keys
        for remote upload (overlapping the rest of the campaign)."""
        if self.workers == 1 or not hasattr(self.cache, "publish_async"):
            return
        if sm.cache in ("miss", "partial"):
            self.cache.publish_async(flatten_keys(task.key))

    def _plan(
        self,
        n_items: int,
        seed: SeedLike,
        tokens: Callable[[], Sequence[Dict]],
        **extra,
    ) -> List[ShardTask]:
        """A campaign's shard tasks: the deterministic shard plan, one
        spawned :class:`~numpy.random.SeedSequence` per shard, and each
        shard's tuple of per-sensor content addresses (``None`` with the
        cache off, when ``tokens`` is never called).

        Sensor ``i``'s key binds the full determinism contract: schema
        version, its config token ``tokens()[i]``, the shard's RNG
        lineage (root seed + shard index, via the spawned child's spawn
        key) and the block geometry.  Worker count, kernel choice and
        fan-out width are *absent* — they never change content — so a
        sensor's keys are the same alone or in a fan-out of any width,
        and blocks flow freely between the two.
        """
        shards = plan_shards(n_items, self.shard_size)
        seqs = spawn_shard_sequences(seed, len(shards))
        configs = tokens() if self.cache is not None else None
        tasks = []
        for i, (shard, seq) in enumerate(zip(shards, seqs)):
            key = None
            if configs is not None:
                lineage = seed_lineage(seq)
                key = tuple(
                    block_key(
                        {
                            "schema": SCHEMA_VERSION,
                            "config": config,
                            "lineage": lineage,
                            "block_items": shard.size,
                            **extra,
                        }
                    )
                    for config in configs
                )
            tasks.append(ShardTask(i, shard, seq, key))
        return tasks

    # ------------------------------------------------------------------
    def _emit(self, kind: str, done: int, total: int, shard: ShardMetrics) -> None:
        if self.progress is not None:
            detail = shard.summary() if shard is not None else ""
            self.progress(
                ProgressEvent(
                    kind=kind, done=done, total=total, shard=shard, detail=detail
                )
            )

    def _drive(
        self,
        kind: str,
        n_items: int,
        tasks: Sequence[ShardTask],
        body: Callable,
        context: Dict[str, object],
        buffers: Optional[Dict[str, Tuple[Tuple[int, ...], np.dtype]]] = None,
        fold: Optional[Callable[[ShardTask, object], ShardMetrics]] = None,
        events: Sequence[SpanRecord] = (),
    ) -> Dict[str, np.ndarray]:
        """Run a shard plan serially or on a pool; returns the filled
        result buffers.

        ``body(ctx, shard, seq, keys)`` is the kind's one shard body.
        ``ctx`` is ``context`` plus ``arrays`` (the result buffers,
        labels mapped to the ``(shape, dtype)`` in ``buffers``) and
        ``store``: built locally here on a serial run — never a module
        global, since the campaign service runs engines on several
        threads at once — and once per pool worker, over shared memory,
        by :func:`_init_worker`.  ``fold(task, result)`` turns a body's
        result into its metrics as shards arrive (pool stream bodies
        also return accumulators); by default the result *is* the
        metrics.
        ``events`` (filled while the run folds) join the campaign span.
        """
        buffers = buffers or {}
        metrics = EngineMetrics(
            kind=kind,
            n_items=n_items,
            n_shards=len(tasks),
            workers=min(self.workers, len(tasks)),
        )
        shared = _SharedBuffers(buffers) if self.workers > 1 else None
        try:
            if shared is None:
                arrays = {
                    label: np.empty(shape, dtype=dtype)
                    for label, (shape, dtype) in buffers.items()
                }
                ctx = dict(context, arrays=arrays, store=self.cache)
                run_shard, initargs = partial(body, ctx), ()
            else:
                run_shard = partial(_in_worker, body)
                initargs = (context, shared.spec_for_worker, self._worker_cache())
            start = time.time()
            t0 = time.perf_counter()
            classes, prefetcher = self._plan_cache_traffic(tasks)
            shards = dispatch(
                tasks,
                workers=self.workers,
                schedule=self.schedule,
                task=run_shard,
                pool_initializer=_init_worker,
                pool_initargs=initargs,
                classes=classes,
            )
            try:
                done = 0
                for task, result in shards:
                    sm = fold(task, result) if fold is not None else result
                    del result  # folded: free it before the next shard runs
                    metrics.shards.append(sm)
                    self._publish_after(task, sm)
                    done += task.shard.size
                    self._metric_queue_depth.set(len(tasks) - len(metrics.shards))
                    self._emit(kind, done, n_items, sm)
            finally:
                # Shut the pool down and sweep its result segments now,
                # not whenever an exception's traceback lets go of the
                # generator.
                shards.close()
                self._metric_queue_depth.set(0)
                if prefetcher is not None:
                    prefetcher.stop()
            self._finish_metrics(metrics, t0, start, events, prefetcher=prefetcher)
            if shared is not None:
                arrays = {label: shared.copy_out(label) for label in buffers}
            return arrays
        finally:
            if shared is not None:
                shared.close()

    @staticmethod
    def _as_multi(
        acquisitions: Union[MultiSensorAcquisition, Sequence[object]],
    ) -> MultiSensorAcquisition:
        """Normalize a spec/harness sequence to one fan-out harness, with
        every model table workers would otherwise rebuild warmed (the
        moments tables ship with the pickled sensors)."""
        if not isinstance(acquisitions, MultiSensorAcquisition):
            acquisitions = MultiSensorAcquisition(list(acquisitions))
        for acq in acquisitions:
            acq.sensor.precompute_moments()
            acq.sensor.require_position()
        return acquisitions

    # ------------------------------------------------------------------
    def collect(
        self,
        acquisition: AESTraceAcquisition,
        n_traces: int,
        *,
        key,
        seed: SeedLike = 0,
        n_samples: Optional[int] = None,
    ) -> TraceSet:
        """Run ``n_traces`` encryptions and record the sensor readouts
        (the key-extraction campaign, Section IV-B) as one
        :class:`TraceSet`.

        ``seed`` must be an integer or a :class:`numpy.random.
        SeedSequence` (generators are rejected — see
        :func:`repro.runtime.sharding.root_sequence`).  For a fixed
        seed the returned :class:`TraceSet` is bit-identical at any
        worker count.  This is :meth:`collect_many` over one sensor.
        """
        return self.collect_many(
            [acquisition], n_traces, key=key, seed=seed, n_samples=n_samples
        )[0]

    def collect_many(
        self,
        acquisitions: Union[MultiSensorAcquisition, Sequence[object]],
        n_traces: int,
        *,
        key,
        seed: SeedLike = 0,
        n_samples: Optional[int] = None,
    ) -> List[TraceSet]:
        """Sharded fan-out collection: one :class:`TraceSet` per sensor.

        ``acquisitions`` is a :class:`~repro.traces.acquisition.
        MultiSensorAcquisition` or a sequence of specs/harnesses to
        wrap in one.  Each returned trace set is bit-identical to
        :meth:`collect` over that sensor alone with the same seed (the
        ``acquire_many`` contract), at any worker count; the shared
        AES+PDN pass is simply computed once per shard instead of N
        times.  All trace sets share the same plaintexts, ciphertexts
        and key.
        """
        msa = self._as_multi(acquisitions)
        aes = AES128(key)
        if n_samples is None:
            n_samples = msa.default_n_samples()
        out = self._drive(
            "collect", n_traces,
            self._plan(
                n_traces, seed, msa.cache_tokens,
                n_samples=n_samples, aes_key=bytes(aes.key),
            ),
            _collect_shard,
            dict(msa=msa, aes=aes, n_samples=n_samples),
            buffers={
                "traces": ((len(msa), n_traces, n_samples), np.dtype(np.int16)),
                "pts": ((n_traces, 16), np.dtype(np.uint8)),
                "cts": ((n_traces, 16), np.dtype(np.uint8)),
            },
        )
        return [
            TraceSet(
                traces=out["traces"][i],
                plaintexts=out["pts"],
                ciphertexts=out["cts"],
                key=aes.key,
                metadata=acq.trace_metadata(aes),
            )
            for i, acq in enumerate(msa)
        ]

    # ------------------------------------------------------------------
    def stream_attack(
        self,
        acquisition: AESTraceAcquisition,
        n_traces: int,
        *,
        key,
        consumer_factory: Callable[[], object],
        seed: SeedLike = 0,
        n_samples: Optional[int] = None,
        checkpoints: Sequence[int] = (),
        on_checkpoint: Optional[Callable[[int, object], None]] = None,
        consumer: Optional[object] = None,
    ) -> object:
        """Acquire a campaign and fold it straight into an accumulator.

        The streaming counterpart of :meth:`collect`: identical shard
        plan, identical random streams — so the traces are bit-for-bit
        the ones :meth:`collect` would return — but shards are folded
        into a mergeable accumulator (anything exposing ``update(traces,
        ciphertexts)`` and ``merge(other)``, e.g. :class:`~repro.attacks.
        cpa.CPAAttack`) as they complete, and the full ``(n_traces,
        n_samples)`` matrix is never materialized.  An accumulator type
        may also offer ``update_many(accumulators, traces_list,
        ciphertexts)``, one call folding a segment into one accumulator
        per sensor; the engine then uses it instead of per-sensor
        ``update`` calls.  Each call gets a whole checkpoint-bounded
        shard segment (at most ``shard_size`` rows); the accumulator
        bounds its own working set.  Peak memory is one shard block plus
        the accumulators, independent of ``n_traces``.

        Parameters
        ----------
        consumer_factory:
            Zero-argument callable producing a fresh accumulator; must
            be picklable for ``workers > 1`` (e.g. ``functools.partial(
            CPAAttack, n_samples)``).
        checkpoints:
            Strictly increasing trace counts at which ``on_checkpoint
            (count, accumulator)`` fires with the accumulator holding
            exactly the first ``count`` traces — incremental key-rank
            progress without a second pass.
        consumer:
            Existing accumulator to continue (e.g. extend a campaign
            that has not disclosed the key yet) instead of starting
            from ``consumer_factory()``.

        Returns the folded accumulator.  Results are bit-identical at
        any worker count and shard size for integer-readout accumulators
        (see :mod:`repro.analysis.streaming`).

        With a block store configured, accumulators that implement the
        snapshot protocol (``cache_token`` / ``state_arrays`` /
        ``load_state_arrays``, e.g. :class:`~repro.attacks.cpa.
        CPAAttack`) additionally memoize their folded state at every
        checkpoint: an identical later campaign is replayed from those
        snapshots without re-acquiring *or* re-accumulating a single
        trace, bit-identically.  This is :meth:`stream_attack_many`
        over one sensor.
        """
        relay = None
        if on_checkpoint is not None:
            def relay(_sensor: int, count: int, acc: object) -> None:
                on_checkpoint(count, acc)

        return self._stream(
            self._as_multi([acquisition]), n_traces, key=key,
            consumer_factory=consumer_factory, seed=seed, n_samples=n_samples,
            checkpoints=checkpoints, on_checkpoint=relay,
            consumers=None if consumer is None else [consumer],
        )[0]

    def stream_attack_many(
        self,
        acquisitions: Union[MultiSensorAcquisition, Sequence[object]],
        n_traces: int,
        *,
        key,
        consumer_factory: Callable[[], object],
        seed: SeedLike = 0,
        n_samples: Optional[int] = None,
        checkpoints: Sequence[int] = (),
        on_checkpoint: Optional[Callable[[int, int, object], None]] = None,
    ) -> List[object]:
        """Fan-out counterpart of :meth:`stream_attack`: one victim
        campaign folded into one accumulator *per sensor*.

        ``consumer_factory`` is called once per sensor for the masters
        (and per segment inside workers); ``on_checkpoint(sensor_index,
        count, accumulator)`` fires per sensor at each checkpoint, in
        sensor order within a checkpoint.  Each segment reaches the
        sensors' accumulators through one ``update_many`` call when
        their type defines it (:meth:`~repro.attacks.cpa.CPAAttack.
        update_many` prepares the segment's hypotheses once for all
        sensors), and through per-sensor ``update`` calls otherwise.
        Each returned accumulator is bit-identical to
        :meth:`stream_attack` over that sensor alone with the same
        seed, at any worker count.

        Attack-state snapshots are memoized for a fan-out of one only:
        at N > 1 the per-sensor trace blocks themselves are cached, so
        a warm rerun replays acquisition from the store and repeats
        only the accumulation.
        """
        return self._stream(
            self._as_multi(acquisitions), n_traces, key=key,
            consumer_factory=consumer_factory, seed=seed, n_samples=n_samples,
            checkpoints=checkpoints, on_checkpoint=on_checkpoint,
        )

    def _stream(
        self,
        msa: MultiSensorAcquisition,
        n_traces: int,
        *,
        key,
        consumer_factory: Callable[[], object],
        seed: SeedLike,
        n_samples: Optional[int],
        checkpoints: Sequence[int],
        on_checkpoint: Optional[Callable[[int, int, object], None]],
        consumers: Optional[List[object]] = None,
    ) -> List[object]:
        """The stream campaign behind both public methods; ``consumers``
        continues existing per-sensor accumulators.  A serial run folds
        each segment straight into the masters (the sums are exact, so
        that equals merging a fresh segment); a pool run merges its
        workers' segments into them in shard order."""
        boundaries = tuple(int(c) for c in checkpoints)
        if list(boundaries) != sorted(set(boundaries)):
            raise ConfigurationError("checkpoints must be strictly increasing")
        if boundaries and not 0 < boundaries[0] <= boundaries[-1] <= n_traces:
            raise ConfigurationError(
                f"checkpoints must lie in 1..{n_traces}, got {boundaries}"
            )
        aes = AES128(key)
        if n_samples is None:
            n_samples = msa.default_n_samples()
        # Streamed and collected campaigns share block keys (and
        # therefore stored blocks): the acquisition draws are identical.
        tasks = self._plan(
            n_traces, seed, msa.cache_tokens,
            n_samples=n_samples, aes_key=bytes(aes.key),
        )
        checkpoint_set = set(boundaries)

        # Attack-state snapshots, for a fresh campaign over one sensor
        # (at N > 1 the snapshots would outweigh the trace blocks they
        # summarize).  Replaying them skips acquisition *and*
        # re-accumulation; restored sums are bit-exact, so every derived
        # correlation and key rank is unchanged.
        state_keys: List[Dict[int, str]] = []
        if self.cache is not None and consumers is None and len(msa) == 1:
            state_keys = self._attack_state_keys(
                consumer_factory, tasks, sorted({*boundaries, n_traces})
            )
        if state_keys and all(
            self.cache.contains(k) for ends in state_keys for k in ends.values()
        ):
            replayed = self._replay_attack_states(
                n_traces, state_keys, checkpoint_set, on_checkpoint,
                consumer_factory,
            )
            if replayed is not None:
                return replayed

        masters = list(consumers) if consumers is not None else [
            consumer_factory() for _ in range(len(msa))
        ]
        pending: Dict[int, Tuple[ShardMetrics, List[List[Tuple[int, object]]]]] = {}
        next_index = 0
        events: List[SpanRecord] = []

        def segment_end(end: int, snapshots: StageProfile) -> None:
            """The masters now hold the first ``end`` traces: snapshot
            and fire checkpoint ``end`` per sensor, in sensor order."""
            for s_i, master in enumerate(masters):
                state_key = state_keys[s_i].get(end) if state_keys else None
                if state_key is not None and not self.cache.contains(state_key):
                    # Snapshot the exact state *before* the checkpoint
                    # callback sees it: the dump is the first `end`
                    # traces, nothing else.
                    _put_attack_state(
                        self.cache, snapshots, state_key, master.state_arrays(), end
                    )
                if end in checkpoint_set:
                    events.append(_checkpoint_event(end, master, s_i))
                    if on_checkpoint is not None:
                        on_checkpoint(s_i, end, master)

        def fold(task: ShardTask, result) -> ShardMetrics:
            """Merge pool shards' segments into the masters in index
            order, running the segment-end step after each segment (a
            serial shard has folded into the masters and run it)."""
            nonlocal next_index
            pending[task.shard.index] = result
            while next_index in pending:
                folded_sm, per_sensor = pending.pop(next_index)
                snapshots = StageProfile()
                for segment in zip(*per_sensor):  # one (end, part) per sensor
                    for master, (_end, part) in zip(masters, segment):
                        master.merge(part)
                    segment_end(segment[0][0], snapshots)
                _charge_snapshots(folded_sm.span, snapshots)
                next_index += 1
            return result[0]

        serial = self.workers == 1
        self._drive(
            "stream", n_traces, tasks, _stream_shard,
            dict(
                msa=msa, aes=aes, n_samples=n_samples, factory=consumer_factory,
                boundaries=boundaries,
                # Closures stay in this process: pool workers get None.
                masters=masters if serial else None,
                segment_end=segment_end if serial else None,
            ),
            fold=fold,
            events=events,
        )
        return masters

    def _attack_state_keys(
        self,
        consumer_factory: Callable[[], object],
        tasks: Sequence[ShardTask],
        ends: Sequence[int],
    ) -> List[Dict[int, str]]:
        """Per-sensor ``{n_traces: key}`` of the attack-state snapshots
        a streamed campaign memoizes at each of ``ends`` — or ``[]``
        when the accumulator cannot dump and restore its exact sums.

        A snapshot is content-addressed by the attack configuration and
        the ordered block keys it covers, taken from the sensor's own
        slot of each task's key — so a sensor's snapshot keys are exactly
        those of a single-sensor campaign over it.
        """
        probe = consumer_factory()
        if not all(
            hasattr(probe, m)
            for m in ("cache_token", "state_arrays", "load_state_arrays")
        ):
            return []
        attack_token = probe.cache_token()
        covering = {
            end: next(i + 1 for i, t in enumerate(tasks) if t.shard.stop >= end)
            for end in ends
        }
        return [
            {
                end: block_key(
                    {
                        "kind": "attack-state",
                        "schema": SCHEMA_VERSION,
                        "attack": attack_token,
                        "blocks": [t.key[s_i] for t in tasks[: covering[end]]],
                        "n_traces": end,
                    }
                )
                for end in ends
            }
            for s_i in range(len(tasks[0].key))
        ]

    def _replay_attack_states(
        self,
        n_traces: int,
        state_keys: List[Dict[int, str]],
        checkpoint_set: set,
        on_checkpoint: Optional[Callable[[int, int, object], None]],
        consumer_factory: Callable[[], object],
    ) -> Optional[List[object]]:
        """Serve a streamed campaign entirely from attack-state
        snapshots.

        Every snapshot is fetched (and digest-verified) *before* any
        checkpoint callback fires, so a damaged state file cannot leave
        callbacks half-replayed: on any missing or damaged snapshot this
        returns ``None`` and the caller streams normally, republishing
        snapshots as it goes.
        """
        snap_points = sorted(state_keys[0])
        blocks = []
        for sensor_keys in state_keys:
            sensor_blocks = {}
            for end in snap_points:
                # expect=True: contains() said yes moments ago, so a
                # miss here is a prune race — counted as `expired`, then
                # the caller streams the campaign normally.
                block = self.cache.get(sensor_keys[end], expect=True)
                if block is None:
                    return None
                sensor_blocks[end] = block
            blocks.append(sensor_blocks)
        masters = [consumer_factory() for _ in state_keys]
        metrics = EngineMetrics(
            kind="stream",
            n_items=n_traces,
            n_shards=len(snap_points),
            workers=1,
        )
        start = time.time()
        t0 = time.perf_counter()
        done = 0
        events: List[SpanRecord] = []
        for index, end in enumerate(snap_points):
            state_start = time.time()
            t_state = time.perf_counter()
            for master, sensor_blocks in zip(masters, blocks):
                master.load_state_arrays(sensor_blocks[end].arrays)
            seconds = time.perf_counter() - t_state
            nbytes = sum(sensor_blocks[end].nbytes for sensor_blocks in blocks)
            profile = StageProfile()
            profile.add("cache", seconds, nbytes=nbytes, items=end - done)
            sm = _shard_metrics(
                Shard(index=index, start=done, stop=end),
                profile,
                state_start,
                seconds,
                "hit",
                {"bytes_read": nbytes},
            )
            metrics.shards.append(sm)
            done = end
            if end in checkpoint_set:
                for s_i, master in enumerate(masters):
                    events.append(_checkpoint_event(end, master, s_i))
                    if on_checkpoint is not None:
                        on_checkpoint(s_i, end, master)
            self._emit("stream", done, n_traces, sm)
        self._finish_metrics(metrics, t0, start, events)
        return masters

    # ------------------------------------------------------------------
    def characterize(
        self,
        sensor: VoltageSensor,
        coupling: CouplingModel,
        virus: PowerVirusBank,
        active_groups: int,
        n_readouts: int = 2000,
        *,
        seed: SeedLike = 0,
        noise: Optional[NoiseModel] = None,
    ) -> np.ndarray:
        """Sample a sensor under a steady power-virus activity level
        (the characterization workload of Section IV-A, Fig. 3/4).

        ``active_groups`` is how many of the bank's groups are enabled
        (``0 .. virus.n_groups``); integer-valued floats are coerced and
        fractional or out-of-range values raise
        :class:`~repro.errors.AcquisitionError`.  ``noise`` defaults to
        white noise at the sensor constants' RMS level.  Returns the
        ``(n_readouts,)`` integer readouts, bit-identical at any worker
        count for a fixed ``seed``.  This is :meth:`characterize_many`
        over one sensor.
        """
        return self.characterize_many(
            [sensor], coupling, virus, active_groups, n_readouts,
            seed=seed, noise=noise,
        )[0]

    def characterize_many(
        self,
        sensors: Sequence[VoltageSensor],
        coupling: CouplingModel,
        virus: PowerVirusBank,
        active_groups: int,
        n_readouts: int = 2000,
        *,
        seed: SeedLike = 0,
        noise: Optional[NoiseModel] = None,
    ) -> List[np.ndarray]:
        """Fan-out counterpart of :meth:`characterize`: one readout
        array per sensor from a single sharded campaign.

        Every sensor's row is bit-identical to :meth:`characterize`
        over that sensor alone with the same seed — inside a shard the
        RNG is restored to its entry state between sensors — and each
        sensor's cache blocks use exactly its single-sensor key, so the
        two share a warm store.  ``noise`` applies to all sensors when
        given; otherwise each sensor gets its own white-noise default
        from its constants (matching :meth:`characterize`).
        """
        if not sensors:
            raise ConfigurationError("characterize_many needs >= 1 sensor")
        droops = [
            characterize_droop(sensor, coupling, virus, active_groups)
            for sensor in sensors
        ]
        noises = [
            noise or NoiseModel(white_rms=sensor.constants.voltage_noise_rms)
            for sensor in sensors
        ]
        tasks = self._plan(
            n_readouts, seed,
            lambda: [
                {
                    "kind": "characterize",
                    "sensor": sensor.cache_token(),
                    "droop": float(droop),
                    "noise": sensor_noise.cache_token(),
                }
                for sensor, droop, sensor_noise in zip(sensors, droops, noises)
            ],
        )
        out = self._drive(
            "characterize", n_readouts, tasks, _characterize_shard,
            dict(sensors=sensors, droops=droops, noises=noises),
            buffers={"out": ((len(sensors), n_readouts), np.dtype(np.int64))},
        )["out"]
        return [out[i] for i in range(len(sensors))]
