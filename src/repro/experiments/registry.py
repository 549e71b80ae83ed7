"""The uniform experiment API.

Every experiment module registers itself here and exposes the same
entry-point protocol::

    run(config: ExperimentConfig, engine: Engine) -> ExperimentResult

replacing the historical per-module signatures (``run(n_readouts=...)``,
``run(placements=..., n_traces=...)``, ...).

Typical use::

    from repro.experiments import registry
    from repro.runtime import Engine

    config = registry.ExperimentConfig(scale="quick", workers=4, seed=0)
    result = registry.run("table1", config)
    print("\n".join(result.lines()))
    print(result.metrics)

``registry.run`` builds an :class:`~repro.runtime.Engine` from the
config (or accepts one), times the run, and wraps the module's native
result object (``payload``) together with uniform metadata and a flat
``metrics`` dict.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.analysis.streaming import validate_chunk_size
from repro.errors import ConfigurationError
from repro.runtime import Engine, ProgressFn, validate_schedule

#: Recognized workload scales.  ``"paper"`` matches the paper-scale
#: defaults the modules have always used; ``"quick"`` is the scaled-down
#: variant suitable for CI and laptops.
SCALES = ("quick", "paper")


@dataclass
class ExperimentConfig:
    """Uniform configuration for any registered experiment.

    Attributes
    ----------
    scale:
        ``"paper"`` (default; the modules' historical full-scale
        parameters) or ``"quick"`` (scaled-down).
    seed:
        Root seed.  Every experiment spawns its campaign streams from
        this via :class:`numpy.random.SeedSequence`, so one integer
        pins down an entire run at any worker count.
    workers:
        Acquisition worker processes (used when no explicit engine is
        passed to :func:`run`).
    shard_size:
        Traces/readouts per engine shard.
    chunk_size:
        Traces per accumulator update when an experiment streams its
        campaign into an attack (``None`` folds whole shard segments).
        Any value yields bit-identical results; smaller chunks bound
        the transient working set.
    progress:
        Progress callback forwarded to the engine.
    cache_dir:
        Directory of the content-addressed trace block cache
        (:mod:`repro.traces.blockstore`).  ``None`` reads the
        ``REPRO_CACHE_DIR`` environment variable; when that is unset
        too, the cache is off (every block acquired live).  Because
        cached blocks are bit-identical to live acquisition, this
        setting never changes results — only wall clock.
    cache_max_bytes:
        Optional LRU size cap for the block cache.
    remote_cache:
        URL of a ``repro cache serve`` artifact server (``http://
        host:port``).  ``None`` reads ``REPRO_REMOTE_CACHE``; when set,
        the engine's store becomes a :class:`~repro.traces.
        store_backends.tiered.TieredStore` — local misses read through
        the server and locally-acquired blocks are published back
        write-behind.  Like ``cache_dir`` this never changes results
        (remote blocks are digest-verified on ingest), only wall clock.
    schedule:
        Engine shard dispatch: ``"stealing"`` (default — shared queue,
        cache-aware order, remote prefetch overlap) or ``"static"``
        (contiguous per-worker pre-partition, the measurable baseline).
        Bit-identical results either way.
    options:
        Per-experiment parameter overrides, merged over the
        scale-derived defaults (e.g. ``{"n_traces": 10_000}``).
    run_dir:
        When set, :func:`run` writes the run's telemetry record there:
        ``manifest.json`` (config identity + environment) and
        ``run.jsonl`` (structured span/metrics/cache events — see
        :mod:`repro.telemetry.runlog`).  Telemetry recording itself is
        always on (spans are cheap plain dataclasses); this only
        controls whether the record is persisted.
    trace_out:
        When set, :func:`run` exports the run's span tree as a Chrome
        trace-event file loadable in Perfetto / ``chrome://tracing``.
    trace_id:
        Fleet trace correlation id.  ``None`` reads ``REPRO_TRACE_ID``;
        when set, the whole run executes inside a
        :func:`~repro.telemetry.tracing.trace_scope` — the id is
        stamped on the run span and rides the ``X-Repro-Trace`` header
        of every remote-cache request, so ``repro report trace`` can
        stitch one cross-process timeline.  Never part of the run's
        identity hash.
    """

    scale: str = "paper"
    seed: int = 0
    workers: int = 1
    shard_size: int = 4096
    chunk_size: Optional[int] = None
    progress: Optional[ProgressFn] = None
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    remote_cache: Optional[str] = None
    schedule: str = "stealing"
    options: Dict[str, Any] = field(default_factory=dict)
    run_dir: Optional[str] = None
    trace_out: Optional[str] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; expected one of {SCALES}"
            )
        validate_chunk_size(self.chunk_size, allow_none=True)
        validate_schedule(self.schedule)
        if self.cache_dir is None:
            self.cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if self.remote_cache is None:
            self.remote_cache = os.environ.get("REPRO_REMOTE_CACHE") or None
        if self.trace_id is None:
            self.trace_id = os.environ.get("REPRO_TRACE_ID") or None

    def make_engine(self) -> Engine:
        """An engine matching this configuration."""
        from repro.traces.blockstore import open_store

        cache = None
        if self.cache_dir or self.remote_cache:
            cache = open_store(
                self.cache_dir,
                max_bytes=self.cache_max_bytes,
                remote=self.remote_cache,
            )
        return Engine(
            workers=self.workers,
            shard_size=self.shard_size,
            progress=self.progress,
            cache=cache,
            schedule=self.schedule,
        )

    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """``n`` independent campaign seed sequences from the root seed."""
        return np.random.SeedSequence(self.seed).spawn(n)

    def params(self, quick: Dict[str, Any], paper: Dict[str, Any]) -> Dict[str, Any]:
        """Scale-selected defaults merged with the config's overrides."""
        merged = dict(quick if self.scale == "quick" else paper)
        merged.update(self.options)
        return merged


@dataclass
class ExperimentResult:
    """Uniform result wrapper returned by every registered experiment."""

    name: str
    #: The experiment module's native result object (``Fig3Result``,
    #: ``Table1Result``, ...), unchanged.
    payload: Any
    #: Flat summary metrics extracted from the payload.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Run parameters (scale, seed, workers, resolved options).
    metadata: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    def lines(self) -> List[str]:
        """The experiment's paper-style report lines."""
        return get(self.name).renderer(self.payload)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    name: str
    title: str
    runner: Callable[[ExperimentConfig, Engine], Any]
    renderer: Callable[[Any], List[str]]
    metrics: Callable[[Any], Dict[str, Any]]


_REGISTRY: Dict[str, ExperimentSpec] = {}
_POPULATED = False


def register(
    name: str,
    title: str,
    renderer: Optional[Callable[[Any], List[str]]] = None,
    metrics: Optional[Callable[[Any], Dict[str, Any]]] = None,
) -> Callable:
    """Class the decorated ``(config, engine) -> payload`` callable as
    the registered runner for ``name``."""

    def decorate(runner: Callable[[ExperimentConfig, Engine], Any]) -> Callable:
        if name in _REGISTRY:
            raise ConfigurationError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            title=title,
            runner=runner,
            renderer=renderer or (lambda payload: [repr(payload)]),
            metrics=metrics or (lambda payload: {}),
        )
        return runner

    return decorate


def _populate() -> None:
    """Import every experiment module once so decorators register."""
    global _POPULATED
    if _POPULATED:
        return
    from repro.experiments import (  # noqa: F401
        ablation_calib,
        ablation_chain,
        defense_study,
        fig3_sensitivity,
        fig4_placement,
        fig5_keyrank,
        fig6_frequency,
        fig7_covert,
        pdn_validation,
        sensor_zoo,
        table1_traces,
    )

    _POPULATED = True


def names() -> List[str]:
    """Registered experiment names, sorted."""
    _populate()
    return sorted(_REGISTRY)


def get(name: str) -> ExperimentSpec:
    """Look an experiment up by its registered name."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def run(
    name: str,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[Engine] = None,
) -> ExperimentResult:
    """Run one experiment through the uniform protocol.

    The whole run is recorded as one ``run.<name>`` telemetry span on
    the engine's recorder; the engine campaigns the runner launches nest
    under it.  With ``config.run_dir`` set, the manifest + JSONL run log
    are written there afterwards; with ``config.trace_out`` set, the
    span tree is exported as a Chrome/Perfetto trace.
    """
    from repro.telemetry.metrics import diff_snapshots, get_registry
    from repro.telemetry.tracing import trace_scope

    spec = get(name)
    config = config or ExperimentConfig()
    engine = engine or config.make_engine()
    cache_before = dict(engine.cache_totals)
    live = get_registry()
    live_before = live.snapshot()
    live_before_det = live.snapshot(deterministic_only=True)
    span_attrs: Dict[str, Any] = dict(
        experiment=name, scale=config.scale, seed=config.seed
    )
    if config.trace_id:
        span_attrs["trace_id"] = config.trace_id
    t0 = time.perf_counter()
    with trace_scope(config.trace_id):
        with engine.telemetry.span(f"run.{name}", **span_attrs) as run_span:
            payload = spec.runner(config, engine)
    seconds = time.perf_counter() - t0
    # The run's own registry activity, split into the deterministic
    # delta (bit-identical across worker counts — golden-comparable)
    # and the full delta (timing histograms included).
    metrics_delta = {
        "snapshot": diff_snapshots(
            live_before_det, live.snapshot(deterministic_only=True)
        ),
        "full": diff_snapshots(live_before, live.snapshot()),
    }
    metadata = {
        "scale": config.scale,
        "seed": config.seed,
        "workers": engine.workers,
        "chunk_size": config.chunk_size,
        "schedule": engine.schedule,
        "options": dict(config.options),
    }
    cache = None
    if engine.cache is not None:
        # This experiment's own cache activity (the engine may be
        # shared across experiments, so report the delta).
        cache = {
            k: engine.cache_totals[k] - cache_before[k]
            for k in engine.cache_totals
        }
        served = cache["hits"] + cache["remote_served"]
        lookups = served + cache["misses"] + cache["partial"]
        cache["hit_rate"] = round(served / lookups, 4) if lookups else 0.0
        metadata["cache"] = cache
    result = ExperimentResult(
        name=name,
        payload=payload,
        metrics=spec.metrics(payload),
        metadata=metadata,
        seconds=seconds,
    )
    if config.run_dir or config.trace_out:
        _persist_run(name, config, engine, run_span, result, cache, metrics_delta)
    return result


def _cache_provenance(engine: Engine) -> Optional[Dict[str, Any]]:
    """Where this run's blocks lived: store host/backend/schema (from
    :meth:`BlockStore.provenance`), plus the local-tier root, the
    remote tier when one is configured, and the shard schedule."""
    store = engine.cache
    if store is None:
        return None
    prov: Dict[str, Any] = dict(store.provenance())
    prov["root"] = str(store.root)
    prov["schedule"] = engine.schedule
    remote = getattr(store, "remote", None)
    if remote is not None:
        prov["remote"] = remote.describe()
    return prov


def _persist_run(
    name: str,
    config: ExperimentConfig,
    engine: Engine,
    run_span,
    result: ExperimentResult,
    cache: Optional[Dict[str, Any]],
    metrics_delta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the run directory (manifest + JSONL log) and/or trace."""
    from repro.telemetry import (
        TRACE_FILE,
        build_manifest,
        write_chrome_trace,
        write_run_log,
    )

    n_items = int(
        sum(rec.counter("items") for rec in run_span.children)
    )
    if config.run_dir:
        manifest = build_manifest(
            name,
            scale=config.scale,
            seed=config.seed,
            workers=engine.workers,
            shard_size=config.shard_size,
            chunk_size=config.chunk_size,
            options=config.options,
            cache_provenance=_cache_provenance(engine),
        )
        write_run_log(
            config.run_dir,
            manifest=manifest,
            roots=[run_span],
            metrics=result.metrics,
            cache=dict(enabled=True, **cache) if cache else None,
            wall_seconds=result.seconds,
            n_items=n_items,
            metrics_snapshot=metrics_delta,
        )
        result.metadata["run_dir"] = str(config.run_dir)
    trace_out = config.trace_out
    if config.run_dir and not trace_out:
        trace_out = str(Path(config.run_dir) / TRACE_FILE)
    if trace_out:
        write_chrome_trace(trace_out, [run_span])
        result.metadata["trace_out"] = str(trace_out)


def protocol_entry(name: str) -> Callable:
    """Build a module's public ``run``: ``run(config, engine=None)``
    with an :class:`ExperimentConfig`, dispatched through the registry
    to return an :class:`ExperimentResult`."""

    def run_entry(config, engine=None, **kwargs):
        if not isinstance(config, ExperimentConfig):
            raise TypeError(
                f"{name}.run() takes an ExperimentConfig as its first "
                f"argument (got {type(config).__name__})"
            )
        if kwargs:
            raise TypeError(
                "pass per-experiment overrides via ExperimentConfig."
                "options, not keyword arguments"
            )
        return run(name, config, engine)

    run_entry.__name__ = "run"
    run_entry.__qualname__ = "run"
    run_entry.__doc__ = (
        f"Uniform entry point for the {name!r} experiment: "
        "``run(config: ExperimentConfig, engine: Engine = None) -> "
        "ExperimentResult``."
    )
    return run_entry
