"""Per-layer attribution for the traced rep, recorded from outside ``src/``.

:func:`install` wraps the calls at each layer boundary of a campaign
(AES model, acquisition kernels, sensor sampling, block store, CPA
accumulator, key rank, engine, spec build) with timing wrappers.  Each
process keeps one aggregate per layer in memory: calls, *self* seconds
(duration minus the wrapped calls nested inside it), items and bytes.
The rep process reads its own aggregates after the campaign; forked
pool workers inherit the wrappers and write theirs to ``out_dir`` when
they exit.  Pool workers leave through ``os._exit``, which skips
``atexit``, so the dump is a ``multiprocessing`` finalizer registered
after the fork.

:func:`layer_metrics` turns the aggregates into the benchmark's
per-layer metrics.  In a pool campaign, worker-side seconds are busy
time summed over workers; ``unattributed_s`` only ever subtracts the
rep process's own self times, so it stays a share of wall time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: ``[calls, self_seconds, items]`` per layer.
Aggregates = Dict[str, List[float]]

#: Per-layer metric name -> unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "aes.self_s": "s",
    "aes.traces": "count",
    "kernels.self_s": "s",
    "kernels.sensor_s": "s",
    "kernels.sensor_traces": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.read_mb": "MB",
    "cache.write_mb": "MB",
    "accumulate.self_s": "s",
    "accumulate.traces": "count",
    "merge.self_s": "s",
    "merge.calls": "count",
    "correlations.self_s": "s",
    "correlations.calls": "count",
    "keyrank.self_s": "s",
    "keyrank.calls": "count",
    "engine.self_s": "s",
    "engine.wait_s": "s",
    "engine.shards": "count",
    "engine.shard_wait_s.p50": "s",
    "engine.shard_wait_s.max": "s",
    "experiments.spec_build_s": "s",
    "unattributed_s": "s",
    "tracing_overhead_frac": "ratio",
}


class Recorder:
    """One process's layer aggregates plus the stack of open spans."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.layers: Aggregates = {}
        #: Seconds the parent blocked in ``dispatch`` per pooled shard.
        self.waits: List[float] = []
        #: Traces in the innermost running kernel call (sensor counts).
        self.block_traces = 0
        self._open: List[float] = []
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        self.layers = {}
        self.waits = []
        self._open = []
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this (worker) process's aggregates to ``out_dir``."""
        path = self.out_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.layers))

    def add(self, layer: str, self_s: float, items: float = 0) -> None:
        entry = self.layers.setdefault(layer, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += self_s
        entry[2] += items

    def begin(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def end(self, t0: float) -> float:
        """Close the innermost span; returns its self seconds."""
        seconds = time.perf_counter() - t0
        nested = self._open.pop()
        if self._open:
            self._open[-1] += seconds
        return seconds - nested

    def timed(
        self,
        layer: str,
        fn: Callable,
        count: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as one ``layer`` span per call.

        ``count(args, result) -> items`` sizes a successful
        call; ``before(args)`` runs first.  Calls off the main thread
        pass through untimed (nothing in the measured campaigns makes
        them; the guard keeps the span stack single-threaded).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            t0 = self.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add(layer, self.end(t0))
                raise
            items = count(args, result) if count is not None else 0
            self.add(layer, self.end(t0), items)
            return result

        return wrapper

    def timed_dispatch(self, fn: Callable) -> Callable:
        """Wrap the engine's shard ``dispatch`` generator.

        Every ``next()`` is one span.  On a pool its self time is the
        parent blocked on workers (``engine.wait``); serially it is the
        shard body's own unwrapped work, which belongs to the engine.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pooled = kwargs.get("workers", 1) > 1
            layer = "engine.wait" if pooled else "engine.dispatch"
            shards = fn(*args, **kwargs)
            try:
                while True:
                    t0 = self.begin()
                    try:
                        item = next(shards, None)  # dispatch yields tuples
                    except BaseException:
                        self.add(layer, self.end(t0))
                        raise
                    seconds = self.end(t0)
                    self.add(layer, seconds, items=int(item is not None))
                    if item is None:
                        return
                    if pooled:
                        self.waits.append(seconds)
                    yield item
            finally:
                shards.close()

        return wrapper


def install(out_dir: Path) -> Recorder:
    """Wrap every layer boundary of a campaign; returns the recorder.

    Must run before the engine starts so forked pool workers inherit
    the wrappers.  Names imported by value into another module are
    patched where they are looked up.
    """
    from repro.attacks import metrics as attack_metrics
    from repro.attacks.cpa import CPAAttack
    from repro.experiments import common
    from repro.kernels import aes_trace, fanout
    from repro.runtime import engine as engine_mod
    from repro.traces.blockstore import BlockStore
    from repro.victims.aes.core import AES128
    from repro.victims.aes.hw_model import AESHardwareModel

    rec = Recorder(out_dir)

    def rows(args, result):
        return len(args[1])  # the first argument after self is per-trace

    AES128.round_states = rec.timed("aes", AES128.round_states, count=rows)
    AESHardwareModel.cycle_hamming_distances = rec.timed(
        "aes", AESHardwareModel.cycle_hamming_distances
    )

    def set_block(args) -> None:
        rec.block_traces = len(args[3])  # (self, acquisition(s), aes, plaintexts)

    kernel_types = [aes_trace.AcquisitionKernel]
    kernel_types += aes_trace.AcquisitionKernel.__subclasses__()
    for kernel_type in kernel_types:
        for name in ("acquire", "acquire_many"):
            fn = vars(kernel_type).get(name)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(kernel_type, name, rec.timed("kernels", fn, before=set_block))
    fanout.sample_sensor = rec.timed(
        "sensor", fanout.sample_sensor,
        count=lambda a, r: rec.block_traces,
    )
    fused = aes_trace.FusedAcquisitionKernel
    fused._sample_normal = rec.timed(
        "sensor", fused._sample_normal, count=lambda a, r: len(a[2])
    )

    # Timing only: the run log's ``cache`` event already counts them.
    BlockStore.get = rec.timed("cache.get", BlockStore.get)
    BlockStore.put = rec.timed("cache.put", BlockStore.put)

    CPAAttack.add_traces = rec.timed("accumulate", CPAAttack.add_traces, count=rows)
    CPAAttack.update = rec.timed("accumulate", CPAAttack.update, count=rows)
    CPAAttack.merge = rec.timed("merge", CPAAttack.merge)
    CPAAttack.correlations = rec.timed("correlations", CPAAttack.correlations)
    attack_metrics.key_rank_bounds = rec.timed(
        "keyrank", attack_metrics.key_rank_bounds
    )

    engine_mod.dispatch = rec.timed_dispatch(engine_mod.dispatch)
    for name in ("stream_attack", "stream_attack_many"):
        setattr(engine_mod.Engine, name, rec.timed("engine", getattr(engine_mod.Engine, name)))

    common.placement_spec = rec.timed("spec_build", common.placement_spec)
    common.placement_specs = rec.timed("spec_build", common.placement_specs)
    return rec


def read_workers(out_dir: Path) -> List[Aggregates]:
    """Aggregates dumped by the pool workers that have exited."""
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("worker-*.json"))]


def merge(parts: List[Aggregates]) -> Aggregates:
    total: Aggregates = {}
    for part in parts:
        for layer, values in part.items():
            entry = total.setdefault(layer, [0, 0.0, 0])
            for i, value in enumerate(values):
                entry[i] += value
    return total


def parent_self_seconds(parent: Aggregates) -> Dict[str, float]:
    """Self seconds per layer spent in the rep process itself."""
    return {layer: values[1] for layer, values in parent.items()}


def layer_metrics(
    parent: Aggregates,
    workers: List[Aggregates],
    waits: List[float],
    cache: Dict[str, float],
    campaign_s: float,
    untraced_campaign_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign (see LAYER_UNITS).

    ``cache`` is the campaign's run-log ``cache`` event
    (:func:`repro.telemetry.runlog.read_run`), the source of the block
    store's counts.
    """
    every = merge([parent, *workers])

    def calls(layer: str) -> float:
        return every.get(layer, [0, 0.0, 0])[0]

    def self_s(layer: str) -> float:
        return every.get(layer, [0, 0.0, 0])[1]

    def items(layer: str) -> float:
        return every.get(layer, [0, 0.0, 0])[2]

    return {
        "aes.self_s": self_s("aes"),
        "aes.traces": items("aes"),
        "kernels.self_s": self_s("kernels"),
        "kernels.sensor_s": self_s("sensor"),
        "kernels.sensor_traces": items("sensor"),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hit_rate"],
        "cache.read_mb": cache["bytes_read"] / 1e6,
        "cache.write_mb": cache["bytes_written"] / 1e6,
        "accumulate.self_s": self_s("accumulate"),
        "accumulate.traces": items("accumulate"),
        "merge.self_s": self_s("merge"),
        "merge.calls": calls("merge"),
        "correlations.self_s": self_s("correlations"),
        "correlations.calls": calls("correlations"),
        "keyrank.self_s": self_s("keyrank"),
        "keyrank.calls": calls("keyrank"),
        "engine.self_s": self_s("engine") + self_s("engine.dispatch"),
        "engine.wait_s": self_s("engine.wait"),
        "engine.shards": items("engine.dispatch") + items("engine.wait"),
        "engine.shard_wait_s.p50": statistics.median(waits) if waits else 0.0,
        "engine.shard_wait_s.max": max(waits, default=0.0),
        "experiments.spec_build_s": self_s("spec_build"),
        "unattributed_s": campaign_s - sum(parent_self_seconds(parent).values()),
        "tracing_overhead_frac": campaign_s / untraced_campaign_s - 1.0,
    }
