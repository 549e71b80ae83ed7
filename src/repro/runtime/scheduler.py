"""Shard dispatch: work-stealing order, static partitioning, prefetch.

Before this module the engine pre-assigned nothing but *submitted*
every shard up front and let ``as_completed`` collect them — which is
already a work-stealing shared queue *if* the submission order is
right.  What was missing is the ordering: a mixed warm/cold campaign
(half the blocks cached, half to acquire) finishes in milliseconds for
warm shards and seconds for cold ones, so any scheduler that binds
shards to workers up front (the ``"static"`` mode here, kept as the
measurable baseline) strands cores: one worker draws the cold
contiguous run while the others blow through warm shards and idle.

``"stealing"`` classifies every shard against the store's tiers and
feeds the shared queue **cold first** (longest work first — the LPT
heuristic that bounds makespan), **local-warm next** (cheap, fills
tail gaps), **remote-warm last** — which buys the background
:class:`RemotePrefetcher` the whole cold-compute window to pull remote
blocks into the local tier before any worker asks for them.  Fetch
overlaps compute; by the time remote shards dispatch they are local
reads.

Bit-identity is untouched by any of this: a shard's output depends
only on its block key and its own SeedSequence lineage (never on which
worker runs it or when), collect writes land in disjoint
``shard.slice`` regions, and the streaming paths fold completed shards
in index order regardless of arrival order.  Scheduling here can only
change *when* a shard runs, never *what* it computes.
"""

from __future__ import annotations

import mmap
import os
import pickle
import secrets
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass
from itertools import count
from multiprocessing import resource_tracker
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import _posixshmem
import numpy as np

from repro.errors import ConfigurationError, WorkerLostError
from repro.runtime.metrics import CACHE_COUNTS
from repro.runtime.sharding import Shard

#: Engine scheduling modes.
SCHEDULES = ("stealing", "static")

#: Name prefix of every shared-memory segment the engine makes: pool
#: shard results and the parent's collect buffers.
#: :func:`segment_prefix` extends it with the owning pid and a token.
RESULT_SEGMENT_PREFIX = "repro_"

#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_S = 0.2

#: Offset alignment of each out-of-band buffer inside a result segment
#: (arrays unpickled over the mapping stay cache-line aligned).
_ALIGN = 64

#: Dispatch order of cache classes under ``"stealing"`` (see module
#: docstring for why cold leads and remote trails).
_CLASS_RANK = {"cold": 0, "local": 1, "remote": 2}


def validate_schedule(schedule: str) -> str:
    """Check an engine ``schedule`` argument; returns it."""
    if schedule not in SCHEDULES:
        raise ConfigurationError(
            f"schedule must be one of {SCHEDULES}, got {schedule!r}"
        )
    return schedule


@dataclass(frozen=True)
class ShardTask:
    """One dispatchable unit: a shard, its RNG lineage, its block key.

    ``key`` is ``None`` (cache off), a block key, or a tuple of
    per-sensor keys (fan-out shards).  ``position`` is the shard's
    place in the original plan — the order serial runs and static
    groups preserve.
    """

    position: int
    shard: Shard
    seq: np.random.SeedSequence
    key: object = None


def flatten_keys(key: object) -> List[str]:
    """The block keys behind a task ``key`` (``[]`` with the cache off)."""
    if key is None:
        return []
    if isinstance(key, (tuple, list)):
        return [k for k in key if k]
    return [key]


def classify_tasks(
    store, tasks: Sequence[ShardTask]
) -> Tuple[List[str], Dict[str, Optional[str]]]:
    """Sort tasks into ``"cold"``/``"local"``/``"remote"`` classes.

    One batched tier probe covers every key (a tiered store answers
    the remote side in a single round trip).  A fan-out shard is
    ``local`` only when *every* sub-block is local, ``cold`` when any
    sub-block must be computed, and ``remote`` otherwise — the class
    is the cost to *complete* the shard, and one cold sensor means
    compute.  Returns ``(classes, tiers)`` so callers can also feed
    the remote-tier keys to a prefetcher.
    """
    if store is None:
        return ["cold"] * len(tasks), {}
    all_keys = sorted({k for t in tasks for k in flatten_keys(t.key)})
    if not all_keys:
        return ["cold"] * len(tasks), {}
    tiers = store.tiers_of(all_keys)
    classes: List[str] = []
    for task in tasks:
        keys = flatten_keys(task.key)
        if not keys:
            classes.append("cold")
        elif any(tiers.get(k) is None for k in keys):
            classes.append("cold")
        elif all(tiers.get(k) == "local" for k in keys):
            classes.append("local")
        else:
            classes.append("remote")
    return classes, tiers


def steal_order(
    tasks: Sequence[ShardTask], classes: Optional[Sequence[str]]
) -> List[int]:
    """Submission order for the shared queue: cold, local, remote;
    original plan order within a class (deterministic)."""
    if classes is None:
        return list(range(len(tasks)))
    return sorted(
        range(len(tasks)),
        key=lambda i: (_CLASS_RANK.get(classes[i], 0), tasks[i].position),
    )


def static_groups(n_tasks: int, workers: int) -> List[List[int]]:
    """Contiguous balanced pre-partition (the baseline scheduler).

    Worker ``w`` owns one contiguous run of the shard plan, sizes
    differing by at most one — exactly the assignment a static
    scatter would make, with zero stealing.
    """
    workers = max(1, min(workers, n_tasks))
    groups: List[List[int]] = []
    start = 0
    for w in range(workers):
        size = n_tasks // workers + (1 if w < n_tasks % workers else 0)
        if size:
            groups.append(list(range(start, start + size)))
        start += size
    return groups


def segment_prefix() -> str:
    """A fresh ``repro_<pid>_<token>_`` prefix for segment names made
    on behalf of this process: the pid says whose they are, so a leak
    check can tell a live process's segments from a dead one's."""
    return f"{RESULT_SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}_"


def _watch_parent(parent: int) -> None:
    """Exit this process once ``parent`` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _start_worker(
    parent: int, initializer: Optional[Callable], initargs: Tuple
) -> None:
    """Pool worker start-up: watch the parent, then run ``initializer``.

    A worker whose parent was killed would otherwise wait on its call
    queue forever, holding the parent's resource tracker (and so every
    segment it should unlink) open.  The watch polls ``getppid``
    rather than using ``PR_SET_PDEATHSIG``, which fires when the
    *thread* that forked the worker exits, not its process.
    """
    threading.Thread(
        target=_watch_parent, args=(parent,), name="parent-watch", daemon=True
    ).start()
    if initializer is not None:
        initializer(*initargs)


def run_task_group(task_fn: Callable, triples: Sequence[Tuple], segment: str) -> Tuple:
    """Run a group of shards inside one worker, in order, and encode
    their results for the trip back (:func:`_encode_results` into the
    shared-memory segment named ``segment``).

    Module-level so a ``ProcessPoolExecutor`` can pickle it by
    reference along with the (equally picklable) shard task.
    """
    return _encode_results(
        [task_fn(shard, seq, key) for shard, seq, key in triples], segment
    )


def _encode_results(results: object, segment: str) -> Tuple:
    """Pickle ``results`` with every array buffer out of band.

    The buffers are copied into one fresh POSIX shared-memory segment
    named ``segment``; only ``(in_band, segment, extents)`` crosses the
    result pipe, ``extents`` being each buffer's ``(offset, nbytes)``.
    A result with no out-of-band buffer needs no segment (``segment``
    is then ``None``).  If the copy fails the segment is unlinked here.
    The segment is made with ``_posixshmem`` rather than
    :class:`~multiprocessing.shared_memory.SharedMemory`, which would
    register it with the resource tracker from this process; the
    receiving process owns the name's registration (see
    :func:`dispatch`).
    """
    buffers: List[pickle.PickleBuffer] = []
    in_band = pickle.dumps(results, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return in_band, None, ()
    raws = [b.raw() for b in buffers]
    extents = []
    size = 0
    for raw in raws:
        extents.append((size, raw.nbytes))
        size += -(-raw.nbytes // _ALIGN) * _ALIGN
    size = max(size, 1)
    fd = _posixshmem.shm_open(
        "/" + segment, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600
    )
    try:
        os.ftruncate(fd, size)
        with mmap.mmap(fd, size) as mapping:
            for (offset, nbytes), raw in zip(extents, raws):
                mapping[offset : offset + nbytes] = raw
    except BaseException:
        _posixshmem.shm_unlink("/" + segment)
        raise
    finally:
        os.close(fd)
    return in_band, segment, tuple(extents)


def _decode_results(payload: Tuple) -> object:
    """Invert :func:`_encode_results` in the receiving process.

    The segment is mapped and its name unlinked at once; the arrays
    unpickle as zero-copy views of the mapping, which is unmapped when
    the last of them dies (nothing ever closes it, so no view can
    outlive its memory).
    """
    in_band, segment, extents = payload
    if segment is None:
        return pickle.loads(in_band)
    fd = _posixshmem.shm_open("/" + segment, os.O_RDWR, 0o600)
    try:
        _posixshmem.shm_unlink("/" + segment)
        view = memoryview(mmap.mmap(fd, 0))
    finally:
        os.close(fd)
    return pickle.loads(
        in_band, buffers=[view[offset : offset + n] for offset, n in extents]
    )


def dispatch(
    tasks: Sequence[ShardTask],
    *,
    workers: int,
    schedule: str,
    task: Callable,
    pool_initializer: Optional[Callable],
    pool_initargs: Tuple,
    classes: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[ShardTask, object]]:
    """Yield ``(shard_task, result)`` as shards complete, where
    ``result`` is ``task(shard, seq, key)`` of that shard task.

    ``workers == 1`` runs ``task`` in plan order in this process (the
    reference semantics every other mode must reproduce
    bit-identically).  On a pool ``task`` must pickle and runs in
    workers set up by ``pool_initializer``: ``"stealing"`` feeds shards
    to the shared queue in :func:`steal_order`; ``"static"``
    pre-partitions the plan into contiguous per-worker groups.
    Completion (yield) order is arrival order either way — consumers
    already tolerate it.  At most ``workers + 1`` groups are submitted
    and not yet consumed: a finished shard's result sits in this
    process until the consumer takes it, so an unbounded queue would
    let a consumer slower than its workers (key rank at a campaign's
    early checkpoints) hold every finished shard at once.  No result is
    kept once yielded, so consumers hold only what they keep.

    Pool results come back through shared memory, not the result
    pipe: each group's results are pickled in the worker with every
    array buffer out of band, the buffers go into one fresh POSIX
    shared-memory segment, and only the in-band bytes (well under a
    kilobyte per accumulator), the segment name and the buffer extents
    cross the pipe (:func:`_encode_results`).  This process maps the
    segment, unlinks its name at once and unpickles the arrays as
    zero-copy views of the mapping, which goes away with the last view
    (:func:`_decode_results`).  Every result takes this one path; a
    result without array buffers needs no segment.

    No segment outlives the call.  Segment names are a
    :func:`segment_prefix` drawn per call plus the group's submission
    number, and each group carries its name to its worker.  A worker
    that fails while writing its segment unlinks it; after the pool has
    shut down (so no worker can still create one) the ``finally`` below
    unlinks every name this call handed out and has not decoded.  That
    covers a normal end, a dead worker, an exception in the consumer and
    a consumer that stops early.  Each name is also registered with this
    process's resource tracker before a worker can create it, and
    unregistered once unlinked, so if this process is killed the tracker
    unlinks what is left once its workers are gone: every worker exits
    by itself when this process dies (:func:`_start_worker`).

    A worker that dies (killed, ``os._exit``, out of memory) breaks the
    whole pool; that surfaces as :class:`~repro.errors.WorkerLostError`
    naming every shard whose result had not arrived.
    """
    if workers == 1:
        for t in tasks:
            yield t, task(t.shard, t.seq, t.key)
        return
    max_workers = min(workers, len(tasks))
    prefix = segment_prefix()
    serials = count()
    live: Set[str] = set()  # names handed out and not yet decoded

    def untrack(name: str) -> None:
        live.remove(name)
        resource_tracker.unregister("/" + name, "shared_memory")

    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_start_worker,
            initargs=(os.getpid(), pool_initializer, pool_initargs),
        ) as pool:
            if schedule == "static":
                queue = deque(static_groups(len(tasks), max_workers))
            else:
                queue = deque([i] for i in steal_order(tasks, classes))
            futures: Dict[object, Tuple[List[int], str]] = {}

            def submit() -> None:
                while queue and len(futures) <= max_workers:
                    group = queue[0]
                    name = f"{prefix}{next(serials)}"
                    resource_tracker.register("/" + name, "shared_memory")
                    live.add(name)
                    futures[pool.submit(
                        run_task_group,
                        task,
                        [(tasks[i].shard, tasks[i].seq, tasks[i].key) for i in group],
                        name,
                    )] = group, name
                    queue.popleft()

            try:
                submit()
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        results = _decode_results(future.result())
                        group, name = futures.pop(future)
                        untrack(name)  # unlinked by the decode, if it existed
                        for i in group:
                            yield tasks[i], results.pop(0)
                        submit()
            except BrokenProcessPool as exc:
                shards = sorted(
                    tasks[i].shard.index
                    for group in [*(g for g, _ in futures.values()), *queue]
                    for i in group
                )
                raise WorkerLostError(
                    f"a pool worker died; shards {shards} were lost ({exc})",
                    shards,
                ) from exc
    finally:
        for name in list(live):
            with suppress(FileNotFoundError):  # never written
                _posixshmem.shm_unlink("/" + name)
            untrack(name)


class RemotePrefetcher:
    """Pull remote-tier blocks into the local tier behind compute.

    A few daemon threads drain a key queue through ``store.fetch``
    (download → digest-verify → atomic local publish) while workers
    chew on cold shards.  Every fetch is counter-neutral for the
    store's hit/miss accounting — the worker's eventual ``get`` does
    that — so the prefetcher reports its own totals: blocks fetched,
    wire bytes moved, and busy seconds (the fetch time that overlapped
    compute instead of serializing with it).
    """

    def __init__(self, store, keys: Sequence[str], threads: int = 4) -> None:
        self.store = store
        self._queue = deque(keys)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.counters: Dict[str, int] = {
            c.key: 0 for c in CACHE_COUNTS if c.source == "prefetch"
        }
        self.busy_seconds = 0.0
        self._threads = [
            threading.Thread(
                target=self._run, name=f"repro-prefetch-{i}", daemon=True
            )
            for i in range(max(1, min(threads, len(keys))))
        ]
        for thread in self._threads:
            thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                if not self._queue:
                    return
                key = self._queue.popleft()
            t0 = time.perf_counter()
            try:
                outcome, wire_bytes = self.store.fetch(key)
            except Exception:
                outcome, wire_bytes = "error", 0
            seconds = time.perf_counter() - t0
            with self._lock:
                self.busy_seconds += seconds
                if outcome == "fetched":
                    self.counters["prefetch_fetched"] += 1
                    self.counters["prefetch_bytes"] += wire_bytes
                elif outcome == "local":
                    self.counters["prefetch_local"] += 1
                else:
                    self.counters["prefetch_missed"] += 1

    def stop(self) -> None:
        """Stop pulling and join (in-flight fetches finish)."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)
