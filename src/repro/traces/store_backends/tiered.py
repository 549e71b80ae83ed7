"""Two-tier block store: local directory in front, remote server behind.

:class:`TieredStore` *is a* :class:`~repro.traces.blockstore.
BlockStore` — same directory layout, same memmap zero-copy reads, same
counters object — with a remote :class:`~repro.traces.store_backends.
base.StoreBackend` underneath:

* **Read-through** — a local miss consults the remote tier.  A remote
  hit is digest-verified *before* ingest (bytes that crossed a wire are
  never trusted), atomically published into the local tier, and then
  memmapped from disk exactly like any local hit.  A corrupted wire
  blob is quarantined (``CacheIntegrityWarning`` + counter) and treated
  as a miss — the shard is re-acquired, so results cannot change.
* **Write-behind** — :meth:`put` publishes locally (synchronous, the
  engine's correctness path) and enqueues the remote upload on a
  background publisher thread, so campaign compute never waits on the
  wire.  The publisher skips keys the remote already has (another host
  won the race) and tolerates blocks the local LRU evicted before
  upload.  :meth:`flush` drains the queue; an ``atexit`` hook makes
  process exit drain it too.
* **Degradation, not failure** — a dead or flaky remote logs one
  warning, counts ``remote_errors`` and behaves like an empty tier.
  A fleet with a down artifact server runs at local-cache speed; it
  does not crash.

Engine workers get :meth:`for_worker` views (read-through on, publish
off): all remote publishing funnels through the parent process, which
knows which shards missed and enqueues exactly those — one publisher,
one flush point, no per-process queue to orphan.
"""

from __future__ import annotations

import atexit
import os
import queue
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import CacheError, CacheIntegrityWarning, RemoteCacheError
from repro.telemetry.metrics import get_registry
from repro.traces.blockstore import BlockStore, CachedBlock, verify_blob
from repro.traces.store_backends.base import StoreBackend, contains_many
from repro.traces.store_backends.http import HTTPBackend

#: Publish modes: ``behind`` (background thread, default), ``off``
#: (read-through only — engine worker processes).
PUBLISH_MODES = ("behind", "off")


def default_local_tier() -> Path:
    """A per-user local tier under the system temp directory.

    Used when a remote cache is configured without an explicit local
    directory: read-through needs somewhere to memmap from, and a
    stable per-user path lets consecutive runs reuse their ingests.
    """
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    return Path(tempfile.gettempdir()) / f"repro-cache-tier-{uid}"


class _WriteBehindPublisher:
    """One daemon thread draining (key → remote) uploads."""

    def __init__(self, store: "TieredStore") -> None:
        self._store = store
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._seen: set = set()
        self._lock = threading.Lock()
        self._depth = get_registry().gauge(
            "repro_cache_publish_queue_depth",
            "Blocks waiting on the write-behind remote publisher.",
        )
        self._thread = threading.Thread(
            target=self._run, name="repro-cache-publish", daemon=True
        )
        self._thread.start()
        atexit.register(self.flush)

    def enqueue(self, keys: Iterable[str]) -> int:
        queued = 0
        with self._lock:
            for key in keys:
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._queue.put(key)
                queued += 1
        self._depth.set(self._queue.unfinished_tasks)
        return queued

    def _run(self) -> None:
        while True:
            key = self._queue.get()
            try:
                if key is None:
                    return
                self._store._publish_one(key)
            finally:
                self._queue.task_done()
                self._depth.set(self._queue.unfinished_tasks)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait for the queue to drain; ``False`` on timeout."""
        if timeout is None:
            self._queue.join()
            return True
        deadline = time.monotonic() + timeout
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._queue.all_tasks_done.wait(remaining)
        return True

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=30)


class TieredStore(BlockStore):
    """A :class:`BlockStore` with a remote tier underneath.

    Parameters
    ----------
    root:
        Local tier directory (exact :class:`BlockStore` layout).
    remote:
        A ``repro cache serve`` URL (``http://host:port``) or any
        :class:`~repro.traces.store_backends.base.StoreBackend`.
    max_bytes:
        As on :class:`BlockStore` (the cap governs the local tier;
        remote ingests count toward it and can evict).
    publish_mode:
        ``"behind"`` (default) or ``"off"`` — see module docstring.
    """

    def __init__(
        self,
        root: Union[str, Path],
        remote: Union[str, StoreBackend],
        max_bytes: Optional[int] = None,
        publish_mode: str = "behind",
    ) -> None:
        super().__init__(root, max_bytes=max_bytes)
        if isinstance(remote, str):
            remote = HTTPBackend(remote)
        if not isinstance(remote, StoreBackend):
            raise CacheError(
                f"remote must be a URL or a StoreBackend, got {type(remote).__name__}"
            )
        if publish_mode not in PUBLISH_MODES:
            raise CacheError(
                f"publish_mode {publish_mode!r} not in {PUBLISH_MODES}"
            )
        self.remote = remote
        self.publish_mode = publish_mode
        self._publisher: Optional[_WriteBehindPublisher] = None
        self._counter_lock = threading.Lock()
        self._remote_warned = False

    def __getstate__(self):
        state = super().__getstate__()
        state["remote"] = self.remote
        state["publish_mode"] = self.publish_mode
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TieredStore({str(self.root)!r}, remote={self.remote.describe()!r}, "
            f"publish_mode={self.publish_mode!r})"
        )

    def for_worker(self) -> "TieredStore":
        """A read-through view with publishing off (engine workers)."""
        return TieredStore(
            self.root,
            remote=self.remote,
            max_bytes=self.max_bytes,
            publish_mode="off",
        )

    # ------------------------------------------------------------------
    # Reads: local tier, then read-through.
    # ------------------------------------------------------------------
    def get(
        self, key: str, touch: bool = True, expect: bool = False
    ) -> Optional[CachedBlock]:
        block = self._local_get(key, touch)
        if block is not None:
            self.counters.hits += 1
            self.counters.bytes_read += block.nbytes
            return block
        outcome, wire_bytes = self._pull(key)
        if outcome == "fetched":
            with self._counter_lock:
                self.counters.remote_hits += 1
                self.counters.remote_bytes_read += wire_bytes
            block = self._local_get(key, touch)
            if block is not None:
                self.counters.bytes_read += block.nbytes
                return block
            # Ingested and immediately evicted (cap far below one
            # block) — fall through to an honest miss.
        else:
            with self._counter_lock:
                self.counters.remote_misses += 1
        self._miss(expect)
        return None

    def fetch(self, key: str) -> Tuple[str, int]:
        """Ensure a key is local without reading it (prefetch path).

        Returns ``(outcome, wire_bytes)`` where outcome is ``"local"``
        (already there), ``"fetched"``, ``"absent"``, ``"bad"`` or
        ``"error"``.  Counter-neutral for hits/misses: the eventual
        :meth:`get` does that accounting; the prefetcher reports its
        own wire totals.
        """
        if self.backend.contains(key):
            return "local", 0
        return self._pull(key)

    def _pull(self, key: str) -> Tuple[str, int]:
        """Download + verify + ingest one key into the local tier."""
        try:
            blob = self.remote.get_blob(key)
        except RemoteCacheError as exc:
            self._remote_error(exc)
            return "error", 0
        if blob is None:
            return "absent", 0
        try:
            verify_blob(blob, key=key)
        except ValueError as exc:
            with self._counter_lock:
                self.counters.integrity_failures += 1
            warnings.warn(
                f"discarding damaged remote block {key[:16]}…: {exc} "
                "(the shard will be re-acquired)",
                CacheIntegrityWarning,
                stacklevel=3,
            )
            return "bad", len(blob)
        self.backend.put_blob(key, [blob])
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        return "fetched", len(blob)

    # ------------------------------------------------------------------
    # Writes: local publish, then write-behind to the remote tier.
    # ------------------------------------------------------------------
    def put(self, key, arrays, meta=None) -> Path:
        path = super().put(key, arrays, meta)
        if self.publish_mode == "behind":
            self._ensure_publisher().enqueue([key])
        return path

    def publish_async(self, keys: Iterable[str]) -> int:
        """Enqueue locally-published keys for remote upload.

        The engine's parent process calls this for every shard that
        missed (its workers publish locally with publishing off), so
        fleet publishing overlaps the rest of the campaign.  Returns
        how many keys were newly enqueued.
        """
        keys = [key for key in keys if key]
        if not keys:
            return 0
        return self._ensure_publisher().enqueue(keys)

    def _ensure_publisher(self) -> _WriteBehindPublisher:
        if self._publisher is None:
            self._publisher = _WriteBehindPublisher(self)
        return self._publisher

    def _publish_one(self, key: str) -> None:
        blob = self.backend.get_blob(key)
        if blob is None:
            # Evicted between local publish and upload — the block is
            # gone, so there is nothing trustworthy to send.
            with self._counter_lock:
                self.counters.remote_publish_dropped += 1
            return
        try:
            if self.remote.contains(key):
                with self._counter_lock:
                    self.counters.remote_publish_skipped += 1
                return
            self.remote.put_blob(key, [blob])
        except RemoteCacheError as exc:
            self._remote_error(exc)
            return
        with self._counter_lock:
            self.counters.remote_puts += 1
            self.counters.remote_bytes_written += len(blob)

    def flush(self, timeout: Optional[float] = None) -> None:
        """Drain pending remote publishes (no-op when none)."""
        publisher = self._publisher
        if publisher is not None:
            publisher.flush(timeout)

    def close(self) -> None:
        publisher, self._publisher = self._publisher, None
        if publisher is not None:
            publisher.close()

    # ------------------------------------------------------------------
    # Placement queries (scheduler classification).
    # ------------------------------------------------------------------
    def tier_of(self, key: str) -> Optional[str]:
        if self.backend.contains(key):
            return "local"
        try:
            if self.remote.contains(key):
                return "remote"
        except RemoteCacheError as exc:
            self._remote_error(exc)
        return None

    def tiers_of(self, keys: Iterable[str]) -> Dict[str, Optional[str]]:
        """Tier of many keys; remote probes batched into one round trip."""
        out: Dict[str, Optional[str]] = {}
        pending: List[str] = []
        for key in keys:
            if self.backend.contains(key):
                out[key] = "local"
            else:
                pending.append(key)
        if pending:
            try:
                present = contains_many(self.remote, pending)
            except RemoteCacheError as exc:
                self._remote_error(exc)
                present = {}
            for key in pending:
                out[key] = "remote" if present.get(key) else None
        return out

    # ------------------------------------------------------------------
    def _remote_error(self, exc: Exception) -> None:
        with self._counter_lock:
            self.counters.remote_errors += 1
        if not self._remote_warned:
            self._remote_warned = True
            warnings.warn(
                f"remote cache tier degraded to local-only: {exc}",
                RuntimeWarning,
                stacklevel=4,
            )
