"""Content-addressed on-disk cache of acquisition blocks.

Every trace block this library produces is a pure function of
``(acquisition config, RNG lineage, block shape, code schema)`` — the
engine's whole determinism story rests on that.  The block store turns
the purity into reuse: a block is written once under a canonical
content address and every later campaign that would regenerate it —
a re-run of the same figure, a different experiment sharing a campaign
prefix, a second process on the same machine — memory-maps the stored
bytes instead of re-paying the sensor-pipeline cost.

Design points:

* **Content addressing** (:func:`block_key`): the key is the SHA-256 of
  a canonical JSON payload combining the acquisition *cache token* (the
  physical configuration, see ``AESTraceAcquisition.cache_token``), the
  RNG lineage of the shard's :class:`~numpy.random.SeedSequence`
  (entropy + spawn key — exactly what pins the stream), the block
  geometry and :data:`SCHEMA_VERSION`.  The acquisition kernel is
  deliberately *not* part of the key: kernels are bit-identical by
  construction, so a block acquired by one serves all.
* **Atomic writes** (:meth:`BlockStore.put`): blocks are serialized to
  a temp file in the same directory and published with
  :func:`os.replace`.  Concurrent writers (the parallel engine's
  workers, or two engines sharing one store) race benignly: both write
  identical bytes and the losing rename simply overwrites them.
* **Integrity** : the payload region carries a SHA-256 digest in the
  header.  A truncated or corrupted block never produces wrong data —
  :meth:`BlockStore.get` emits a :class:`~repro.errors.
  CacheIntegrityWarning`, deletes the bad file and reports a miss, so
  the engine re-acquires the shard.
* **Zero-copy reads** (:class:`CachedBlock`): arrays come back as
  read-only :class:`numpy.memmap` views over the block file, 64-byte
  aligned.  ``Engine.stream_attack_many`` feeds accumulator updates straight
  from those views; the trace matrix is never copied into anonymous
  memory, and page cache is shared between concurrent readers.
* **Eviction** (:meth:`BlockStore.prune`): optional LRU size cap.
  Reads touch the block's mtime, so recently-used blocks survive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import CacheError, CacheIntegrityWarning
from repro.traces.store_backends.base import (
    BLOCK_SUFFIX,
    TMP_PREFIX,
    LocalDirBackend,
)

#: Bump when the meaning of cached bytes changes (kernel semantics, RNG
#: consumption order, array layout).  Part of every block key, so a
#: schema change invalidates the whole store without touching it.
SCHEMA_VERSION = 1

#: Leading bytes of every block file.
MAGIC = b"RPROBLK\x01"

#: Alignment of the header end and of each array's payload offset.
ALIGN = 64

_HEADER_LEN_FMT = "<Q"
_TMP_PREFIX = TMP_PREFIX
_BLOCK_SUFFIX = BLOCK_SUFFIX


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------


def _canonical(obj):
    """Normalize a payload fragment into canonically-JSON-able form.

    Sorts mappings, converts numpy scalars/arrays and dataclasses, and
    renders floats via ``repr`` round-trip (`json` already does).  The
    result feeds ``json.dumps(sort_keys=True)``, so two payloads that
    compare equal hash equal regardless of construction order.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (bytes, bytearray)):
        return hashlib.sha256(bytes(obj)).hexdigest()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise CacheError(
        f"cannot canonicalize {type(obj).__name__!r} into a cache key; "
        "pass plain scalars, sequences, mappings or numpy values"
    )


def canonical_payload(payload: Mapping) -> str:
    """The canonical JSON text a block key is hashed from."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


def block_key(payload: Mapping) -> str:
    """SHA-256 content address of a canonical key payload."""
    return hashlib.sha256(canonical_payload(payload).encode()).hexdigest()


def seed_lineage(seq: np.random.SeedSequence) -> Dict[str, object]:
    """The identity of a :class:`~numpy.random.SeedSequence` stream.

    ``(entropy, spawn_key, pool_size)`` pins every number the sequence
    will ever produce — two sequences with equal lineage generate
    identical streams in any process.  This is the "kernel-invariant RNG
    lineage" part of a block key: the engine spawns one child per shard,
    so the child's spawn key encodes (root seed, shard index) exactly.
    """
    entropy = seq.entropy
    if isinstance(entropy, (list, tuple, np.ndarray)):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {
        "entropy": str(entropy),
        "spawn_key": [int(k) for k in seq.spawn_key],
        "pool_size": int(seq.pool_size),
    }


# ----------------------------------------------------------------------
# Block file format
# ----------------------------------------------------------------------


def _pad(n: int) -> int:
    return (ALIGN - n % ALIGN) % ALIGN


def _serialize(key: str, arrays: Mapping[str, np.ndarray], meta: Optional[Mapping]) -> bytes:
    """One block file: magic, length-prefixed JSON header, aligned
    payload of raw C-order array bytes, digest over the payload."""
    specs: List[Dict[str, object]] = []
    payload_parts: List[bytes] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        data = array.tobytes()
        specs.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        payload_parts.append(data)
        pad = _pad(len(data))
        payload_parts.append(b"\x00" * pad)
        offset += len(data) + pad
    payload = b"".join(payload_parts)
    header = {
        "schema": SCHEMA_VERSION,
        "key": key,
        "arrays": specs,
        "payload_nbytes": len(payload),
        "digest": hashlib.sha256(payload).hexdigest(),
        "meta": _canonical(meta) if meta is not None else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    prefix_len = len(MAGIC) + struct.calcsize(_HEADER_LEN_FMT) + len(header_bytes)
    head = MAGIC + struct.pack(_HEADER_LEN_FMT, len(header_bytes)) + header_bytes
    return head + b"\x00" * _pad(prefix_len) + payload


def peek_block_meta(path) -> Dict[str, object]:
    """The ``meta`` mapping of a block file, from its header alone.

    Reads only the length-prefixed JSON header — no payload bytes, no
    digest work — so sweeping a whole store (as :meth:`BlockStore.
    stats` does to count fan-out blocks) costs one small read per
    block.  Raises ``ValueError`` on anything that is not a well-formed
    block header.
    """
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError("bad magic (not a block file or truncated)")
        (header_len,) = struct.unpack(
            _HEADER_LEN_FMT, fh.read(struct.calcsize(_HEADER_LEN_FMT))
        )
        if header_len <= 0 or header_len > size:
            raise ValueError("implausible header length")
        try:
            header = json.loads(fh.read(header_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable header: {exc}") from None
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("block meta is not a mapping")
    return meta


def read_blob_header(blob: bytes) -> Tuple[Dict[str, object], int]:
    """Parse a serialized block's header from its bytes.

    Returns ``(header, payload_start)``.  Raises ``ValueError`` on
    anything that is not a well-formed current-schema block.
    """
    size = len(blob)
    fixed = len(MAGIC) + struct.calcsize(_HEADER_LEN_FMT)
    if size < fixed or blob[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic (not a block file or truncated)")
    (header_len,) = struct.unpack(
        _HEADER_LEN_FMT, blob[len(MAGIC): fixed]
    )
    if header_len <= 0 or fixed + header_len > size:
        raise ValueError("implausible header length")
    try:
        header = json.loads(blob[fixed: fixed + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError("block header is not a mapping")
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"schema {header.get('schema')!r} != current {SCHEMA_VERSION}"
        )
    prefix = fixed + header_len
    return header, prefix + _pad(prefix)


def verify_blob(blob: bytes, key: Optional[str] = None) -> Dict[str, object]:
    """Fully validate a serialized block's bytes; returns its header.

    The whole trust story of remote tiers rests here: both the server
    (on PUT) and the tiered store (on remote ingest) run every blob
    through this before publishing it locally, so bytes that crossed a
    wire can be lost or rejected but can never change results.  Checks
    magic, header well-formedness, schema, the stored key against
    ``key`` (the address the blob claims to live at), payload length
    and the payload SHA-256.  Raises ``ValueError`` on any mismatch.
    """
    header, payload_start = read_blob_header(blob)
    if key is not None and header.get("key") != key:
        raise ValueError("stored key does not match its address")
    payload_nbytes = int(header["payload_nbytes"])
    if payload_start + payload_nbytes > len(blob):
        raise ValueError(
            f"truncated payload: blob has {len(blob) - payload_start} of "
            f"{payload_nbytes} bytes"
        )
    payload = blob[payload_start: payload_start + payload_nbytes]
    if hashlib.sha256(payload).hexdigest() != header.get("digest"):
        raise ValueError("payload digest mismatch")
    return header


@dataclass
class CachedBlock:
    """One block read back from the store.

    ``arrays`` maps names to read-only :class:`numpy.memmap` views over
    the block file — no bytes are copied until a consumer touches them,
    and touching them fills the shared page cache, not private memory.
    """

    key: str
    path: Path
    arrays: Dict[str, np.ndarray]
    nbytes: int
    meta: Dict[str, object] = field(default_factory=dict)

    def materialize(self) -> Dict[str, np.ndarray]:
        """Private in-memory copies of every array (rarely needed —
        slices of the memmaps feed accumulators directly)."""
        return {name: np.array(a) for name, a in self.arrays.items()}


@dataclass
class CacheCounters:
    """Session-local cache activity (one store instance, one process)."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    puts: int = 0
    evictions: int = 0
    integrity_failures: int = 0
    #: Misses on a key the caller had just seen via ``contains()`` — a
    #: block pruned/evicted in the race window.  Benign (the shard is
    #: re-acquired), but worth counting: a busy ``expired`` stream means
    #: the size cap is too tight for the working set.
    expired: int = 0
    # --- remote tier (all zero on a purely local store) ---------------
    remote_hits: int = 0
    remote_misses: int = 0
    remote_bytes_read: int = 0
    remote_bytes_written: int = 0
    remote_puts: int = 0
    #: Write-behind publishes skipped because the remote already had
    #: the block (another host in the fleet won the race).
    remote_publish_skipped: int = 0
    #: Write-behind publishes dropped because the local block was
    #: evicted before the publisher got to it.
    remote_publish_dropped: int = 0
    remote_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class StoreStats:
    """On-disk state of a store directory."""

    n_blocks: int
    total_bytes: int
    #: Blocks published by fan-out campaigns (sub-blocks of a
    #: multi-sensor shard, tagged via their ``fanout`` meta entry).
    #: They are addressed by the same keys single-sensor campaigns use;
    #: the tag only records who published first.
    fanout_blocks: int = 0

    def summary(self) -> str:
        """One human-readable line."""
        line = f"{self.n_blocks} blocks, {self.total_bytes / 1e6:.1f} MB"
        if self.fanout_blocks:
            line += f", {self.fanout_blocks} from fan-out"
        return line


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity sweep."""

    n_ok: int = 0
    bad: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every block passed."""
        return not self.bad


class BlockStore:
    """A content-addressed block cache rooted at one directory.

    Parameters
    ----------
    root:
        Cache directory (created on first use).  Safe to share between
        concurrent processes: writes are atomic renames and readers
        only ever see complete published files.
    max_bytes:
        Optional LRU size cap.  After every write the store evicts
        least-recently-used blocks until the total is back under the
        cap.  ``None`` (default) never evicts.

    Every :meth:`get` verifies the payload digest.  The check costs one
    hash pass over bytes the consumer was about to read anyway —
    negligible next to regenerating the block.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError("max_bytes must be positive (or None for no cap)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.backend = LocalDirBackend(self.root)
        self.counters = CacheCounters()

    # A store pickles as its configuration: worker processes reopen the
    # directory and keep their own counters (reported back to the
    # parent via ShardMetrics, not via this object).
    def __getstate__(self):
        return {"root": str(self.root), "max_bytes": self.max_bytes}

    def __setstate__(self, state):
        self.__init__(**state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = f", max_bytes={self.max_bytes}" if self.max_bytes else ""
        return f"BlockStore({str(self.root)!r}{cap})"

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where a block with this key lives (two-level fan-out)."""
        return self.backend.path_for(key)

    def _iter_block_paths(self) -> Iterator[Path]:
        return self.backend.iter_paths()

    def contains(self, key: str) -> bool:
        """Whether a block is published (no integrity check)."""
        return self.backend.contains(key)

    def tier_of(self, key: str) -> Optional[str]:
        """Which tier would answer a :meth:`get` (``"local"``/``None``).

        Tiered stores add ``"remote"``; schedulers use this to sort
        shards into cold/warm classes without reading any payloads.
        """
        return "local" if self.backend.contains(key) else None

    def tiers_of(self, keys) -> Dict[str, Optional[str]]:
        """:meth:`tier_of` for many keys (tiered stores batch this)."""
        return {key: self.tier_of(key) for key in keys}

    def for_worker(self) -> "BlockStore":
        """The store an engine worker process should be handed.

        A plain store ships as-is; tiered stores return a read-through
        view with write-behind publishing disabled, so all remote
        publishing funnels through the parent process (one publisher,
        one flush point)."""
        return self

    def flush(self, timeout: Optional[float] = None) -> None:
        """Wait for background publishing to drain (no-op here)."""

    def close(self) -> None:
        """Release background resources (no-op here)."""

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping] = None,
    ) -> Path:
        """Publish a block atomically; returns its path.

        Safe under concurrent writers: the block is fully written to a
        unique temp file in the target directory, flushed, and then
        renamed over the final path (see :meth:`LocalDirBackend.
        put_blob`).  Readers never observe a partial block, and a crash
        leaves at worst an orphaned temp file (swept by :meth:`clear`/
        :meth:`prune`).

        Every published block carries provenance in its meta — the
        producing host, pid, backend and schema version — so a fleet
        sharing one remote tier can always answer "who computed this".
        Provenance lives in the header only; it is never part of the
        key or the payload digest.
        """
        if not arrays:
            raise CacheError("a block needs at least one array")
        meta = dict(meta) if meta is not None else {}
        meta.setdefault("provenance", self.provenance())
        blob = _serialize(key, arrays, meta)
        path = self.backend.put_blob(key, blob)
        self.counters.puts += 1
        self.counters.bytes_written += len(blob)
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        return path

    def provenance(self) -> Dict[str, object]:
        """Who/where a block published by this store comes from."""
        return {
            "host": platform.node() or "unknown",
            "pid": os.getpid(),
            "backend": self.backend.describe(),
            "schema": SCHEMA_VERSION,
        }

    def get(
        self, key: str, touch: bool = True, expect: bool = False
    ) -> Optional[CachedBlock]:
        """Look a block up; ``None`` on miss *or* on a damaged block.

        A damaged block (truncated, bad header, digest mismatch) emits
        a :class:`~repro.errors.CacheIntegrityWarning`, is deleted, and
        counts as a miss — the caller re-acquires and re-publishes, so
        corruption can never change results.

        ``expect=True`` marks a lookup the caller has reason to believe
        will hit (it just saw ``contains()`` succeed).  A miss is then
        additionally counted as ``expired`` — the pruned-between-check-
        and-read race — but still behaves exactly like any other miss.
        """
        block = self._local_get(key, touch)
        if block is None:
            self._miss(expect)
            return None
        self.counters.hits += 1
        self.counters.bytes_read += block.nbytes
        return block

    def _local_get(self, key: str, touch: bool) -> Optional[CachedBlock]:
        """Read from the local tier only; ``None`` on (benign) miss."""
        path = self.backend.path_for(key)
        try:
            block = self._read(key, path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, str(exc))
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass
        return block

    def _miss(self, expect: bool) -> None:
        self.counters.misses += 1
        if expect:
            self.counters.expired += 1

    def _read(self, key: str, path: Path) -> CachedBlock:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError("bad magic (not a block file or truncated)")
            (header_len,) = struct.unpack(
                _HEADER_LEN_FMT, fh.read(struct.calcsize(_HEADER_LEN_FMT))
            )
            if header_len <= 0 or header_len > size:
                raise ValueError("implausible header length")
            try:
                header = json.loads(fh.read(header_len).decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(f"unreadable header: {exc}") from None
        if header.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"schema {header.get('schema')!r} != current {SCHEMA_VERSION}"
            )
        if header.get("key") != key:
            raise ValueError("stored key does not match its address")
        prefix = len(MAGIC) + struct.calcsize(_HEADER_LEN_FMT) + header_len
        payload_start = prefix + _pad(prefix)
        payload_nbytes = int(header["payload_nbytes"])
        if payload_start + payload_nbytes > size:
            raise ValueError(
                f"truncated payload: file has {size - payload_start} of "
                f"{payload_nbytes} bytes"
            )
        raw = np.memmap(path, dtype=np.uint8, mode="r", offset=payload_start,
                        shape=(payload_nbytes,))
        if hashlib.sha256(raw).hexdigest() != header["digest"]:
            raise ValueError("payload digest mismatch")
        arrays: Dict[str, np.ndarray] = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
            nbytes = int(spec["nbytes"])
            if int(np.prod(shape, dtype=np.int64)) * dtype.itemsize != nbytes:
                raise ValueError(f"array {spec['name']!r} shape/nbytes mismatch")
            offset = int(spec["offset"])
            if offset + nbytes > payload_nbytes:
                raise ValueError(f"array {spec['name']!r} exceeds the payload")
            view = raw[offset : offset + nbytes].view(dtype).reshape(shape)
            arrays[spec["name"]] = view
        return CachedBlock(
            key=key,
            path=path,
            arrays=arrays,
            nbytes=payload_nbytes,
            meta=dict(header.get("meta", {})),
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        self.counters.integrity_failures += 1
        warnings.warn(
            f"discarding damaged cache block {path.name}: {reason} "
            "(the shard will be re-acquired)",
            CacheIntegrityWarning,
            stacklevel=3,
        )
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """Current on-disk block count, total size, and how many blocks
        were published by fan-out campaigns (a header-only peek per
        block — the payloads are never touched)."""
        n = 0
        total = 0
        fanout = 0
        for path in self._iter_block_paths():
            try:
                total += path.stat().st_size
                n += 1
            except OSError:
                continue
            try:
                if "fanout" in peek_block_meta(path):
                    fanout += 1
            except (OSError, ValueError):
                pass
        return StoreStats(n_blocks=n, total_bytes=total, fanout_blocks=fanout)

    def verify(self, delete_bad: bool = False) -> VerifyReport:
        """Re-check every block's digest; optionally delete failures."""
        report = VerifyReport()
        for path in self._iter_block_paths():
            key = path.name[: -len(_BLOCK_SUFFIX)]
            try:
                self._read(key, path)
            except (OSError, ValueError) as exc:
                report.bad.append(f"{path.name}: {exc}")
                if delete_bad:
                    path.unlink(missing_ok=True)
            else:
                report.n_ok += 1
        return report

    def clear(self) -> int:
        """Delete every block (and orphaned temp file); returns count."""
        return self.backend.clear()

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used blocks until under ``max_bytes``.

        Reads touch mtime (:meth:`get`), so eviction order is true LRU.
        Concurrent-delete races are benign (missing files are skipped).
        Returns the number of blocks evicted.
        """
        if max_bytes < 0:
            raise CacheError("max_bytes must be non-negative")
        entries: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self._iter_block_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort(key=lambda e: e[0])
        evicted = 0
        for _mtime, nbytes, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= nbytes
            evicted += 1
        self.counters.evictions += evicted
        return evicted


def open_store(
    spec: Union[None, str, Path, BlockStore],
    max_bytes: Optional[int] = None,
    remote: Optional[str] = None,
) -> Optional[BlockStore]:
    """Normalize a cache argument: ``None`` stays off, a path becomes a
    :class:`BlockStore`, a store passes through unchanged.

    With ``remote`` (a ``repro cache serve`` URL) a path becomes a
    :class:`~repro.traces.store_backends.tiered.TieredStore` layered
    over that server; ``spec=None`` then gets a per-user local tier
    under the system temp directory (read-through needs *somewhere* to
    memmap from).
    """
    if isinstance(spec, BlockStore):
        return spec
    if remote:
        from repro.traces.store_backends.tiered import (
            TieredStore,
            default_local_tier,
        )

        root = Path(spec) if spec is not None else default_local_tier()
        return TieredStore(root, remote=remote, max_bytes=max_bytes)
    if spec is None:
        return None
    return BlockStore(spec, max_bytes=max_bytes)
