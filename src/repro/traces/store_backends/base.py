"""Blob-level transport contract for the block store.

The block store separates two concerns that PR 4 originally fused:

* **format** — headers, payload digests, memmap views, schema
  versioning.  That knowledge lives in :mod:`repro.traces.blockstore`
  and nowhere else.
* **transport** — moving opaque serialized block files between a key
  and a place.  That is this module's :class:`StoreBackend` contract:
  ``get/put/contains/delete`` over *bytes*, nothing more.

Keeping the contract blob-level is what makes remote tiers safe: a
backend can be a directory, an HTTP artifact server, or anything else
that stores bytes faithfully, and the store re-verifies the payload
digest on ingest regardless — a backend can lose blocks (that is a
miss) but can never change results.

:class:`LocalDirBackend` is the extraction of today's on-disk layout,
byte-for-byte: two-level fan-out directories (``root/<key[:2]>/<key>.
blk``), unique ``.tmp-`` temp files published with ``os.replace``, and
an ``fsync`` before the rename.  Stores written before this refactor
read back unchanged.
"""

from __future__ import annotations

import errno
import os
import re
import uuid
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.errors import CacheError

#: Prefix of in-flight temp files (never visible to readers).
TMP_PREFIX = ".tmp-"

#: Suffix of published block files.
BLOCK_SUFFIX = ".blk"

#: Block keys are SHA-256 hex digests — anything else is refused at the
#: transport boundary, which keeps path construction and URL routing
#: injection-proof by construction.
_KEY_RE = re.compile(r"[0-9a-f]{64}\Z")

#: A blob as the bytes-like parts it is the concatenation of.
BlobParts = Sequence[Union[bytes, bytearray, memoryview]]

#: Most buffers one ``os.writev`` call is handed (Linux's IOV_MAX).
_IOV_MAX = 1024


def validate_key(key: str) -> str:
    """Check that ``key`` is a well-formed block key; returns it."""
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise CacheError(f"malformed block key {key!r} (want 64 hex chars)")
    return key


@runtime_checkable
class StoreBackend(Protocol):
    """Where serialized block files live.

    Implementations move opaque blobs; they never parse headers or
    verify digests (the store does that on every read and on every
    remote ingest).  ``put_blob`` takes the blob as a sequence of
    bytes-like parts, stored back to back (a caller holding one blob
    passes ``[blob]``).  ``get_blob`` returns ``None`` for an absent
    key; ``delete`` reports whether a blob was actually removed.
    """

    def get_blob(self, key: str) -> Optional[bytes]: ...

    def put_blob(self, key: str, parts: BlobParts) -> None: ...

    def contains(self, key: str) -> bool: ...

    def delete(self, key: str) -> bool: ...

    def describe(self) -> str: ...


def contains_many(backend: StoreBackend, keys: Iterable[str]) -> Dict[str, bool]:
    """Presence of many keys, batched where the backend supports it.

    The HTTP backend answers a whole campaign's worth of keys in one
    round trip; anything else degrades to per-key ``contains``.
    """
    keys = list(keys)
    batched = getattr(backend, "contains_many", None)
    if callable(batched):
        return batched(keys)
    return {key: backend.contains(key) for key in keys}


def _write_all(fd: int, parts: BlobParts) -> None:
    """Write ``parts`` back to back with ``os.writev``, resuming after
    every short write until each byte is out."""
    pending = [memoryview(part).cast("B") for part in parts]
    pending = [view for view in pending if view.nbytes]
    while pending:
        written = os.writev(fd, pending[:_IOV_MAX])
        if written <= 0:
            raise OSError(errno.EIO, "writev made no progress")
        while written:
            if written < pending[0].nbytes:
                pending[0] = pending[0][written:]
                break
            written -= pending.pop(0).nbytes


class LocalDirBackend:
    """Today's on-disk layout, behind the :class:`StoreBackend` seam."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalDirBackend({str(self.root)!r})"

    def describe(self) -> str:
        return f"dir:{self.root}"

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where a block with this key lives (two-level fan-out)."""
        return self.root / key[:2] / (key + BLOCK_SUFFIX)

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get_blob(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None

    def put_blob(self, key: str, parts: BlobParts) -> Path:
        """Publish a blob, the concatenation of ``parts``, atomically;
        returns its path.

        Safe under concurrent writers: the parts are written in order
        to a unique temp file in the target directory with
        ``os.writev`` (never joined in memory), flushed with ``fsync``,
        and then renamed over the final path.  Readers never observe a
        partial block.  Any ``OSError`` on the way (a full disk, a
        failed flush) unlinks the temp file and raises
        :class:`~repro.errors.CacheError` naming the key.
        """
        path = self.path_for(key)
        tmp = path.parent / f"{TMP_PREFIX}{key[:16]}-{os.getpid()}-{uuid.uuid4().hex}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                _write_all(fd, parts)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CacheError(f"could not publish block {key}: {exc}") from exc
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    def iter_paths(self) -> Iterator[Path]:
        """Published block files, in deterministic (sorted) order."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for path in sorted(sub.iterdir()):
                if path.name.endswith(BLOCK_SUFFIX) and not path.name.startswith(
                    TMP_PREFIX
                ):
                    yield path

    def clear(self) -> int:
        """Delete every block (and orphaned temp file); returns count."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for path in sorted(sub.iterdir()):
                if path.name.endswith(BLOCK_SUFFIX) or path.name.startswith(
                    TMP_PREFIX
                ):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed
