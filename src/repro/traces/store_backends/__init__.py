"""Pluggable storage tiers for the block store.

``base`` holds the blob-level :class:`StoreBackend` contract and the
local-directory transport; ``http``/``server`` speak the ``repro cache
serve`` wire protocol; ``tiered`` layers a remote tier under the local
one with read-through ingest and write-behind publish.

Everything except :mod:`~repro.traces.store_backends.base` is imported
lazily: :mod:`repro.traces.blockstore` imports ``base`` at module load,
and the richer submodules import ``blockstore`` back (for the block
file format), so eager re-exports here would form a cycle.
"""

from __future__ import annotations

from repro.traces.store_backends.base import (
    BLOCK_SUFFIX,
    TMP_PREFIX,
    LocalDirBackend,
    StoreBackend,
    contains_many,
    validate_key,
)

__all__ = [
    "BLOCK_SUFFIX",
    "TMP_PREFIX",
    "LocalDirBackend",
    "StoreBackend",
    "contains_many",
    "validate_key",
    "HTTPBackend",
    "TieredStore",
    "default_local_tier",
    "CacheServer",
]

_LAZY = {
    "HTTPBackend": "repro.traces.store_backends.http",
    "TieredStore": "repro.traces.store_backends.tiered",
    "default_local_tier": "repro.traces.store_backends.tiered",
    "CacheServer": "repro.traces.store_backends.server",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
