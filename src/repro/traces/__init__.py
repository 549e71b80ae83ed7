"""Trace capture: the attacker-side acquisition harness and storage.

In the paper, traces are LeakyDSP readouts streamed over UART, one
record per sensor clock during an AES encryption, triggered by the
start-encryption signal.  :class:`~repro.traces.store.TraceSet` is the
container (with npz persistence) and
:class:`~repro.traces.acquisition.AESTraceAcquisition` the harness that
drives the victim, runs the PDN and sensor models and collects the
readout matrix.

The remote-tier classes (:class:`HTTPBackend`, :class:`TieredStore`)
are exported lazily: their modules load ``http.client`` and ``ssl``,
which only a run with a remote cache tier needs.
"""

from repro.traces.acquisition import (
    AcquisitionSpec,
    AESTraceAcquisition,
    MultiSensorAcquisition,
)
from repro.traces.blockstore import (
    SCHEMA_VERSION,
    BlockStore,
    CacheCounters,
    CachedBlock,
    StoreStats,
    VerifyReport,
    block_key,
    open_store,
    seed_lineage,
    verify_blob,
)
from repro.traces.store import TraceSet
from repro.traces.store_backends import LocalDirBackend, StoreBackend

__all__ = [
    "AcquisitionSpec",
    "AESTraceAcquisition",
    "MultiSensorAcquisition",
    "TraceSet",
    "SCHEMA_VERSION",
    "BlockStore",
    "CacheCounters",
    "CachedBlock",
    "StoreStats",
    "VerifyReport",
    "block_key",
    "open_store",
    "seed_lineage",
    "verify_blob",
    "HTTPBackend",
    "LocalDirBackend",
    "StoreBackend",
    "TieredStore",
]

_LAZY = {
    "HTTPBackend": "repro.traces.store_backends.http",
    "TieredStore": "repro.traces.store_backends.tiered",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
