"""Trace capture: the attacker-side acquisition harness and storage.

In the paper, traces are LeakyDSP readouts streamed over UART, one
record per sensor clock during an AES encryption, triggered by the
start-encryption signal.  :class:`~repro.traces.store.TraceSet` is the
container (with npz persistence) and
:class:`~repro.traces.acquisition.AESTraceAcquisition` the harness that
drives the victim, runs the PDN and sensor models and collects the
readout matrix.
"""

from repro.traces.acquisition import (
    AcquisitionSpec,
    AESTraceAcquisition,
    MultiSensorAcquisition,
    characterize_readouts,
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
from repro.traces.store_backends import (
    HTTPBackend,
    LocalDirBackend,
    StoreBackend,
    TieredStore,
)

__all__ = [
    "AcquisitionSpec",
    "AESTraceAcquisition",
    "MultiSensorAcquisition",
    "characterize_readouts",
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
