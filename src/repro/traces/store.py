"""Trace-set container with npz persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.errors import AcquisitionError


@dataclass
class TraceSet:
    """A batch of side-channel traces plus the data needed to attack
    them.

    Attributes
    ----------
    traces:
        ``(n, n_samples)`` sensor readouts (int16).
    plaintexts, ciphertexts:
        ``(n, 16)`` uint8 blocks.
    key:
        The (ground-truth) 16-byte key, kept for evaluation only — the
        attack itself never reads it.
    metadata:
        Free-form acquisition parameters (clock rates, placement names,
        sensor type, ...).
    """

    traces: np.ndarray
    plaintexts: np.ndarray
    ciphertexts: np.ndarray
    key: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.traces = np.asarray(self.traces)
        self.plaintexts = np.asarray(self.plaintexts, dtype=np.uint8)
        self.ciphertexts = np.asarray(self.ciphertexts, dtype=np.uint8)
        self.key = np.asarray(self.key, dtype=np.uint8)
        n = self.traces.shape[0]
        if self.plaintexts.shape != (n, 16) or self.ciphertexts.shape != (n, 16):
            raise AcquisitionError(
                "plaintexts/ciphertexts must be (n, 16) matching the trace count"
            )
        if self.key.shape != (16,):
            raise AcquisitionError("key must be 16 bytes")

    def __len__(self) -> int:
        return self.traces.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per trace."""
        return self.traces.shape[1]

    def head(self, n: int) -> "TraceSet":
        """The first ``n`` traces as a new (view-backed) TraceSet."""
        if not 0 < n <= len(self):
            raise AcquisitionError(f"cannot take {n} of {len(self)} traces")
        return TraceSet(
            self.traces[:n],
            self.plaintexts[:n],
            self.ciphertexts[:n],
            self.key,
            dict(self.metadata),
        )

    def extend(self, other: "TraceSet") -> "TraceSet":
        """Concatenate two trace sets collected under the same key."""
        if not np.array_equal(self.key, other.key):
            raise AcquisitionError("cannot merge trace sets with different keys")
        if self.n_samples != other.n_samples:
            raise AcquisitionError("cannot merge trace sets with different lengths")
        return TraceSet(
            np.concatenate([self.traces, other.traces]),
            np.concatenate([self.plaintexts, other.plaintexts]),
            np.concatenate([self.ciphertexts, other.ciphertexts]),
            self.key,
            dict(self.metadata),
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path], *, compress: bool = True) -> None:
        """Persist to an ``.npz`` file.

        ``compress=False`` writes a stored (uncompressed) archive:
        int16 sensor readouts deflate slowly for only a modest size
        win, so campaign-sized sets save several times faster
        uncompressed.  The default stays compressed; :meth:`load` reads
        either transparently.
        """
        writer = np.savez_compressed if compress else np.savez
        writer(
            Path(path),
            traces=self.traces,
            plaintexts=self.plaintexts,
            ciphertexts=self.ciphertexts,
            key=self.key,
            metadata=json.dumps(self.metadata),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceSet":
        """Load a trace set saved by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            return cls(
                traces=data["traces"],
                plaintexts=data["plaintexts"],
                ciphertexts=data["ciphertexts"],
                key=data["key"],
                metadata=json.loads(str(data["metadata"])),
            )
