"""Campaign job records: the currency of the campaign service.

A **submission** is an :class:`ExperimentConfig`-identified request to
run one registered experiment: tenant + experiment name + the identity
fields of :class:`~repro.experiments.registry.ExperimentConfig` (scale,
seed, shard size, option overrides).  Its :meth:`JobRequest.
job_key` is exactly the run-manifest identity hash of PR 5
(:func:`repro.telemetry.manifest.manifest_hash`): two submissions with
the same key produce bit-identical scientific output by the engine's
determinism contract, which is what makes in-flight coalescing safe —
the service runs the campaign once and fans the result out.

The same fields are everything that reaches a trace block key, so the
job key is also the campaign's block-store identity: a later job with
a finished job's key replays that job's cached trace blocks, which is
what the cache-aware scheduler orders for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.telemetry.manifest import build_manifest, manifest_hash

__all__ = ["Job", "JobEvent", "JobRequest", "JobState", "TERMINAL_STATES"]


class JobState(str, Enum):
    """Lifecycle of a campaign job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class JobRequest:
    """One tenant's campaign submission (immutable identity)."""

    tenant: str
    experiment: str
    scale: str = "quick"
    seed: int = 0
    workers: int = 1
    shard_size: int = 4096
    options: Mapping[str, Any] = field(default_factory=dict)

    def manifest(self) -> Dict[str, Any]:
        """The PR-5 run manifest this submission resolves to."""
        return build_manifest(
            self.experiment,
            scale=self.scale,
            seed=self.seed,
            workers=self.workers,
            shard_size=self.shard_size,
            options=dict(self.options),
        )

    def job_key(self) -> str:
        """Identity hash of the campaign (the coalescing key).

        The manifest hash covers experiment, scale, seed, shard size
        and options — and deliberately *not* the worker count or the
        tenant: the same campaign at any parallelism, submitted by
        anyone, yields bit-identical output (and reads the same cached
        trace blocks).
        """
        return manifest_hash(self.manifest())


@dataclass
class JobEvent:
    """One streamed job event.

    ``kind`` is ``"state"`` (lifecycle transition), ``"checkpoint"``
    (full-precision key-rank bounds relayed from the engine's
    ``stream_attack`` hooks) or ``"progress"`` (shard-level progress).
    """

    kind: str
    ts: float
    data: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "ts": self.ts, "data": dict(self.data)}


@dataclass
class Job:
    """One admitted submission and everything that happened to it."""

    id: str
    request: JobRequest
    key: str
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: The result payload (shared — identical object — with every job
    #: coalesced into the same run).
    result: Optional[Dict[str, Any]] = None
    #: Ordered event log (state transitions, checkpoints, progress).
    events: List[JobEvent] = field(default_factory=list)
    #: Checkpoint payloads only, in stream order (the rank curve).
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    #: Fleet trace correlation id stamped at admission; propagated into
    #: the campaign's engine spans and remote-cache requests.
    trace_id: Optional[str] = None
    #: Primary job id when this submission was coalesced, else ``None``.
    coalesced_into: Optional[str] = None
    #: Follower jobs coalesced into this one (primary side).
    followers: List["Job"] = field(default_factory=list)
    #: Cooperative cancellation flag, checked by the running campaign's
    #: progress hook (thread-safe: set from any thread).
    cancel_flag: threading.Event = field(default_factory=threading.Event)
    #: Idempotence guard for quota release (service-internal).
    quota_released: bool = False
    #: Optional synchronous observer called in the worker context with
    #: each event — deterministic test/embedding hook.
    on_event: Optional[Callable[["Job", JobEvent], None]] = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def tenant(self) -> str:
        return self.request.tenant

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of the job (the wire/status format)."""
        return {
            "id": self.id,
            "key": self.key,
            "tenant": self.tenant,
            "experiment": self.request.experiment,
            "scale": self.request.scale,
            "seed": self.request.seed,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "n_checkpoints": len(self.checkpoints),
            "trace_id": self.trace_id,
            "coalesced_into": self.coalesced_into,
            "result": self.result,
        }
