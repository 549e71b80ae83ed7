"""The asyncio campaign service over :class:`repro.runtime.Engine`.

``CampaignService`` turns the experiment registry + engine into a
long-running multi-tenant system:

* **submit** — admission-controlled (per-tenant quotas), identity-
  hashed (the PR-5 run-manifest hash) job submission; identical
  in-flight submissions coalesce into one run with result fan-out.
* **schedule** — a worker pool of asyncio tasks pulls jobs from the
  :class:`~repro.service.scheduler.CacheAwareScheduler` (tenant-fair,
  warm-BlockStore-first) and executes each campaign on an injected
  :class:`concurrent.futures.Executor` so the event loop stays live.
* **stream** — the engine's ``stream_attack`` progress hooks flow back
  as checkpointed key-rank :class:`~repro.service.jobs.JobEvent`\\ s;
  ``watch`` replays a job's full event log and then follows it live.
* **observe** — every request runs with a per-job run directory
  (manifest + JSONL run log + span tree via ``registry.run``), so
  ``repro report summary <run_root>/<job id>`` is the per-request SLO
  gate.

Determinism seams (the service test harness injects all three):
``executor`` (a single-thread inline executor makes execution
synchronous with the loop), ``clock`` (all timestamps come from it —
the service itself never sleeps or reads wall clock), and the
per-submission ``on_event`` observer (called synchronously in the
worker context, e.g. to cancel mid-stream at an exact checkpoint).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
)

from repro.errors import ConfigurationError, JobCancelled, ServiceError
from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    JobEvent,
    JobRequest,
    JobState,
)
from repro.service.quota import QuotaLedger, TenantQuota
from repro.runtime.metrics import hit_rate
from repro.service.scheduler import CacheAwareScheduler
from repro.telemetry.metrics import LATENCY_BUCKETS, get_registry
from repro.telemetry.tracing import new_trace_id

__all__ = ["CampaignService"]


class CampaignService:
    """Async multi-tenant campaign job service.

    Parameters
    ----------
    workers:
        Concurrent campaign slots (asyncio worker tasks; each runs its
        job on the executor).
    quota:
        Default per-tenant :class:`TenantQuota`; ``per_tenant`` maps
        tenant names to overrides.
    cache_dir:
        Shared trace block cache directory handed to every job's
        engine — the substrate of cache-aware scheduling.  ``None``
        runs every campaign cold.
    run_root:
        When set, each job writes its telemetry run record (manifest +
        JSONL run log + Perfetto trace) to ``<run_root>/<job id>``.
    executor:
        :class:`concurrent.futures.Executor` campaigns run on; default
        a thread pool sized to ``workers``.  Tests inject an inline
        single-thread executor for determinism.
    clock:
        Timestamp source for every job/event time (default
        ``time.time``).  The service never sleeps on it.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        quota: Optional[TenantQuota] = None,
        per_tenant: Optional[Mapping[str, TenantQuota]] = None,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        remote_cache: Optional[str] = None,
        run_root: Optional[str] = None,
        executor=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("service workers must be >= 1")
        self.workers = workers
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.remote_cache = remote_cache
        self.run_root = run_root
        self.ledger = QuotaLedger(quota, per_tenant)
        self.scheduler = CacheAwareScheduler(self.ledger)
        self._clock = clock
        self._executor = executor
        self._owns_executor = executor is None
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._changed: Dict[str, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._wake: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        registry = get_registry()
        self._metric_jobs = registry.counter(
            "repro_service_jobs_total",
            "Jobs by terminal state.",
            labelnames=("state",),
        )
        self._metric_queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds",
            "Time jobs spent queued before a worker picked them up.",
            buckets=LATENCY_BUCKETS,
        )
        self._metric_run_seconds = registry.histogram(
            "repro_service_run_seconds",
            "Campaign wall time, dispatch to terminal state.",
            buckets=LATENCY_BUCKETS,
        )
        self._metric_quota_rejections = registry.counter(
            "repro_service_quota_rejections_total",
            "Submissions refused at admission.",
            labelnames=("tenant",),
        )
        self._metric_coalesced = registry.counter(
            "repro_service_coalesced_total",
            "Submissions that attached to an identical in-flight run.",
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._running:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-service"
            )
        self._running = True
        self._tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]

    async def stop(self, cancel_pending: bool = True) -> None:
        """Drain the service: running jobs finish, queued jobs are
        cancelled (default) or left queued, workers exit."""
        if not self._running:
            return
        if cancel_pending:
            for job in self._jobs.values():
                if job.state is JobState.QUEUED:
                    job.cancel_flag.set()
            # Sweep the flagged queue entries out through the scheduler
            # so their quota slots are released even with no worker
            # awake to pick them up.
            while True:
                job = self.scheduler.next_job(
                    on_cancelled=self._finalize_cancelled
                )
                if job is None:
                    break
                self._finalize_cancelled(job)
        self._running = False
        self._wake.set()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ----------------------------------------------------
    async def submit(
        self,
        tenant: str,
        experiment: str,
        *,
        scale: str = "quick",
        seed: int = 0,
        workers: int = 1,
        shard_size: int = 4096,
        options: Optional[Mapping[str, Any]] = None,
        on_event: Optional[Callable[[Job, JobEvent], None]] = None,
    ) -> Job:
        """Admit one campaign submission.

        Returns the admitted :class:`Job` (its ``coalesced_into`` names
        the primary when an identical campaign was already in flight).
        Raises :class:`~repro.errors.QuotaExceededError` when the
        tenant is at quota and :class:`~repro.errors.
        ConfigurationError` for an unknown experiment or bad config.
        """
        self._require_started()
        from repro.experiments import registry

        registry.get(experiment)  # validate the name before admission
        request = JobRequest(
            tenant=tenant,
            experiment=experiment,
            scale=scale,
            seed=seed,
            workers=workers,
            shard_size=shard_size,
            options=dict(options or {}),
        )
        job_id = f"job-{next(self._ids):06d}"
        job = Job(
            id=job_id,
            request=request,
            key=request.job_key(),
            submitted_at=self._clock(),
            trace_id=new_trace_id(job_id),
            on_event=on_event,
        )
        try:
            primary = self.scheduler.submit(job)  # raises QuotaExceededError
        except Exception:
            self._metric_quota_rejections.inc(tenant=tenant)
            raise
        if primary is not None:
            # A coalesced follower rides the primary's run — one trace.
            job.trace_id = primary.trace_id
            self._metric_coalesced.inc()
        self._jobs[job.id] = job
        self._changed[job.id] = asyncio.Event()
        self._publish(
            job,
            JobEvent(
                "state",
                job.submitted_at,
                {"state": JobState.QUEUED.value, "coalesced_into": primary.id}
                if primary is not None
                else {"state": JobState.QUEUED.value},
            ),
        )
        if primary is None:
            self._wake.set()
        return job

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-safe snapshot of one job."""
        return self.get(job_id).snapshot()

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshots of every job, in submission order."""
        return [job.snapshot() for job in self._jobs.values()]

    def stats(self) -> Dict[str, Any]:
        """Service-level counters (states, queue, quota holdings)."""
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "jobs": by_state,
            "pending": self.scheduler.pending_count(),
            "queued_by_tenant": self.scheduler.queued_by_tenant(),
            "active_by_tenant": self.ledger.as_dict(),
            "warm_keys": len(self.scheduler.warm_keys()),
        }

    async def join(self, job_id: str) -> Job:
        """Wait until the job reaches a terminal state."""
        job = self.get(job_id)
        changed = self._changed[job_id]
        while not job.done:
            changed.clear()
            await changed.wait()
        return job

    async def watch(self, job_id: str) -> AsyncIterator[JobEvent]:
        """Replay a job's event log from the start, then follow live
        until the job is terminal."""
        job = self.get(job_id)
        changed = self._changed[job_id]
        index = 0
        while True:
            while index < len(job.events):
                event = job.events[index]
                index += 1
                yield event
            if job.done:
                return
            changed.clear()
            await changed.wait()

    # -- cancellation --------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` unless already terminal.

        Thread-safe: the cooperative flag is raised immediately (a
        running campaign unwinds at its next progress event or
        checkpoint), and queue/quota bookkeeping is finalized on the
        event loop.  Cancelling a queued primary promotes its first
        live coalesced follower into its place; cancelling a *running*
        primary aborts the shared run for every attached follower.
        """
        job = self.get(job_id)
        if job.done:
            return False
        job.cancel_flag.set()
        self._loop.call_soon_threadsafe(self._cancel_on_loop, job)
        return True

    def _cancel_on_loop(self, job: Job) -> None:
        if job.done:
            return
        if job.coalesced_into is not None:
            self.scheduler.detach_follower(job)
            self._finalize_cancelled(job)
            return
        if job.state is JobState.QUEUED:
            heir = self.scheduler.cancel_queued(job)
            self.scheduler.drop_inflight(job)
            self._finalize_cancelled(job)
            if heir is not None:
                self._wake.set()
        # RUNNING: the flag unwinds the campaign cooperatively; the
        # worker finalizes when JobCancelled surfaces.

    def _finalize_cancelled(self, job: Job) -> None:
        if job.done:
            return
        self._transition(job, JobState.CANCELLED, error="cancelled")
        self._release_quota(job)
        self.scheduler.drop_inflight(job)

    # -- internals -----------------------------------------------------
    def _require_started(self) -> None:
        if not self._running:
            raise ServiceError("service is not running (call start())")

    def _release_quota(self, job: Job) -> None:
        if not job.quota_released:
            job.quota_released = True
            self.ledger.release(job.tenant)

    def _publish(self, job: Job, event: JobEvent) -> None:
        """Append an event (loop thread only) and wake watchers; fan
        checkpoints/progress out to coalesced followers."""
        job.events.append(event)
        if event.kind == "checkpoint":
            job.checkpoints.append(dict(event.data))
        changed = self._changed.get(job.id)
        if changed is not None:
            changed.set()
        if event.kind in ("checkpoint", "progress"):
            for follower in list(job.followers):
                self._publish(follower, JobEvent(event.kind, event.ts, dict(event.data)))

    def _transition(
        self, job: Job, state: JobState, *, error: Optional[str] = None
    ) -> None:
        now = self._clock()
        job.state = state
        if state is JobState.RUNNING:
            job.started_at = now
            self._metric_queue_wait.observe(max(0.0, now - job.submitted_at))
        if state in TERMINAL_STATES:
            job.finished_at = now
            job.error = error
            self._metric_jobs.inc(state=state.value)
            if job.started_at is not None:
                self._metric_run_seconds.observe(max(0.0, now - job.started_at))
        self._publish(
            job,
            JobEvent(
                "state",
                now,
                {"state": state.value, **({"error": error} if error else {})},
            ),
        )

    async def _next_job(self) -> Optional[Job]:
        while self._running:
            job = self.scheduler.next_job(on_cancelled=self._finalize_cancelled)
            if job is not None:
                return job
            self._wake.clear()
            await self._wake.wait()
        return None

    async def _worker(self) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            self._transition(job, JobState.RUNNING)
            for follower in list(job.followers):
                self._transition(follower, JobState.RUNNING)
            try:
                payload = await self._loop.run_in_executor(
                    self._executor, self._execute, job
                )
            except JobCancelled:
                self._complete(job, JobState.CANCELLED, error="cancelled")
            except Exception as exc:  # noqa: BLE001 - jobs fail, service lives
                self._complete(
                    job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
                )
            else:
                self._complete(job, JobState.COMPLETED, payload=payload)
            self._wake.set()

    def _complete(
        self,
        job: Job,
        state: JobState,
        *,
        payload: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Finalize a primary and fan its outcome out to followers."""
        self.scheduler.finish(job)
        if state is JobState.COMPLETED and payload is not None:
            cache = payload.get("cache") or {}
            # The run's own counters prove the campaign's blocks are
            # in the store (written on miss, present on hit) — confirm
            # the warmth dispatch assumed optimistically.
            if hit_rate(cache).lookups:
                self.scheduler.note_warm(job.key)
        members = [job, *job.followers]
        for member in members:
            if member.done:
                continue
            # The payload object is deliberately *shared*: coalesced
            # submissions receive the bit-identical result.
            member.result = payload
            self._transition(member, state, error=error)
            self._release_quota(member)

    # -- the campaign itself (executor thread) -------------------------
    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one campaign (in the executor).  Returns the payload."""
        from repro.experiments import registry
        from repro.telemetry.runlog import result_digest

        if job.cancel_flag.is_set():
            raise JobCancelled(job.id)
        request = job.request
        run_dir = (
            str(Path(self.run_root) / job.id) if self.run_root else None
        )
        config = registry.ExperimentConfig(
            scale=request.scale,
            seed=request.seed,
            workers=request.workers,
            shard_size=request.shard_size,
            options=dict(request.options),
            progress=self._progress_hook(job),
            cache_dir=self.cache_dir,
            cache_max_bytes=self.cache_max_bytes,
            remote_cache=self.remote_cache,
            run_dir=run_dir,
            trace_id=job.trace_id,
        )
        result = registry.run(request.experiment, config)
        payload: Dict[str, Any] = {
            "experiment": request.experiment,
            "manifest_hash": job.key,
            "metrics": dict(result.metrics),
            "result_digest": result_digest(result.metrics),
            "lines": result.lines(),
            "seconds": result.seconds,
            "cache": result.metadata.get("cache"),
        }
        if run_dir is not None:
            payload["run_dir"] = run_dir
        return payload

    def _progress_hook(self, job: Job):
        """The engine progress callback: cooperative cancellation plus
        checkpoint/progress relaying (runs in the executor thread)."""

        def hook(event) -> None:
            if job.cancel_flag.is_set():
                raise JobCancelled(job.id)
            payload = getattr(event, "payload", None)
            if event.kind == "keyrank" and payload is not None:
                job_event = JobEvent("checkpoint", self._clock(), dict(payload))
            else:
                job_event = JobEvent(
                    "progress",
                    self._clock(),
                    {"kind": event.kind, "done": event.done, "total": event.total},
                )
            self._loop.call_soon_threadsafe(self._publish, job, job_event)
            if job.on_event is not None:
                job.on_event(job, job_event)

        return hook
