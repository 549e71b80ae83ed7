"""Cache-aware, tenant-fair campaign scheduling.

A pure synchronous core (no asyncio, no clock) so its invariants are
directly property-testable:

* **Admission** charges the tenant's quota slot before a job is either
  queued or coalesced; the *service* releases each admitted job's slot
  exactly once at its terminal state (idempotently — the scheduler
  never touches the ledger after admission).
* **Coalescing**: a submission whose :meth:`~repro.service.jobs.
  JobRequest.job_key` matches a queued or running primary job attaches
  to it as a *follower* — it never enters the queue, and the service
  fans the primary's events and result out to it.  Safe because equal
  keys mean bit-identical output (the engine's determinism contract).
  A queued primary that is cancelled hands its run over to its first
  live follower (promotion), so followers never lose admitted work.
* **Fairness**: tenants with pending work are served round-robin — a
  rotating ring ensures that between two consecutive picks of one
  tenant, every other tenant with pending jobs is picked at least once.
* **Cache-awareness**: within the picked tenant's queue, a job whose
  key matches an already-started campaign's is preferred (its trace
  blocks are warm in the shared :class:`~repro.traces.blockstore.
  BlockStore`; the key covers everything a block key does); ties fall
  back to submission order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.service.jobs import Job
from repro.service.quota import QuotaLedger

__all__ = ["CacheAwareScheduler"]


class CacheAwareScheduler:
    """Synchronous scheduling core of the campaign service."""

    def __init__(self, ledger: QuotaLedger) -> None:
        self.ledger = ledger
        #: Per-tenant FIFO of queued primary jobs.
        self._pending: Dict[str, List[Job]] = {}
        #: Round-robin ring of tenants with pending jobs.
        self._ring: List[str] = []
        #: Queued/running primary jobs by job key (coalescing targets).
        self._inflight: Dict[str, Job] = {}
        #: Keys of campaigns already started — their trace blocks are
        #: (becoming) warm in the shared store.
        self._warm: Set[str] = set()

    # -- admission -----------------------------------------------------
    def submit(self, job: Job) -> Optional[Job]:
        """Admit one job; returns the primary it coalesced into, or
        ``None`` when the job was queued as a primary itself.

        Raises :class:`~repro.errors.QuotaExceededError` (charging
        nothing) when the tenant is at quota.
        """
        self.ledger.admit(job.tenant)
        primary = self._inflight.get(job.key)
        if primary is not None and not primary.done:
            job.coalesced_into = primary.id
            primary.followers.append(job)
            return primary
        self._inflight[job.key] = job
        self._pending.setdefault(job.tenant, []).append(job)
        if job.tenant not in self._ring:
            self._ring.append(job.tenant)
        return None

    # -- picking -------------------------------------------------------
    def _pick_for(self, tenant: str) -> Job:
        """The tenant's next job: warm key first, else FIFO."""
        queue = self._pending[tenant]
        for i, job in enumerate(queue):
            if job.key in self._warm:
                return queue.pop(i)
        return queue.pop(0)

    def _promote(self, job: Job) -> Optional[Job]:
        """Hand a cancelled queued primary's slot to its first live
        follower (which becomes a queued primary itself)."""
        heir: Optional[Job] = None
        while job.followers and heir is None:
            candidate = job.followers.pop(0)
            if not candidate.cancel_flag.is_set():
                heir = candidate
        if heir is None:
            self.drop_inflight(job)
            return None
        heir.followers, job.followers = job.followers, []
        heir.coalesced_into = None
        for follower in heir.followers:
            follower.coalesced_into = heir.id
        if self._inflight.get(job.key) is job:
            self._inflight[job.key] = heir
        return heir

    def next_job(
        self, on_cancelled: Optional[Callable[[Job], None]] = None
    ) -> Optional[Job]:
        """Pop the next job to run, or ``None`` when nothing is ready.

        Jobs whose cancel flag was raised while queued are swept out
        here (reported through ``on_cancelled`` so the service can
        finalize state and release quota) rather than dispatched; a
        swept primary's queue position passes to its promoted follower.
        """
        while self._ring:
            tenant = self._ring[0]
            queue = self._pending.get(tenant, [])
            survivors: List[Job] = []
            for job in queue:
                if job.cancel_flag.is_set():
                    heir = self._promote(job)
                    if heir is not None:
                        survivors.append(heir)
                    if on_cancelled is not None:
                        on_cancelled(job)
                else:
                    survivors.append(job)
            queue[:] = survivors
            if not queue:
                self._pending.pop(tenant, None)
                self._ring.pop(0)
                continue
            job = self._pick_for(tenant)
            # Rotate: the served tenant goes to the back of the ring
            # (or leaves it when its queue drained).
            self._ring.pop(0)
            if self._pending.get(tenant):
                self._ring.append(tenant)
            else:
                self._pending.pop(tenant, None)
            self._warm.add(job.key)
            return job
        return None

    # -- completion / cancellation -------------------------------------
    def finish(self, job: Job) -> None:
        """Retire a finished primary's coalescing key."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]

    def cancel_queued(self, job: Job) -> Optional[Job]:
        """Remove a still-queued primary job, promoting its first live
        follower into its queue position.  Returns the promoted heir
        (``None`` when there was none or the job was not queued —
        the caller finalizes state and releases quota either way)."""
        queue = self._pending.get(job.tenant)
        if not queue or job not in queue:
            return None
        index = queue.index(job)
        heir = self._promote(job)
        if heir is not None:
            queue[index] = heir
        else:
            queue.pop(index)
            if not queue:
                self._pending.pop(job.tenant, None)
                if job.tenant in self._ring:
                    self._ring.remove(job.tenant)
        return heir

    def detach_follower(self, job: Job) -> bool:
        """Detach a coalesced follower from its primary; ``True`` when
        it was attached."""
        primary = self._inflight.get(job.key)
        if primary is not None and job in primary.followers:
            primary.followers.remove(job)
            return True
        return False

    def drop_inflight(self, job: Job) -> None:
        """Forget a primary that will never run (cancelled while
        queued) so a later identical submission starts fresh."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]

    def note_warm(self, key: str) -> None:
        """Record a job key as warm without dispatching a job.

        Dispatch marks keys warm implicitly; this is the explicit path
        for warmth learned another way — a completed job whose cache
        counters show its blocks really are in the store, or a fleet
        peer that published the campaign's blocks to the shared remote
        tier."""
        if key:
            self._warm.add(key)

    # -- introspection -------------------------------------------------
    def pending_count(self) -> int:
        return sum(len(q) for q in self._pending.values())

    def queued_by_tenant(self) -> Dict[str, int]:
        """Queued primary jobs per tenant (the fairness ring's view)."""
        return {
            tenant: len(queue)
            for tenant, queue in self._pending.items()
            if queue
        }

    def warm_keys(self) -> Set[str]:
        return set(self._warm)
