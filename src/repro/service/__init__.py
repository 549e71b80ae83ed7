"""``repro.service`` — async multi-tenant campaign jobs over the engine.

Layers, bottom up:

* :mod:`~repro.service.jobs` — job records and their identity hash
  (the run-manifest hash: coalescing key and cache-aware ordering key).
* :mod:`~repro.service.quota` — per-tenant admission control.
* :mod:`~repro.service.scheduler` — pure synchronous scheduling core
  (tenant-fair round-robin, warm-cache preference, coalescing).
* :mod:`~repro.service.service` — the asyncio :class:`CampaignService`
  (worker pool, executor offload, checkpoint streaming, cancellation).
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  unix-socket JSON-lines wire layer behind ``repro serve`` and the
  thin ``repro submit``/``status``/``watch`` client.
"""

from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    JobEvent,
    JobRequest,
    JobState,
)
from repro.service.quota import QuotaLedger, TenantQuota
from repro.service.scheduler import CacheAwareScheduler
from repro.service.service import CampaignService

__all__ = [
    "CacheAwareScheduler",
    "CampaignService",
    "Job",
    "JobEvent",
    "JobRequest",
    "JobState",
    "QuotaLedger",
    "TenantQuota",
    "TERMINAL_STATES",
]
