"""Property-based tests (hypothesis) for the campaign scheduler core.

The contract under test (see :mod:`repro.service.scheduler` and
:mod:`repro.service.quota`):

* quota accounting never goes negative and never exceeds the per-tenant
  limit, under arbitrary interleavings of submit / pick / cancel /
  finish — and drains to exactly zero once every job is terminal;
* admission order is tenant-fair: between two consecutive picks of one
  tenant, every other tenant whose queue stayed non-empty over that
  window is picked at least once (round-robin over tenants, whatever
  the per-tenant cache-aware ordering does within a queue);
* every submission coalesced into one run receives the bit-identical
  result payload (the same object, at the service level).

The scheduler is a pure synchronous object, so the interpreter drives
it directly; the coalescing payload property runs the full asyncio
service over a stub experiment.
"""

import asyncio
import concurrent.futures
import contextlib
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuotaExceededError
from repro.service import (
    CacheAwareScheduler,
    CampaignService,
    Job,
    JobRequest,
    JobState,
    QuotaLedger,
    TenantQuota,
)

TENANTS = ("t0", "t1", "t2")
MAX_ACTIVE = 3


def make_job(counter, tenant, key_id):
    """A synthetic job: jobs sharing ``key_id`` share identity — they
    coalesce while one is in flight, and a later one replays the cache
    an earlier one warmed."""
    return Job(
        id=f"job-{next(counter):04d}",
        request=JobRequest(tenant=tenant, experiment="stub", seed=key_id),
        key=f"key-{key_id}",
    )


#: One interpreter step: (op, tenant index, key index).
ops = st.lists(
    st.tuples(
        st.sampled_from(["submit", "pick", "finish", "cancel"]),
        st.integers(0, len(TENANTS) - 1),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


class SchedulerInterpreter:
    """Drive a scheduler + ledger the way the service does, checking
    the ledger against an independent model after every operation."""

    def __init__(self):
        self.ledger = QuotaLedger(TenantQuota(max_active=MAX_ACTIVE))
        self.scheduler = CacheAwareScheduler(self.ledger)
        self.counter = itertools.count()
        self.model_active = {t: 0 for t in TENANTS}
        self.queued = []  # primary jobs not yet picked
        self.running = []  # picked primaries not yet finished
        self.jobs = []

    def release(self, job):
        if not job.quota_released:
            job.quota_released = True
            self.model_active[job.tenant] -= 1
            self.ledger.release(job.tenant)

    def on_cancelled(self, job):
        # The service's sweep callback: finalize + release.
        job.state = JobState.CANCELLED
        if job in self.queued:
            self.queued.remove(job)
        self.release(job)

    def submit(self, tenant, key_id):
        job = make_job(self.counter, tenant, key_id)
        try:
            primary = self.scheduler.submit(job)
        except QuotaExceededError:
            # Rejected exactly when the tenant is at its limit, and
            # rejection charges nothing.
            assert self.model_active[tenant] == MAX_ACTIVE
            return
        self.model_active[tenant] += 1
        self.jobs.append(job)
        if primary is None:
            self.queued.append(job)

    def pick(self):
        job = self.scheduler.next_job(on_cancelled=self.on_cancelled)
        if job is not None:
            assert not job.cancel_flag.is_set()
            assert job in self.queued
            self.queued.remove(job)
            job.state = JobState.RUNNING
            self.running.append(job)
        return job

    def finish(self, index):
        if not self.running:
            return
        job = self.running.pop(index % len(self.running))
        self.scheduler.finish(job)
        job.state = JobState.COMPLETED
        self.release(job)
        for follower in job.followers:
            follower.state = JobState.COMPLETED
            self.release(follower)

    def cancel(self, index):
        candidates = [
            j
            for j in self.jobs
            if j.state is JobState.QUEUED and not j.cancel_flag.is_set()
        ]
        if not candidates:
            return
        job = candidates[index % len(candidates)]
        job.cancel_flag.set()
        # Mirror CampaignService._cancel_on_loop.
        if job.coalesced_into is not None:
            self.scheduler.detach_follower(job)
            job.state = JobState.CANCELLED
            self.release(job)
            return
        heir = self.scheduler.cancel_queued(job)
        self.scheduler.drop_inflight(job)
        if job in self.queued:
            self.queued.remove(job)
        if heir is not None:
            self.queued.append(heir)
        job.state = JobState.CANCELLED
        self.release(job)

    def check_ledger(self):
        for tenant in TENANTS:
            held = self.ledger.active(tenant)
            assert held == self.model_active[tenant]
            assert 0 <= held <= MAX_ACTIVE

    def drain(self):
        while True:
            job = self.pick()
            if job is None:
                break
        while self.running:
            self.finish(0)


class TestQuotaAccounting:
    @given(ops)
    @settings(max_examples=200)
    def test_never_negative_and_drains_to_zero(self, steps):
        interp = SchedulerInterpreter()
        for op, tenant_idx, key_id in steps:
            if op == "submit":
                interp.submit(TENANTS[tenant_idx], key_id)
            elif op == "pick":
                interp.pick()
            elif op == "finish":
                interp.finish(key_id)
            else:
                interp.cancel(key_id)
            # The ledger (which raises loudly on any negative balance)
            # agrees with the independent model after every step.
            interp.check_ledger()
        interp.drain()
        interp.check_ledger()
        assert interp.ledger.as_dict() == {}
        assert interp.scheduler.pending_count() == 0
        # Every admitted job reached a terminal state exactly once.
        assert all(j.done for j in interp.jobs)
        assert all(j.quota_released for j in interp.jobs)


class TestFairness:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["submit", "pick"]),
                st.integers(0, len(TENANTS) - 1),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_round_robin_between_tenants(self, steps):
        """Between two consecutive picks of tenant T, every tenant
        whose queue was non-empty at every pick from T's first pick
        through T's second is picked at least once.  (A tenant that
        only became pending *after* T's first pick may legitimately
        wait one ring rotation.)"""
        ledger = QuotaLedger(TenantQuota(max_active=100))
        scheduler = CacheAwareScheduler(ledger)
        counter = itertools.count()
        pending = {t: 0 for t in TENANTS}
        # (picked tenant, tenants with a pending job before the pick)
        pick_log = []

        def do_pick():
            before = frozenset(t for t, n in pending.items() if n > 0)
            job = scheduler.next_job()
            if job is None:
                assert not before
                return
            pending[job.tenant] -= 1
            pick_log.append((job.tenant, before))

        for op, tenant_idx, key_id in steps:
            if op == "submit":
                tenant = TENANTS[tenant_idx]
                job = make_job(counter, tenant, key_id)
                if scheduler.submit(job) is None:
                    pending[tenant] += 1
            else:
                do_pick()
        while any(pending.values()):
            do_pick()

        last_seen = {}
        for j, (tenant, _) in enumerate(pick_log):
            if tenant in last_seen:
                i = last_seen[tenant]
                window = pick_log[i : j + 1]
                picked_between = {t for t, _ in pick_log[i + 1 : j]}
                for other in TENANTS:
                    if other == tenant:
                        continue
                    if all(other in before for _, before in window):
                        assert other in picked_between, (
                            f"{other} starved between picks {i} and {j} "
                            f"of {tenant}: {pick_log}"
                        )
            last_seen[tenant] = j


class TestCacheAwareOrdering:
    def test_warm_key_preferred_within_tenant(self):
        """Deterministic core of cache-awareness: once a campaign has
        started, a later resubmission of its key (after it finished, so
        it no longer coalesces) jumps the tenant's FIFO."""
        scheduler = CacheAwareScheduler(QuotaLedger(TenantQuota(max_active=10)))
        counter = itertools.count()
        first = make_job(counter, "t0", key_id=0)
        assert scheduler.submit(first) is None
        assert scheduler.next_job() is first  # key-0 now warm
        scheduler.finish(first)
        cold = make_job(counter, "t0", key_id=1)
        warm = make_job(counter, "t0", key_id=0)  # resubmitted
        for job in (cold, warm):
            assert scheduler.submit(job) is None
        assert scheduler.warm_keys() == {"key-0"}
        assert scheduler.next_job() is warm  # jumps ahead of cold
        assert scheduler.next_job() is cold
        assert scheduler.next_job() is None

    def test_fifo_when_nothing_is_warm(self):
        scheduler = CacheAwareScheduler(QuotaLedger(TenantQuota(max_active=10)))
        counter = itertools.count()
        jobs = [make_job(counter, "t0", key_id=k) for k in (0, 1, 2)]
        for job in jobs:
            scheduler.submit(job)
        assert [scheduler.next_job() for _ in range(3)] == jobs


class _InlineExecutor:
    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - relayed via future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


@contextlib.contextmanager
def stub_experiment():
    """Temporarily register a fast deterministic experiment: its
    payload derives only from the seed, and it streams two keyrank
    checkpoints.  (A context manager, not a fixture, so hypothesis can
    re-enter it per generated example.)"""
    from repro.experiments import registry
    from repro.runtime import ProgressEvent

    def runner(config, engine):
        for i in (1, 2):
            if engine.progress is not None:
                engine.progress(
                    ProgressEvent(
                        kind="keyrank",
                        done=i,
                        total=2,
                        detail=f"stub {i}/2",
                        payload={
                            "n_traces": i,
                            "log2_lower": float(config.seed + i),
                            "log2_upper": float(config.seed + i) / 3.0,
                            "recovered": False,
                        },
                    )
                )
        return {"seed": config.seed}

    registry.get("fig5")  # force _populate() before patching the dict
    registry._REGISTRY["svc-stub"] = registry.ExperimentSpec(
        name="svc-stub",
        title="service stub",
        runner=runner,
        renderer=lambda payload: [repr(payload)],
        metrics=lambda payload: {"stub_seed": payload["seed"]},
    )
    try:
        yield
    finally:
        registry._REGISTRY.pop("svc-stub", None)


class TestCoalescedPayloadIdentity:
    @given(
        st.lists(
            st.tuples(st.sampled_from(TENANTS), st.integers(0, 3)),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_coalesced_jobs_get_bit_identical_payloads(self, submissions):
        """All submissions admitted before the first run starts and
        sharing a seed coalesce — and every member of a coalesced group
        receives the *same payload object* and checkpoint stream."""

        async def scenario():
            service = CampaignService(
                workers=1,
                quota=TenantQuota(max_active=100),
                executor=_InlineExecutor(),
            )
            await service.start()
            jobs = [
                await service.submit(tenant, "svc-stub", seed=seed)
                for tenant, seed in submissions
            ]
            for job in jobs:
                await service.join(job.id)
            await service.stop()
            return jobs

        with stub_experiment():
            jobs = asyncio.run(scenario())
        assert all(job.state is JobState.COMPLETED for job in jobs)
        by_key = {}
        for job in jobs:
            by_key.setdefault(job.key, []).append(job)
        for group in by_key.values():
            primary = group[0]
            assert primary.coalesced_into is None
            for follower in group[1:]:
                assert follower.coalesced_into == primary.id
                assert follower.result is primary.result
                assert follower.checkpoints == primary.checkpoints
            digests = {
                job.result["result_digest"] for job in group
            }
            assert len(digests) == 1
