"""Deterministic end-to-end tests of the campaign service.

No sleeps, no wall-clock dependence: every test injects

* an **inline executor** — ``submit()`` runs the campaign synchronously
  in the event-loop thread and returns a resolved future, so job
  execution is totally ordered with the service's own bookkeeping;
* a **fake clock** — all job/event timestamps are monotone counter
  ticks, so timing assertions are exact equalities;
* the per-job **on_event observer** — called synchronously inside the
  campaign's progress hook, which is how a test cancels a job at an
  exact checkpoint.

The acceptance end-to-end (two tenants, one shared block cache, curves
bit-identical to direct engine runs, coalesced submissions acquiring
exactly once) is :class:`TestTwoTenantAcceptance`.
"""

import asyncio
import concurrent.futures
import json
import threading

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
)
from repro.runtime import Engine
from repro.service import CampaignService, JobState, TenantQuota
from repro.telemetry.runlog import read_run

#: A fig5 campaign small enough for sub-second cold runs: 4 shards of
#: 128 traces, a key-rank checkpoint every 128 traces.
TINY = {"n_traces": 512, "step": 128, "rating_at": 256}
TINY_KW = dict(shard_size=128, options=TINY)


class InlineExecutor:
    """``concurrent.futures``-compatible executor that runs submissions
    synchronously in the caller's thread (the event loop)."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - relayed via future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


class FakeClock:
    """Monotone tick counter standing in for ``time.time``."""

    def __init__(self, start=1_000.0, tick=1.0):
        self.now = start
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def make_service(tmp_path=None, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("executor", InlineExecutor())
    kwargs.setdefault("clock", FakeClock())
    if tmp_path is not None:
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        kwargs.setdefault("run_root", str(tmp_path / "runs"))
    return CampaignService(**kwargs)


def direct_fig5_curve(seed, step=TINY["step"]):
    """The same TINY fig5 campaign run directly on an engine — the
    ground truth the service's streamed checkpoints must match."""
    from repro.experiments.table1_traces import streamed_placement_curves

    engine = Engine(workers=1, shard_size=128)
    [(curve, _)] = streamed_placement_curves(
        engine,
        ["P6"],
        TINY["n_traces"],
        step,
        "LeakyDSP",
        rng=np.random.SeedSequence(seed).spawn(1)[0],
    )
    return curve


def curve_tuples(curve):
    return [
        (p.n_traces, p.log2_lower, p.log2_upper, p.recovered)
        for p in curve.points
    ]


def checkpoint_tuples(checkpoints):
    return [
        (c["n_traces"], c["log2_lower"], c["log2_upper"], c["recovered"])
        for c in checkpoints
    ]


class TestLifecycle:
    def test_submit_streams_checkpoints_to_completion(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            assert job.state is JobState.QUEUED
            done = await service.join(job.id)
            await service.stop()
            return done

        job = asyncio.run(scenario())
        assert job.state is JobState.COMPLETED
        assert job.error is None
        # 512 traces / step 128 = 4 key-rank checkpoints, in order.
        assert [c["n_traces"] for c in job.checkpoints] == [128, 256, 384, 512]
        assert all(c["placement"] == "P6" for c in job.checkpoints)
        states = [
            e.data["state"] for e in job.events if e.kind == "state"
        ]
        assert states == ["queued", "running", "completed"]
        # Fake-clock timestamps: strictly ordered, no wall clock.
        assert job.submitted_at < job.started_at < job.finished_at
        payload = job.result
        assert payload["experiment"] == "fig5"
        assert payload["manifest_hash"] == job.key
        assert payload["result_digest"]
        assert "P6_log2_rank_at_256" in payload["metrics"]

    def test_every_job_gets_a_run_record(self, tmp_path):
        """The per-request SLO gate: each job writes manifest + JSONL
        run log under run_root/<job id>, readable by `repro report`."""

        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            done = await service.join(job.id)
            await service.stop()
            return done

        job = asyncio.run(scenario())
        run_dir = job.result["run_dir"]
        assert run_dir.endswith(job.id)
        record = read_run(run_dir)
        end = record.one("run_end")
        assert end["status"] == "ok"
        metrics_event = record.one("metrics")
        assert metrics_event["result_digest"] == job.result["result_digest"]
        manifest = json.loads((tmp_path / "runs" / job.id / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "fig5"
        from repro.telemetry.report import summarize

        assert any("fig5" in line for line in summarize(run_dir).lines())

    def test_watch_replays_full_event_log(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(job.id)
            replayed = [event async for event in service.watch(job.id)]
            await service.stop()
            return job, replayed

        job, replayed = asyncio.run(scenario())
        assert replayed == job.events
        kinds = [e.kind for e in replayed]
        assert kinds[0] == "state" and kinds[-1] == "state"
        assert kinds.count("checkpoint") == 4

    def test_submit_requires_running_service(self):
        async def scenario():
            service = make_service()
            with pytest.raises(ServiceError):
                await service.submit("alice", "fig5")

        asyncio.run(scenario())

    def test_unknown_experiment_rejected_at_admission(self):
        async def scenario():
            service = make_service()
            await service.start()
            with pytest.raises(ConfigurationError):
                await service.submit("alice", "frobnicate")
            assert service.ledger.as_dict() == {}
            await service.stop()

        asyncio.run(scenario())

    def test_unknown_job_id(self):
        async def scenario():
            service = make_service()
            await service.start()
            with pytest.raises(ServiceError):
                service.status("job-999999")
            await service.stop()

        asyncio.run(scenario())

    def test_failed_job_reports_error_and_frees_quota(self):
        async def scenario():
            service = make_service(quota=TenantQuota(max_active=1))
            await service.start()
            job = await service.submit(
                "alice", "fig5", options={"placements": ("NOPE",), **TINY},
                shard_size=128,
            )
            done = await service.join(job.id)
            assert done.state is JobState.FAILED
            assert done.error
            assert service.ledger.as_dict() == {}
            # The freed slot admits the next submission.
            retry = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            done2 = await service.join(retry.id)
            await service.stop()
            return done2

        assert asyncio.run(scenario()).state is JobState.COMPLETED


class TestQuota:
    def test_admission_rejects_over_quota(self):
        async def scenario():
            service = make_service(quota=TenantQuota(max_active=2))
            await service.start()
            first = await service.submit("alice", "fig5", seed=1, **TINY_KW)
            second = await service.submit("alice", "fig5", seed=2, **TINY_KW)
            with pytest.raises(QuotaExceededError):
                await service.submit("alice", "fig5", seed=3, **TINY_KW)
            # Another tenant is unaffected by alice's quota.
            other = await service.submit("bob", "fig5", seed=3, **TINY_KW)
            await service.join(first.id)
            await service.join(second.id)
            await service.join(other.id)
            # Slots freed at terminal state: alice can submit again.
            again = await service.submit("alice", "fig5", seed=4, **TINY_KW)
            await service.join(again.id)
            assert service.ledger.as_dict() == {}
            await service.stop()

        asyncio.run(scenario())

    def test_coalesced_followers_hold_their_own_slot(self):
        async def scenario():
            service = make_service(quota=TenantQuota(max_active=2))
            await service.start()
            one = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            two = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            assert two.coalesced_into == one.id
            with pytest.raises(QuotaExceededError):
                await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(one.id)
            await service.join(two.id)
            assert service.ledger.as_dict() == {}
            await service.stop()

        asyncio.run(scenario())


class TestCoalescing:
    def test_identical_submissions_share_one_run(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            a = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            b = await service.submit("bob", "fig5", seed=7, **TINY_KW)
            c = await service.submit("carol", "fig5", seed=8, **TINY_KW)
            await service.join(a.id)
            await service.join(b.id)
            await service.join(c.id)
            await service.stop()
            return service, a, b, c

        service, a, b, c = asyncio.run(scenario())
        assert b.coalesced_into == a.id
        assert c.coalesced_into is None  # different seed: a fresh run
        # The follower's result is the *same object* — bit-identical by
        # construction, not by re-running.
        assert b.result is a.result
        assert b.state is JobState.COMPLETED
        assert checkpoint_tuples(b.checkpoints) == checkpoint_tuples(a.checkpoints)
        # One acquisition for a+b: the executor saw two campaigns total
        # (the coalesced pair's and carol's).
        assert service._executor.submitted == 2

    def test_worker_count_does_not_split_coalescing(self):
        """The job key is the manifest hash, which excludes the worker
        count: the same campaign at any parallelism coalesces."""

        async def scenario():
            service = make_service()
            await service.start()
            a = await service.submit("alice", "fig5", seed=7, workers=1, **TINY_KW)
            b = await service.submit("bob", "fig5", seed=7, workers=2, **TINY_KW)
            await service.join(a.id)
            await service.stop()
            return a, b

        a, b = asyncio.run(scenario())
        assert b.coalesced_into == a.id

    def test_completed_run_is_not_a_coalescing_target(self):
        async def scenario():
            service = make_service()
            await service.start()
            a = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(a.id)
            b = await service.submit("bob", "fig5", seed=7, **TINY_KW)
            await service.join(b.id)
            await service.stop()
            return a, b

        a, b = asyncio.run(scenario())
        assert b.coalesced_into is None
        assert b.result is not a.result
        assert b.result["result_digest"] == a.result["result_digest"]


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        async def scenario():
            service = make_service()
            await service.start()
            first = await service.submit("alice", "fig5", seed=1, **TINY_KW)
            victim = await service.submit("alice", "fig5", seed=2, **TINY_KW)
            assert service.cancel(victim.id)
            await service.join(first.id)
            done = await service.join(victim.id)
            await service.stop()
            return service, done

        service, victim = asyncio.run(scenario())
        assert victim.state is JobState.CANCELLED
        assert victim.result is None
        assert victim.checkpoints == []
        assert service.ledger.as_dict() == {}
        # Only the surviving job reached the executor.
        assert service._executor.submitted == 1

    def test_cancel_mid_stream_stops_at_exact_checkpoint(self):
        """Cooperative cancellation: the progress hook raises at its
        next call after the flag, so a job cancelled at checkpoint 2
        streams exactly 2 checkpoints."""

        async def scenario():
            service = make_service()
            await service.start()
            seen = {"checkpoints": 0}

            def cancel_at_second(job, event):
                if event.kind == "checkpoint":
                    seen["checkpoints"] += 1
                    if seen["checkpoints"] == 2:
                        assert service.cancel(job.id)

            job = await service.submit(
                "alice", "fig5", seed=7, on_event=cancel_at_second, **TINY_KW
            )
            done = await service.join(job.id)
            await service.stop()
            return service, done

        service, job = asyncio.run(scenario())
        assert job.state is JobState.CANCELLED
        assert job.error == "cancelled"
        assert len(job.checkpoints) == 2
        assert [c["n_traces"] for c in job.checkpoints] == [128, 256]
        assert job.result is None
        assert service.ledger.as_dict() == {}

    def test_cancel_terminal_job_is_a_noop(self):
        async def scenario():
            service = make_service()
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(job.id)
            cancelled = service.cancel(job.id)
            await service.stop()
            return job, cancelled

        job, cancelled = asyncio.run(scenario())
        assert cancelled is False
        assert job.state is JobState.COMPLETED

    def test_cancel_queued_primary_promotes_follower(self):
        """Cancelling a queued primary hands the run to its first live
        follower — the follower still completes with a full result."""

        async def scenario():
            service = make_service()
            await service.start()
            blocker = await service.submit("alice", "fig5", seed=1, **TINY_KW)
            primary = await service.submit("alice", "fig5", seed=2, **TINY_KW)
            follower = await service.submit("bob", "fig5", seed=2, **TINY_KW)
            assert follower.coalesced_into == primary.id
            assert service.cancel(primary.id)
            await service.join(blocker.id)
            done = await service.join(follower.id)
            cancelled = await service.join(primary.id)
            await service.stop()
            return service, done, cancelled

        service, follower, primary = asyncio.run(scenario())
        assert primary.state is JobState.CANCELLED
        assert follower.state is JobState.COMPLETED
        assert follower.coalesced_into is None  # promoted to primary
        assert len(follower.checkpoints) == 4
        assert service.ledger.as_dict() == {}

    def test_cancel_follower_leaves_primary_running(self):
        async def scenario():
            service = make_service()
            await service.start()
            primary = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            follower = await service.submit("bob", "fig5", seed=7, **TINY_KW)
            assert service.cancel(follower.id)
            done = await service.join(primary.id)
            dropped = await service.join(follower.id)
            await service.stop()
            return service, done, dropped

        service, primary, follower = asyncio.run(scenario())
        assert primary.state is JobState.COMPLETED
        assert len(primary.checkpoints) == 4
        assert follower.state is JobState.CANCELLED
        assert follower.result is None
        assert service.ledger.as_dict() == {}

    def test_stop_cancels_still_queued_jobs(self):
        async def scenario():
            service = make_service(workers=1)
            await service.start()
            jobs = [
                await service.submit("alice", "fig5", seed=s, **TINY_KW)
                for s in (1, 2, 3)
            ]
            # Stop before yielding to the worker: nothing ran yet.
            await service.stop()
            return service, jobs

        service, jobs = asyncio.run(scenario())
        assert all(job.state is JobState.CANCELLED for job in jobs)
        assert service.ledger.as_dict() == {}


class TestDifferentialCheckpoints:
    """Service-streamed checkpoints are bit-identical to a direct
    engine run of the same campaign, at TINY's checkpoint grid and at
    one that cuts every shard in two."""

    @pytest.mark.parametrize("step", [None, 64])
    def test_streamed_checkpoints_match_direct_engine(self, step):
        options = dict(TINY, step=step or TINY["step"])

        async def scenario():
            service = make_service()
            await service.start()
            job = await service.submit(
                "alice", "fig5", seed=3, shard_size=128, options=options
            )
            done = await service.join(job.id)
            await service.stop()
            return done

        job = asyncio.run(scenario())
        assert job.state is JobState.COMPLETED
        direct = direct_fig5_curve(seed=3, step=options["step"])
        # Exact float equality: the service relays full-precision rank
        # bounds, and the engine is bit-deterministic.
        assert checkpoint_tuples(job.checkpoints) == curve_tuples(direct)


class TestTwoTenantAcceptance:
    """The PR's acceptance end-to-end: two tenants, one cache dir."""

    def test_overlapping_campaigns_share_cache_and_match_engine(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, quota=TenantQuota(max_active=4))
            await service.start()
            # Tenant 1 runs the campaign cold.
            alice = await service.submit("alice", "fig5", seed=3, **TINY_KW)
            alice_done = await service.join(alice.id)
            # Tenant 2 submits the overlapping campaign afterwards: a
            # fresh run (no in-flight coalescing) on the shared cache.
            bob = await service.submit("bob", "fig5", seed=3, **TINY_KW)
            bob_done = await service.join(bob.id)
            # Identical *concurrent* submissions (both tenants again).
            c1 = await service.submit("alice", "fig5", seed=9, **TINY_KW)
            c2 = await service.submit("bob", "fig5", seed=9, **TINY_KW)
            await service.join(c1.id)
            await service.join(c2.id)
            await service.stop()
            return service, alice_done, bob_done, c1, c2

        service, alice, bob, c1, c2 = asyncio.run(scenario())

        # Both completed; bob's run was warm: BlockStore hits > 0.
        assert alice.state is bob.state is JobState.COMPLETED
        assert bob.coalesced_into is None
        assert alice.result["cache"]["hits"] == 0
        assert alice.result["cache"]["misses"] > 0
        assert bob.result["cache"]["hits"] > 0
        assert bob.result["cache"]["misses"] == 0

        # Both tenants' streamed rank curves are bit-identical to a
        # direct engine run of the same campaign.
        direct = curve_tuples(direct_fig5_curve(seed=3))
        assert checkpoint_tuples(alice.checkpoints) == direct
        assert checkpoint_tuples(bob.checkpoints) == direct

        # Identical concurrent submissions ran acquisition exactly once.
        assert c2.coalesced_into == c1.id
        assert c2.result is c1.result
        assert service._executor.submitted == 3  # alice, bob, c1+c2


class TestSocketFrontEnd:
    """The unix-socket wire layer: a blocking client in a side thread
    against the asyncio server (real threads, but every assertion waits
    on protocol completion — no timing races)."""

    def run_with_server(self, tmp_path, client_fn):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        socket_path = str(tmp_path / "svc.sock")

        async def scenario():
            service = CampaignService(
                workers=1, cache_dir=str(tmp_path / "cache")
            )
            server = ServiceServer(service, socket_path)
            await server.start()
            results = {}
            thread = threading.Thread(
                target=client_fn, args=(ServiceClient(socket_path), results)
            )
            thread.start()
            while thread.is_alive():
                await asyncio.sleep(0.01)
            thread.join()
            await server.close()
            return results

        return asyncio.run(scenario())

    def test_submit_watch_status_round_trip(self, tmp_path):
        def client_side(client, results):
            results["ping"] = client.ping()
            lines = list(
                client.submit_and_watch(
                    "alice", "fig5", seed=7, shard_size=128, options=TINY
                )
            )
            results["events"] = [l["event"] for l in lines if "event" in l]
            results["final"] = lines[-1]
            job_id = results["final"]["job"]["id"]
            results["status"] = client.status(job_id)
            results["jobs"] = client.jobs()
            results["replay"] = [
                l["event"] for l in client.watch(job_id) if "event" in l
            ]

        results = self.run_with_server(tmp_path, client_side)
        assert results["ping"]["pending"] == 0
        final_job = results["final"]["job"]
        assert results["final"]["ok"] and final_job["state"] == "completed"
        checkpoints = [
            e for e in results["events"] if e["kind"] == "checkpoint"
        ]
        assert [c["data"]["n_traces"] for c in checkpoints] == [128, 256, 384, 512]
        assert results["status"]["n_checkpoints"] == 4
        assert [j["id"] for j in results["jobs"]] == [final_job["id"]]
        # watch on a finished job replays the identical event log.
        assert results["replay"] == results["events"]

    def test_error_paths_over_the_wire(self, tmp_path):
        def client_side(client, results):
            try:
                client.status("job-999999")
            except ServiceError as exc:
                results["unknown_job"] = str(exc)
            try:
                client.submit("alice", "frobnicate")
            except ServiceError as exc:
                results["unknown_experiment"] = str(exc)

        results = self.run_with_server(tmp_path, client_side)
        assert "job-999999" in results["unknown_job"]
        assert "frobnicate" in results["unknown_experiment"]

    def test_client_without_server(self, tmp_path):
        from repro.service.client import ServiceClient

        client = ServiceClient(str(tmp_path / "nope.sock"))
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()
