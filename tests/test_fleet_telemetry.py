"""Fleet-observability tests: trace stitching, live metrics, repro top.

Covers the cross-process pieces added for live fleet metrics:

* Perfetto stitching invariants — pid/tid mapping, shared-origin
  re-basing, trace-id filtering, process-metadata dedup;
* the cache server's counters under concurrent load + /metrics scrapes
  (the ``count()`` lock regression test);
* service-level observability — ``queued_by_tenant`` in stats/ping,
  the ``metrics`` socket op, per-job trace ids (inherited across
  coalescing), and the quota-rejection counter;
* the run-log ``metrics_snapshot`` determinism contract (bit-identical
  deterministic snapshots across worker counts);
* latency quantiles in ``repro report`` summaries and diffs.
"""

import asyncio
import json
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro.errors import QuotaExceededError
from repro.experiments import registry
from repro.service import CampaignService, TenantQuota
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobRequest
from repro.service.quota import QuotaLedger
from repro.service.scheduler import CacheAwareScheduler
from repro.service.server import ServiceServer
from repro.telemetry.metrics import (
    diff_snapshots,
    get_registry,
    histogram_quantile,
    parse_prometheus,
)
from repro.telemetry.perfetto import spans_from_log_events, stitch_trace
from repro.telemetry.report import diff_runs, summarize
from repro.telemetry.runlog import read_run
from repro.telemetry.spans import SpanRecord
from repro.traces.store_backends import CacheServer

from tests.test_service import TINY_KW, make_service

TINY_FIG5 = {
    "placements": ("P6",),
    "n_traces": 512,
    "step": 256,
    "rating_at": 256,
}


def _tiny_config(run_dir, workers=1, seed=7, **overrides):
    return registry.ExperimentConfig(
        scale="quick",
        seed=seed,
        workers=workers,
        shard_size=128,
        options=dict(TINY_FIG5, **overrides),
        run_dir=str(run_dir),
    )


@pytest.fixture(scope="module")
def fleet_runs(tmp_path_factory):
    """The same tiny fig5 campaign at 1 and 2 workers."""
    root = tmp_path_factory.mktemp("fleet-runs")
    registry.run("fig5", _tiny_config(root / "w1", workers=1))
    registry.run("fig5", _tiny_config(root / "w2", workers=2))
    return root


# ----------------------------------------------------------------------
# Perfetto stitching invariants.
# ----------------------------------------------------------------------


def _span_event(name, start, seconds, pid, **attrs):
    return {
        "type": "span",
        "name": name,
        "start": start,
        "seconds": seconds,
        "attrs": attrs,
        "counters": {},
        "pid": pid,
    }


class TestPerfettoStitching:
    def test_spans_from_log_events_rebuilds_flat_records(self):
        events = [
            {"type": "run_start", "experiment": "fig5"},
            _span_event("run.fig5", 100.0, 2.0, 41),
            _span_event("shard", 100.5, 0.5, 42),
            {"type": "metrics", "metrics": {}},
        ]
        records = spans_from_log_events(events)
        assert [r.name for r in records] == ["run.fig5", "shard"]
        assert [r.pid for r in records] == [41, 42]
        assert all(not r.children for r in records)
        assert records[0].start == 100.0 and records[0].seconds == 2.0

    def test_trace_id_filter_drops_foreign_keeps_unlabelled(self):
        events = [
            _span_event("mine", 1.0, 0.1, 1, trace_id="job-a"),
            _span_event("theirs", 1.0, 0.1, 1, trace_id="job-b"),
            _span_event("shard", 1.2, 0.1, 2),  # per-run file: no id
        ]
        names = [r.name for r in spans_from_log_events(events, "job-a")]
        assert names == ["mine", "shard"]
        # Without a filter everything is kept.
        assert len(spans_from_log_events(events)) == 3

    def test_stitched_trace_shares_one_origin(self, tmp_path):
        engine = [
            SpanRecord(name="run.fig5", start=50.0, seconds=2.0),
            SpanRecord(name="shard", start=50.5, seconds=0.5),
        ]
        cache = [SpanRecord(name="cacheserver.GET", start=49.0, seconds=0.2)]
        for rec, pid in zip(engine, (10, 11)):
            rec.pid = pid
        cache[0].pid = 20
        out = stitch_trace(tmp_path / "t.json", [engine, cache])
        spans = [
            e
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        # Re-based against the global earliest span (the cache request).
        by_name = {e["name"]: e for e in spans}
        assert by_name["cacheserver.GET"]["ts"] == 0.0
        assert by_name["run.fig5"]["ts"] == pytest.approx(1.0 * 1e6)
        assert by_name["shard"]["ts"] == pytest.approx(1.5 * 1e6)
        assert all(e["dur"] >= 0 for e in spans)

    def test_stitched_trace_pid_tid_and_metadata(self, tmp_path):
        a = SpanRecord(name="one", start=1.0, seconds=0.1)
        b = SpanRecord(name="two", start=1.1, seconds=0.1)
        a.pid = b.pid = 7  # same pid appears in both groups
        out = stitch_trace(
            tmp_path / "t.json", [[a], [b]], process_names={7: "engine w1"}
        )
        events = json.loads(out.read_text())["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 1  # deduped across groups
        assert meta[0]["args"]["name"] == "engine w1"
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["pid"] == e["tid"] == 7 for e in spans)

    def test_cache_trace_log_lines_stitch_directly(self, tmp_path):
        """The server's JSONL trace-log lines are valid span events."""
        srv = CacheServer(tmp_path / "store", port=0,
                          trace_log=tmp_path / "trace.jsonl")
        try:
            srv.log_trace_span("GET", "/v1/blocks/abc", 10.0, 0.01, 200,
                               "job-000001-aaaa")
        finally:
            srv.server_close()
        lines = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        records = spans_from_log_events(lines, "job-000001-aaaa")
        assert [r.name for r in records] == ["cacheserver.GET"]
        assert records[0].attrs["proc"] == "cache-server"
        assert records[0].attrs["status"] == 200
        # A different trace id filters the request out.
        assert spans_from_log_events(lines, "job-000002-bbbb") == []


# ----------------------------------------------------------------------
# Cache server: counters vs concurrent /metrics scrapes.
# ----------------------------------------------------------------------


class TestConcurrentScrape:
    def test_counters_exact_under_concurrent_scrapes(self, tmp_path):
        """count() must not lose increments while /metrics is scraped.

        Regression test for the counter lock: four writer threads bang
        on ``count()`` while scraper threads pull ``/metrics`` and
        ``/v1/stats`` over HTTP the whole time; the final totals must
        be exact, and the registry mirror must agree with the server's
        own counters.
        """
        registry_before = get_registry().snapshot()
        with CacheServer(tmp_path / "store", port=0) as srv:
            stop = threading.Event()
            scrape_errors = []

            def scrape():
                while not stop.is_set():
                    try:
                        for route in ("/metrics", "/v1/stats"):
                            with urllib.request.urlopen(
                                srv.url + route, timeout=5
                            ) as resp:
                                resp.read()
                    except Exception as exc:  # noqa: BLE001
                        scrape_errors.append(exc)
                        return

            def write(n):
                for _ in range(n):
                    srv.count("gets", bytes_out=10)

            scrapers = [threading.Thread(target=scrape) for _ in range(2)]
            writers = [
                threading.Thread(target=write, args=(500,)) for _ in range(4)
            ]
            for t in scrapers + writers:
                t.start()
            for t in writers:
                t.join()
            stop.set()
            for t in scrapers:
                t.join()
            assert not scrape_errors
            stats = srv.stats_payload()["counters"]
            exposition = srv.metrics_exposition()
        assert stats["gets"] == 2000
        assert stats["bytes_out"] == 2000 * 10
        # The registry mirror saw every increment too (scrapes landed
        # GET requests of their own, so compare the mirrored deltas).
        delta = diff_snapshots(registry_before, get_registry().snapshot())
        counters = delta["counters"]
        assert counters['repro_cache_server_requests_total{kind="gets"}'] == 2000
        assert (
            counters['repro_cache_server_bytes_total{direction="out"}']
            == 2000 * 10
        )
        # And the scraped exposition parses back to the same numbers.
        parsed = parse_prometheus(exposition)
        assert (
            parsed['repro_cache_server_requests_total{kind="gets"}'] >= 2000
        )


# ----------------------------------------------------------------------
# Service observability: queue depths, metrics op, trace ids, quotas.
# ----------------------------------------------------------------------


def _job(tenant, seed, job_id):
    request = JobRequest(tenant=tenant, experiment="fig5", seed=seed)
    return Job(id=job_id, request=request, key=request.job_key())


class TestServiceObservability:
    def test_scheduler_reports_queued_by_tenant(self):
        scheduler = CacheAwareScheduler(QuotaLedger())
        assert scheduler.queued_by_tenant() == {}
        for i in range(3):
            scheduler.submit(_job("alice", i, f"job-a{i}"))
        scheduler.submit(_job("bob", 9, "job-b0"))
        assert scheduler.queued_by_tenant() == {"alice": 3, "bob": 1}
        assert scheduler.pending_count() == 4
        scheduler.next_job()
        by_tenant = scheduler.queued_by_tenant()
        assert sum(by_tenant.values()) == 3  # empty queues are omitted

    def test_stats_and_ping_carry_queue_depths(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(job.id)
            stats = service.stats()
            await service.stop()
            return stats

        stats = asyncio.run(scenario())
        assert stats["pending"] == 0
        assert stats["queued_by_tenant"] == {}
        assert stats["jobs"]["completed"] == 1

    def test_jobs_get_trace_ids_and_coalescing_inherits(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            # Back-to-back submissions: no await point runs the worker
            # in between, so the second coalesces into the first.
            first = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            second = await service.submit("bob", "fig5", seed=7, **TINY_KW)
            await service.join(first.id)
            await service.join(second.id)
            await service.stop()
            return first.snapshot(), second.snapshot()

        first, second = asyncio.run(scenario())
        assert first["trace_id"].startswith(first["id"])
        assert second["coalesced_into"] == first["id"]
        # The coalesced follower shares the primary's trace id: one
        # acquisition, one stitched timeline.
        assert second["trace_id"] == first["trace_id"]

    def test_run_log_span_carries_job_trace_id(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            job = await service.submit("alice", "fig5", seed=7, **TINY_KW)
            await service.join(job.id)
            snap = job.snapshot()
            await service.stop()
            return snap

        snap = asyncio.run(scenario())
        record = read_run(snap["result"]["run_dir"])
        run_span = next(
            e for e in record.spans if e["name"].startswith("run.")
        )
        assert run_span["attrs"]["trace_id"] == snap["trace_id"]
        # Stitch filter keyed by that id keeps the whole run file.
        assert spans_from_log_events(record.events, snap["trace_id"])

    def test_quota_rejections_counted(self):
        before = get_registry().snapshot()

        async def scenario():
            service = make_service(quota=TenantQuota(max_active=1))
            await service.start()
            job = await service.submit("alice", "fig5", seed=1, **TINY_KW)
            with pytest.raises(QuotaExceededError):
                await service.submit("alice", "fig5", seed=2, **TINY_KW)
            await service.join(job.id)
            await service.stop()

        asyncio.run(scenario())
        delta = diff_snapshots(before, get_registry().snapshot())
        assert (
            delta["counters"][
                'repro_service_quota_rejections_total{tenant="alice"}'
            ]
            == 1
        )

    def test_metrics_op_over_socket(self, tmp_path):
        socket_path = str(tmp_path / "svc.sock")

        async def scenario():
            service = CampaignService(
                workers=1,
                cache_dir=str(tmp_path / "cache"),
                run_root=str(tmp_path / "runs"),
            )
            server = ServiceServer(service, socket_path)
            await server.start()
            out = {}

            def client_side():
                client = ServiceClient(socket_path)
                list(
                    client.submit_and_watch(
                        "alice", "fig5", seed=7, **TINY_KW
                    )
                )
                out["metrics"] = client.metrics()
                out["ping"] = client.ping()

            thread = threading.Thread(target=client_side)
            thread.start()
            while thread.is_alive():
                await asyncio.sleep(0.01)
            thread.join()
            await server.close()
            return out

        out = asyncio.run(scenario())
        snapshot = out["metrics"]["metrics"]
        counters = snapshot["counters"]
        assert counters.get('repro_service_jobs_total{state="completed"}')
        # The exposition parses and agrees with the JSON snapshot.
        parsed = parse_prometheus(out["metrics"]["prometheus"])
        for series, value in counters.items():
            assert parsed[series] == value
        assert "queued_by_tenant" in out["ping"]


# ----------------------------------------------------------------------
# metrics_snapshot determinism + report quantiles.
# ----------------------------------------------------------------------


class TestMetricsSnapshotContract:
    def test_deterministic_snapshot_identical_across_worker_counts(
        self, fleet_runs
    ):
        """The run log's deterministic delta is a function of config +
        seed only — byte-identical at 1 and 2 workers."""
        snaps = {
            label: read_run(fleet_runs / label).one("metrics_snapshot")
            for label in ("w1", "w2")
        }
        det_w1 = snaps["w1"]["snapshot"]
        det_w2 = snaps["w2"]["snapshot"]
        assert json.dumps(det_w1, sort_keys=True) == json.dumps(
            det_w2, sort_keys=True
        )
        counters = det_w1["counters"]
        assert counters['repro_engine_items_total{kind="stream"}'] == 512
        assert counters['repro_engine_shards_total{kind="stream"}'] == 4
        # Gauges and wall-clock histograms never qualify.
        assert det_w1["gauges"] == {}
        assert all(
            not name.startswith("repro_engine_shard_seconds")
            for name in det_w1["histograms"]
        )

    def test_full_snapshot_records_shard_latency(self, fleet_runs):
        full = read_run(fleet_runs / "w1").one("metrics_snapshot")["full"]
        hist = full["histograms"]["repro_engine_shard_seconds"]
        assert hist["count"] == 4  # one observation per shard
        assert sum(hist["counts"]) == hist["count"]

    def test_summary_lines_render_latency_quantiles(self, fleet_runs):
        summary = summarize(fleet_runs / "w1")
        latency_lines = [
            line for line in summary.lines() if "latency" in line
        ]
        assert any(
            "repro_engine_shard_seconds" in line for line in latency_lines
        )
        assert all(
            "p50=" in line and "p95=" in line and "p99=" in line
            for line in latency_lines
        )

    def test_diff_flags_latency_quantile_regression(self, fleet_runs):
        base = summarize(fleet_runs / "w1")
        # Same run with one histogram shifted one bucket ladder up —
        # a pure p50/p95/p99 regression with identical results.
        hist = base.histograms["repro_engine_shard_seconds"]
        shifted = dict(
            hist,
            counts=[0, 0] + list(hist["counts"][:-2]),
            sum=hist["sum"] * 16.0,
        )
        slow = replace(
            base,
            histograms=dict(
                base.histograms, repro_engine_shard_seconds=shifted
            ),
        )
        report = diff_runs(base, slow, threshold=0.2, min_seconds=0.0)
        quantile_verdicts = {
            v.metric: v.kind
            for v in report.verdicts
            if v.metric.endswith("repro_engine_shard_seconds")
        }
        assert quantile_verdicts == {
            "p50:repro_engine_shard_seconds": "regression",
            "p95:repro_engine_shard_seconds": "regression",
            "p99:repro_engine_shard_seconds": "regression",
        }
        # Diffing a run against itself stays quiet.
        clean = diff_runs(base, base, min_seconds=0.0)
        assert all(v.kind == "ok" for v in clean.verdicts)

    def test_quantiles_method_matches_histogram_quantile(self, fleet_runs):
        summary = summarize(fleet_runs / "w1")
        series = "repro_engine_shard_seconds"
        got = summary.quantiles(series)
        hist = summary.histograms[series]
        assert got == {
            "p50": histogram_quantile(hist, 0.5),
            "p95": histogram_quantile(hist, 0.95),
            "p99": histogram_quantile(hist, 0.99),
        }
