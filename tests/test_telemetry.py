"""The unified run telemetry subsystem.

Covers the span recorder, deterministic cross-worker merge, manifest
hashing, the JSONL run-log schema (golden-pinned), the Chrome/Perfetto
export, and the ``repro report`` summary/diff engine including the
synthetic-slowdown regression fixture CI relies on.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.kernels.profile import StageProfile
from repro.runtime.metrics import EngineMetrics, ShardMetrics
from repro.telemetry import (
    RUN_SCHEMA_VERSION,
    SpanRecord,
    Telemetry,
    build_manifest,
    chrome_trace_events,
    diff_runs,
    leaf_totals,
    manifest_hash,
    read_run,
    result_digest,
    summarize,
    walk_spans,
    write_run_log,
)
from repro.errors import ConfigurationError

GOLDEN = Path(__file__).parent / "golden" / "run_log_schema.json"

#: Small enough for CI, large enough for two shards per worker.
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
def tiny_runs(tmp_path_factory):
    """One tiny fig5 campaign at 1 and 2 workers, plus a sabotaged run."""
    root = tmp_path_factory.mktemp("telemetry-runs")
    registry.run("fig5", _tiny_config(root / "w1", workers=1))
    registry.run("fig5", _tiny_config(root / "w2", workers=2))
    os.environ["REPRO_INJECT_STAGE_SLEEP"] = "pdn:0.1"
    try:
        registry.run("fig5", _tiny_config(root / "slow", workers=1))
    finally:
        del os.environ["REPRO_INJECT_STAGE_SLEEP"]
    return root


# ----------------------------------------------------------------------
# Span recorder primitives.
# ----------------------------------------------------------------------


def test_telemetry_nests_and_attaches():
    telemetry = Telemetry()
    with telemetry.span("outer", kind="test") as outer:
        with telemetry.span("inner"):
            pass
        telemetry.attach(SpanRecord(name="grafted", seconds=1.5))
        telemetry.event("checkpoint", counters={"n": 3}, n_traces=3)
    assert [r.name for r in telemetry.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner", "grafted", "checkpoint"]
    assert outer.attrs == {"kind": "test"}
    assert outer.seconds >= 0.0
    assert outer.child("checkpoint").counter("n") == 3


def test_walk_spans_and_leaf_totals():
    tree = SpanRecord(
        name="root",
        seconds=5.0,
        children=[
            SpanRecord(name="a", seconds=1.0),
            SpanRecord(
                name="b",
                seconds=3.0,
                children=[SpanRecord(name="a", seconds=2.0)],
            ),
        ],
    )
    paths = [(path, depth) for path, depth, _ in walk_spans([tree])]
    assert paths == [("root", 0), ("root/a", 1), ("root/b", 1), ("root/b/a", 2)]
    # Only leaves count: root and b are interior.
    assert leaf_totals([tree]) == {"a": 3.0}


def test_telemetry_clear():
    telemetry = Telemetry()
    with telemetry.span("x"):
        pass
    telemetry.clear()
    assert telemetry.roots == []


# ----------------------------------------------------------------------
# Satellite: throughputs report 0.0, never inf.
# ----------------------------------------------------------------------


def test_zero_second_metrics_are_finite():
    shard = ShardMetrics(shard_index=0, n_items=100, seconds=0.0)
    assert shard.items_per_second == 0.0
    assert "n/a" in shard.summary()
    engine = EngineMetrics(
        kind="collect", n_items=100, n_shards=1, workers=1,
        wall_seconds=0.0, shards=[shard],
    )
    assert engine.items_per_second == 0.0
    assert engine.parallelism == 0.0
    assert engine.stage_items_per_second() == {}
    assert "n/a" in engine.summary()


def test_zero_second_stage_stats_are_finite():
    profile = StageProfile()
    profile.add("pdn", 0.0, items=50)
    assert profile.stages["pdn"].items_per_second == 0.0


# ----------------------------------------------------------------------
# Manifest identity.
# ----------------------------------------------------------------------


def test_manifest_hash_stability():
    kwargs = dict(scale="quick", seed=3, shard_size=128, options={"n": 1})
    a = build_manifest("fig5", workers=1, **kwargs)
    b = build_manifest("fig5", workers=8, **kwargs)
    # Same configuration: identical hash on any host at any worker count
    # (workers, versions, host and git state are informational only).
    assert manifest_hash(a) == manifest_hash(b)
    assert a["config_hash"] == b["config_hash"]
    c = build_manifest("fig5", workers=1, **{**kwargs, "seed": 4})
    assert manifest_hash(a) != manifest_hash(c)
    d = build_manifest("fig3", workers=1, **kwargs)
    assert manifest_hash(a) != manifest_hash(d)


def test_manifest_records_environment():
    manifest = build_manifest(
        "fig5", scale="quick", seed=0, workers=2, shard_size=64
    )
    assert manifest["schema"] == RUN_SCHEMA_VERSION
    assert manifest["versions"]["python"]
    assert manifest["versions"]["numpy"]
    assert manifest["host"]["cpu_count"] >= 1
    assert manifest["seed_lineage"]["entropy"] == 0


# ----------------------------------------------------------------------
# Tentpole: the merged span tree is deterministic across worker counts.
# ----------------------------------------------------------------------


def _structure(run_dir):
    """The worker-count-invariant shape of a run log's span stream."""
    record = read_run(run_dir)
    shape = []
    for event in record.events:
        if event["type"] == "span":
            # Everything but the worker count is workload identity.
            attrs = {
                k: v for k, v in event["attrs"].items() if k != "workers"
            }
            shape.append(("span", event["path"], event["leaf"], attrs))
        elif event["type"] == "checkpoint":
            shape.append(("checkpoint", event["path"], event["n_traces"]))
    return shape


def test_span_merge_deterministic_across_worker_counts(tiny_runs):
    w1 = _structure(tiny_runs / "w1")
    w2 = _structure(tiny_runs / "w2")
    assert w1 == w2
    # Shard spans appear in shard-index order regardless of which
    # worker finished first.
    shard_indices = [
        event["attrs"]["shard"]
        for event in read_run(tiny_runs / "w2").spans
        if event["name"] == "shard"
    ]
    assert shard_indices == sorted(shard_indices)
    assert len(shard_indices) >= 2


def test_results_bit_identical_across_worker_counts(tiny_runs):
    digest = [
        read_run(tiny_runs / label).one("metrics")["result_digest"]
        for label in ("w1", "w2")
    ]
    assert digest[0] == digest[1]
    hashes = [
        read_run(tiny_runs / label).manifest_hash for label in ("w1", "w2")
    ]
    assert hashes[0] == hashes[1]


def test_checkpoints_stay_out_of_serial_shard_spans(tmp_path, monkeypatch):
    """A serial shard folds into the masters and runs each checkpoint
    between its folds, but the checkpoint's time is not the shard's:
    with key rank slowed by 50 ms, no shard span or ``accumulate``
    stage in ``run.jsonl`` grows by it."""
    from repro.attacks import metrics as attack_metrics

    sleep = 0.05
    config = dict(step=64)  # two checkpoints per 128-trace shard
    registry.run("fig5", _tiny_config(tmp_path / "warm", **config))
    real = attack_metrics.evaluate_rank_point

    def slow(*args, **kwargs):
        time.sleep(sleep)
        return real(*args, **kwargs)

    monkeypatch.setattr(attack_metrics, "evaluate_rank_point", slow)
    registry.run("fig5", _tiny_config(tmp_path / "slow", **config))
    spans = read_run(tmp_path / "slow").spans
    (campaign,) = [e for e in spans if e["name"] == "engine.stream"]
    assert campaign["seconds"] >= 8 * sleep  # every checkpoint slept
    shards = [e for e in spans if e["name"] == "shard"]
    accumulate = [e for e in spans if e["name"] == "accumulate"]
    assert len(shards) == len(accumulate) == 4
    assert all(e["seconds"] < sleep for e in shards + accumulate)


# ----------------------------------------------------------------------
# Golden JSONL schema.
# ----------------------------------------------------------------------


def test_run_log_matches_golden_schema(tiny_runs, update_goldens):
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema"] == RUN_SCHEMA_VERSION
    record = read_run(tiny_runs / "w1")
    seen = set()
    for event in record.events:
        kind = event["type"]
        assert kind in golden["events"], f"unknown event type {kind!r}"
        missing = [f for f in golden["events"][kind] if f not in event]
        assert not missing, f"{kind} event missing fields: {missing}"
        seen.add(kind)
    assert seen == set(golden["events"]), "not every event type was emitted"
    missing = [f for f in golden["manifest"] if f not in record.manifest]
    assert not missing, f"manifest missing fields: {missing}"


def test_read_run_rejects_newer_schema(tmp_path):
    write_run_log(
        tmp_path,
        manifest=build_manifest(
            "fig5", scale="quick", seed=0, workers=1, shard_size=64
        ),
        roots=[],
        metrics={},
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["schema"] = RUN_SCHEMA_VERSION + 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="newer"):
        read_run(tmp_path)


def test_read_run_requires_log(tmp_path):
    with pytest.raises(ConfigurationError, match="no run log"):
        read_run(tmp_path / "nowhere")


# ----------------------------------------------------------------------
# Perfetto export.
# ----------------------------------------------------------------------


def test_chrome_trace_events(tiny_runs):
    trace = json.loads((tiny_runs / "w1" / "trace.json").read_text())
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert meta and spans
    assert all(e["name"] == "process_name" for e in meta)
    assert min(e["ts"] for e in spans) == 0  # re-based to run start
    assert all(e["dur"] >= 0 for e in spans)
    by_name = {e["name"] for e in spans}
    assert "run.fig5" in by_name
    assert "shard" in by_name


def test_chrome_trace_events_roundtrip_args():
    root = SpanRecord(
        name="root", start=100.0, seconds=1.0,
        attrs={"shard": 3}, counters={"items": 10},
    )
    events = chrome_trace_events([root])
    span = next(e for e in events if e["ph"] == "X")
    assert span["args"]["shard"] == 3
    assert span["args"]["items"] == 10


# ----------------------------------------------------------------------
# repro report: summary and regression diff.
# ----------------------------------------------------------------------


def test_summarize_run(tiny_runs):
    summary = summarize(tiny_runs / "w1")
    assert summary.experiment == "fig5"
    assert summary.workers == 1
    assert summary.n_items == TINY_FIG5["n_traces"]
    assert summary.stage_seconds  # aes/pdn/sensor/accumulate leaves
    assert "accumulate" in summary.stage_seconds
    assert summary.result_digest == result_digest(summary.metrics)
    assert any("wall" in line for line in summary.lines())


@pytest.mark.parametrize(
    "counts, expected",
    [
        # A warm replay read through from the remote tier: every shard
        # served, none of them from the local tier.
        (dict(hits=0, remote_served=3, misses=0, partial=0), "3/3 hits (100%)"),
        # A fan-out where one sensor's sub-blocks were warm: every
        # shard is a lookup, none a full hit.
        (dict(hits=0, remote_served=0, misses=0, partial=3), "0/3 hits (0%)"),
        (dict(hits=1, remote_served=1, misses=1, partial=1), "2/4 hits (50%)"),
    ],
)
def test_report_cache_line_counts_served_over_lookups(tmp_path, counts, expected):
    manifest = build_manifest(
        "fig5", scale="quick", seed=0, workers=1, shard_size=64
    )
    write_run_log(
        tmp_path, manifest=manifest,
        roots=[SpanRecord(name="run.fig5", seconds=1.0)],
        metrics={"rank": 1.0}, wall_seconds=1.0, n_items=10,
        cache=dict(
            enabled=True, bytes_read=0, bytes_written=0, hit_rate=0.0, **counts
        ),
    )
    lines = [l for l in summarize(tmp_path).lines() if "cache:" in l]
    assert len(lines) == 1
    assert f"cache: {expected}," in lines[0]


def test_diff_identical_runs_is_ok(tiny_runs):
    # A run diffed against itself is the exact-fixed-point case.
    report = diff_runs(tiny_runs / "w1", tiny_runs / "w1")
    assert report.config_match
    assert report.ok
    assert any("OK" in line for line in report.lines())
    # Across worker counts the timings jitter (tiny CI-sized runs), but
    # with timing thresholds relaxed the runs must compare clean: same
    # config hash, same result digest.
    report = diff_runs(
        tiny_runs / "w1", tiny_runs / "w2", threshold=100.0, min_seconds=100.0
    )
    assert report.config_match
    assert report.ok
    digest = next(
        v for v in report.verdicts if v.metric == "result_digest"
    )
    assert digest.kind == "ok"


def test_diff_flags_injected_stage_slowdown(tiny_runs):
    report = diff_runs(
        tiny_runs / "w1", tiny_runs / "slow", min_seconds=0.05
    )
    assert not report.ok
    flagged = {v.metric for v in report.regressions}
    assert "stage:pdn" in flagged
    # The sleep slows the stage but must not change the science.
    digest = next(
        v for v in report.verdicts if v.metric == "result_digest"
    )
    assert digest.kind == "ok"
    assert any("REGRESSION" in line for line in report.lines())


def test_diff_differing_results_is_fatal(tmp_path):
    manifest = build_manifest(
        "fig5", scale="quick", seed=0, workers=1, shard_size=64
    )
    roots = [SpanRecord(name="run.fig5", seconds=1.0)]
    write_run_log(
        tmp_path / "a", manifest=manifest, roots=roots,
        metrics={"rank": 1.0}, wall_seconds=1.0, n_items=10,
    )
    write_run_log(
        tmp_path / "b", manifest=manifest, roots=roots,
        metrics={"rank": 2.0}, wall_seconds=1.0, n_items=10,
    )
    report = diff_runs(tmp_path / "a", tmp_path / "b")
    assert not report.ok
    assert any(v.kind == "differs" for v in report.regressions)


def test_diff_different_configs_never_checks_digest(tmp_path):
    roots = [SpanRecord(name="run.fig5", seconds=1.0)]
    for seed, label in ((0, "a"), (1, "b")):
        write_run_log(
            tmp_path / label,
            manifest=build_manifest(
                "fig5", scale="quick", seed=seed, workers=1, shard_size=64
            ),
            roots=roots,
            metrics={"rank": float(seed)},
            wall_seconds=1.0,
            n_items=10,
        )
    report = diff_runs(tmp_path / "a", tmp_path / "b")
    assert not report.config_match
    assert report.ok  # different campaigns: timing context only
