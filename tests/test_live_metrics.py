"""Unit tests for the live-metrics registry (repro.telemetry.metrics).

The determinism contract mirrors the streaming accumulators: fixed
bucket ladders, byte-stable snapshots, exact merge/diff algebra.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    diff_snapshots,
    exponential_buckets,
    get_registry,
    histogram_quantile,
    merge_snapshots,
    parse_prometheus,
)


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
def test_exponential_buckets_fixed_and_increasing():
    buckets = exponential_buckets(1e-4, 4.0, 12)
    assert buckets == LATENCY_BUCKETS
    assert all(b2 > b1 for b1, b2 in zip(buckets, buckets[1:]))
    assert len(BYTES_BUCKETS) == 10 and len(COUNT_BUCKETS) == 10


@pytest.mark.parametrize("bad", [(0, 2, 4), (1, 1.0, 4), (1, 2, 0)])
def test_exponential_buckets_rejects_degenerate(bad):
    with pytest.raises(ConfigurationError):
        exponential_buckets(*bad)


# ----------------------------------------------------------------------
# Counters / gauges / histograms
# ----------------------------------------------------------------------
def test_counter_inc_and_labels():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("repro_test_total", "help", labelnames=("verb",))
    c.inc(verb="GET")
    c.inc(2, verb="GET")
    c.inc(verb="PUT")
    assert c.value(verb="GET") == 3
    assert c.value(verb="PUT") == 1
    with pytest.raises(ConfigurationError):
        c.inc(-1, verb="GET")
    with pytest.raises(ConfigurationError):
        c.inc(1, wrong="label")


def test_gauge_set_inc_dec_and_inflight():
    reg = MetricsRegistry(enabled=True)
    g = reg.gauge("repro_test_inflight")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value() == 4


def test_histogram_observe_and_overflow():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    snap = reg.snapshot()
    hist = snap["histograms"]["repro_test_seconds"]
    assert hist["counts"] == [1, 1, 1, 1]
    assert hist["count"] == 4
    assert hist["sum"] == pytest.approx(55.55)


def test_histogram_rejects_unsorted_buckets():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(ConfigurationError):
        reg.histogram("repro_bad", buckets=(1.0, 1.0))


def test_registration_is_idempotent_but_kind_checked():
    reg = MetricsRegistry(enabled=True)
    a = reg.counter("repro_twice_total")
    assert reg.counter("repro_twice_total") is a
    with pytest.raises(ConfigurationError):
        reg.gauge("repro_twice_total")


def test_invalid_metric_name_rejected():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(ConfigurationError):
        reg.counter("9starts_with_digit")
    with pytest.raises(ConfigurationError):
        reg.counter("has-dash")


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("repro_off_total")
    h = reg.histogram("repro_off_seconds")
    g = reg.gauge("repro_off_gauge")
    c.inc()
    h.observe(1.0)
    g.set(9)
    snap = reg.snapshot()
    assert snap["counters"] == {} and snap["histograms"] == {}
    assert snap["gauges"] == {}


# ----------------------------------------------------------------------
# Snapshots: determinism, merge, diff
# ----------------------------------------------------------------------
def _populated(order="ab"):
    reg = MetricsRegistry(enabled=True)
    c = reg.counter(
        "repro_items_total", labelnames=("kind",), deterministic=True
    )
    h = reg.histogram(
        "repro_shard_items",
        deterministic=True,
        buckets=COUNT_BUCKETS,
    )
    t = reg.histogram("repro_wall_seconds")  # timing: not deterministic
    g = reg.gauge("repro_depth")
    for kind in order:
        c.inc(10, kind=kind)
    for v in (3, 17, 400):
        h.observe(v)
    t.observe(0.123)
    g.set(2)
    return reg


def test_snapshot_bit_identical_regardless_of_observation_order():
    a = json.dumps(_populated("ab").snapshot(), sort_keys=True)
    b = json.dumps(_populated("ba").snapshot(), sort_keys=True)
    assert a == b


def test_deterministic_snapshot_excludes_timing_and_gauges():
    snap = _populated().snapshot(deterministic_only=True)
    assert snap["schema"] == METRICS_SCHEMA_VERSION
    assert set(snap["counters"]) == {
        'repro_items_total{kind="a"}',
        'repro_items_total{kind="b"}',
    }
    assert set(snap["histograms"]) == {"repro_shard_items"}
    assert snap["gauges"] == {}


def test_snapshot_values_canonicalized_to_ints():
    reg = MetricsRegistry(enabled=True)
    reg.counter("repro_n_total").inc(2.0)
    snap = reg.snapshot()
    assert snap["counters"]["repro_n_total"] == 2
    assert isinstance(snap["counters"]["repro_n_total"], int)


def test_merge_snapshots_adds_exactly():
    a = _populated().snapshot()
    b = _populated().snapshot()
    merged = merge_snapshots(a, b)
    assert merged["counters"]['repro_items_total{kind="a"}'] == 20
    hist = merged["histograms"]["repro_shard_items"]
    assert hist["count"] == 6
    assert sum(hist["counts"]) == 6
    assert merged["gauges"]["repro_depth"] == 4


def test_merge_rejects_mismatched_ladders():
    a = _populated().snapshot()
    b = json.loads(json.dumps(a))
    b["histograms"]["repro_shard_items"]["buckets"][0] = 2.0
    with pytest.raises(ConfigurationError):
        merge_snapshots(a, b)


def test_diff_snapshots_is_the_per_run_delta():
    reg = _populated()
    before = reg.snapshot()
    reg.counter("repro_items_total", labelnames=("kind",)).inc(5, kind="a")
    reg.histogram("repro_shard_items", buckets=COUNT_BUCKETS).observe(9)
    after = reg.snapshot()
    delta = diff_snapshots(before, after)
    assert delta["counters"] == {'repro_items_total{kind="a"}': 5}
    assert delta["histograms"]["repro_shard_items"]["count"] == 1
    assert delta["gauges"] == {}
    # no activity -> empty delta
    assert diff_snapshots(after, after)["counters"] == {}
    assert diff_snapshots(after, after)["histograms"] == {}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_prometheus_parses_and_matches_snapshot():
    reg = _populated()
    text = reg.render_prometheus()
    assert "# TYPE repro_items_total counter" in text
    assert "# TYPE repro_wall_seconds histogram" in text
    parsed = parse_prometheus(text)
    assert parsed['repro_items_total{kind="a"}'] == 10
    assert parsed["repro_depth"] == 2
    # histogram buckets are cumulative and end at +Inf == _count
    assert parsed['repro_shard_items_bucket{le="+Inf"}'] == 3
    assert parsed["repro_shard_items_count"] == 3
    assert parsed["repro_shard_items_sum"] == 420


def test_render_prometheus_bucket_cumulativity():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
    for v in (0.01, 0.5, 2.0):
        h.observe(v)
    parsed = parse_prometheus(reg.render_prometheus())
    assert parsed['repro_lat_seconds_bucket{le="0.1"}'] == 1
    assert parsed['repro_lat_seconds_bucket{le="1"}'] == 2
    assert parsed['repro_lat_seconds_bucket{le="+Inf"}'] == 3


def test_unlabeled_counter_renders_zero_before_first_inc():
    reg = MetricsRegistry(enabled=True)
    reg.counter("repro_quiet_total", "never incremented")
    parsed = parse_prometheus(reg.render_prometheus())
    assert parsed["repro_quiet_total"] == 0


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
def test_histogram_quantile_interpolates():
    hist = {"buckets": [1.0, 2.0, 4.0], "counts": [0, 100, 0, 0],
            "sum": 150.0, "count": 100}
    # all mass in (1, 2]: p50 is the bucket midpoint
    assert histogram_quantile(hist, 0.5) == pytest.approx(1.5)
    assert histogram_quantile(hist, 0.0) == pytest.approx(1.0)
    assert histogram_quantile(hist, 1.0) == pytest.approx(2.0)


def test_histogram_quantile_overflow_and_empty():
    hist = {"buckets": [1.0, 2.0], "counts": [0, 0, 10], "sum": 50.0,
            "count": 10}
    assert histogram_quantile(hist, 0.99) == 2.0  # clamped to top bound
    empty = {"buckets": [1.0], "counts": [0, 0], "sum": 0.0, "count": 0}
    assert histogram_quantile(empty, 0.5) == 0.0
    with pytest.raises(ConfigurationError):
        histogram_quantile(hist, 1.5)


def test_get_registry_is_process_wide_singleton():
    assert get_registry() is get_registry()
