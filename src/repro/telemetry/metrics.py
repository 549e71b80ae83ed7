"""Process-wide live metrics: counters, gauges, histograms.

The fleet components (engine parent, ``repro serve``, ``repro cache
serve``) each hold one process-wide :class:`MetricsRegistry` and expose
it three ways:

* **Prometheus text exposition** (:meth:`MetricsRegistry.
  render_prometheus`) behind ``GET /metrics`` on the cache server and
  the ``metrics`` op on the service socket — scrapeable by any stock
  collector, parseable by :func:`parse_prometheus` for tests.
* **Snapshots** (:meth:`MetricsRegistry.snapshot`) — plain JSON dicts,
  schema-versioned, **mergeable** (:func:`merge_snapshots`) and
  **subtractable** (:func:`diff_snapshots`), so per-run deltas and
  cross-process fleet totals both fall out of the same representation.
* **Run-log events** — :func:`repro.experiments.registry.run` appends
  the run's snapshot delta to the JSONL run log (``metrics_snapshot``
  events, golden-pinned schema).

Determinism follows the PR-2 streaming-accumulator discipline:
histogram bucket boundaries are **fixed at registration** (exponential
ladders from :func:`exponential_buckets`, never data-dependent), so two
hosts observing the same values produce byte-identical snapshots and
bucket-wise addition is exact.  Metrics registered with
``deterministic=True`` promise their *values* are functions of the
configuration and seed alone (item counts, shard geometry, cache-tier
traffic) — never wall clock — and only those enter the deterministic
snapshot that the run log pins bit-identical across worker counts.
Gauges are point-in-time by nature and never deterministic.

Metrics are **default-on**; the registry's ``enabled`` flag (or
``REPRO_METRICS=0``) turns every mutation into an early-out no-op so
the overhead of the default can be measured — the acquisition benchmark
gates it below 2% of traces/sec.
"""

from __future__ import annotations

import math
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "exponential_buckets",
    "LATENCY_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "diff_snapshots",
    "histogram_quantile",
    "parse_prometheus",
]

#: Version of the snapshot dict layout (and of the run log's
#: ``metrics_snapshot`` event payload).  Bump on incompatible change.
METRICS_SCHEMA_VERSION = 1


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    The returned ladder is a constant of the code, never of the data —
    the invariant that makes histograms mergeable bucket-by-bucket and
    snapshots byte-stable across hosts.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ConfigurationError(
            f"exponential_buckets(start={start}, factor={factor}, count={count}) "
            "needs start > 0, factor > 1, count >= 1"
        )
    return tuple(start * factor**i for i in range(count))


#: Latency ladder in seconds: 100 µs … ~419 s, factor 4.
LATENCY_BUCKETS = exponential_buckets(1e-4, 4.0, 12)
#: Payload-size ladder in bytes: 1 KiB … 256 MiB, factor 4.
BYTES_BUCKETS = exponential_buckets(1024.0, 4.0, 10)
#: Item-count ladder: 1 … ~262k, factor 4.
COUNT_BUCKETS = exponential_buckets(1.0, 4.0, 10)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _validate_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ConfigurationError(
            f"metric name {name!r} must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _num(value: float) -> Any:
    """Canonical JSON-able number: int when integral (bit-stable)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return float(value)


class _Metric:
    """Shared machinery: label handling, per-series storage."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        deterministic: bool = False,
    ) -> None:
        self.registry = registry
        self.name = _validate_name(name)
        self.help = str(help)
        self.labelnames = tuple(str(l) for l in labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self.deterministic = bool(deterministic)
        self._lock = registry._lock

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[l]) for l in self.labelnames)

    def _series(self, key: Tuple[str, ...]) -> str:
        if not key:
            return self.name
        inner = ",".join(
            f'{l}="{v}"' for l, v in zip(self.labelnames, key)
        )
        return f"{self.name}{{{inner}}}"


class Counter(_Metric):
    """Monotonically increasing count (events, items, bytes)."""

    kind = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)


class Gauge(_Metric):
    """Point-in-time level (queue depth, in-flight requests).

    Never deterministic: gauges describe *now*, not the run.
    """

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        kwargs.pop("deterministic", None)
        super().__init__(*args, deterministic=False, **kwargs)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)


class _HistSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf overflow
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Distribution over a fixed exponential bucket ladder."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        deterministic: bool = False,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames, deterministic)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be finite and strictly "
                f"increasing, got {bounds}"
            )
        self.buckets = bounds
        self._series_data: Dict[Tuple[str, ...], _HistSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        value = float(value)
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series_data.get(key)
            if series is None:
                series = self._series_data[key] = _HistSeries(len(self.buckets))
            series.counts[idx] += 1
            series.sum += value
            series.count += 1

    @contextmanager
    def time(self, **labels: Any):
        """Observe the wall time of a block, in seconds."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0, **labels)


class MetricsRegistry:
    """One process's named metrics, snapshot- and scrape-able.

    ``enabled=None`` reads ``REPRO_METRICS`` (anything but ``"0"`` is
    on).  Registration is idempotent: asking for an existing name with
    the same kind returns the existing metric, so modules can register
    at import or first use without coordination.
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_METRICS", "1") != "0"
        self.enabled = bool(enabled)
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration --------------------------------------------------
    def _register(self, cls, name: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(self, name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        deterministic: bool = False,
    ) -> Counter:
        return self._register(
            Counter, name, help=help, labelnames=labelnames,
            deterministic=deterministic,
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        deterministic: bool = False,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help=help, labelnames=labelnames,
            deterministic=deterministic, buckets=buckets,
        )

    def reset(self) -> None:
        """Drop every metric (tests and benchmark isolation)."""
        with self._lock:
            self._metrics.clear()

    # -- export --------------------------------------------------------
    def snapshot(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """A plain-JSON view of every series.

        With ``deterministic_only`` the result contains exactly the
        metrics whose values are seed-determined (and no gauges), so it
        is bit-identical across worker counts and mergeable across
        processes of one fleet.
        """
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if deterministic_only and not metric.deterministic:
                    continue
                if isinstance(metric, Counter):
                    for key in sorted(metric._values):
                        counters[metric._series(key)] = _num(metric._values[key])
                elif isinstance(metric, Gauge):
                    if deterministic_only:
                        continue
                    for key in sorted(metric._values):
                        gauges[metric._series(key)] = _num(metric._values[key])
                elif isinstance(metric, Histogram):
                    for key in sorted(metric._series_data):
                        series = metric._series_data[key]
                        histograms[metric._series(key)] = {
                            "buckets": list(metric.buckets),
                            "counts": list(series.counts),
                            "sum": _num(series.sum),
                            "count": series.count,
                        }
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                if isinstance(metric, (Counter, Gauge)):
                    values = metric._values
                    if not values and not metric.labelnames:
                        lines.append(f"{metric.name} 0")
                    for key in sorted(values):
                        lines.append(
                            f"{metric._series(key)} {_format(values[key])}"
                        )
                elif isinstance(metric, Histogram):
                    for key in sorted(metric._series_data):
                        series = metric._series_data[key]
                        cumulative = 0
                        for bound, count in zip(metric.buckets, series.counts):
                            cumulative += count
                            lines.append(
                                f"{_bucket_series(metric, key, _format(bound))}"
                                f" {cumulative}"
                            )
                        cumulative += series.counts[-1]
                        lines.append(
                            f"{_bucket_series(metric, key, '+Inf')} {cumulative}"
                        )
                        suffix = _labels_suffix(metric, key)
                        lines.append(
                            f"{metric.name}_sum{suffix} {_format(series.sum)}"
                        )
                        lines.append(
                            f"{metric.name}_count{suffix} {series.count}"
                        )
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    return repr(_num(value))


def _labels_suffix(metric: _Metric, key: Tuple[str, ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{l}="{v}"' for l, v in zip(metric.labelnames, key))
    return f"{{{inner}}}"


def _bucket_series(metric: Histogram, key: Tuple[str, ...], le: str) -> str:
    pairs = [f'{l}="{v}"' for l, v in zip(metric.labelnames, key)]
    pairs.append(f'le="{le}"')
    return f"{metric.name}_bucket{{{','.join(pairs)}}}"


# ----------------------------------------------------------------------
# Snapshot algebra: merge (fleet totals) and diff (per-run deltas).
# ----------------------------------------------------------------------
def _check_schema(snap: Mapping[str, Any]) -> None:
    schema = snap.get("schema", METRICS_SCHEMA_VERSION)
    if schema > METRICS_SCHEMA_VERSION:
        raise ConfigurationError(
            f"metrics snapshot schema {schema} is newer than supported "
            f"({METRICS_SCHEMA_VERSION})"
        )


def merge_snapshots(*snaps: Mapping[str, Any]) -> Dict[str, Any]:
    """Bucket-wise / series-wise sum of snapshots (fleet roll-up).

    Counters and histogram counts add exactly; gauges add too (the
    fleet's total in-flight is the sum of each process's).  Histograms
    must share bucket ladders — guaranteed when both sides registered
    them from the same code.
    """
    out: Dict[str, Any] = {
        "schema": METRICS_SCHEMA_VERSION,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for snap in snaps:
        _check_schema(snap)
        for section in ("counters", "gauges"):
            for series, value in snap.get(section, {}).items():
                out[section][series] = _num(
                    out[section].get(series, 0) + value
                )
        for series, hist in snap.get("histograms", {}).items():
            acc = out["histograms"].get(series)
            if acc is None:
                out["histograms"][series] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": _num(hist["sum"]),
                    "count": int(hist["count"]),
                }
                continue
            if acc["buckets"] != list(hist["buckets"]):
                raise ConfigurationError(
                    f"cannot merge histogram {series!r}: bucket ladders differ"
                )
            acc["counts"] = [
                a + b for a, b in zip(acc["counts"], hist["counts"])
            ]
            acc["sum"] = _num(acc["sum"] + hist["sum"])
            acc["count"] = int(acc["count"] + hist["count"])
    for section in ("counters", "gauges", "histograms"):
        out[section] = dict(sorted(out[section].items()))
    return out


def diff_snapshots(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> Dict[str, Any]:
    """``after - before``, series-wise — the activity in between.

    Series absent from ``before`` count from zero; gauges are dropped
    (a level's delta is not a level).  This is how one run's metrics
    are extracted from a long-lived process registry.
    """
    _check_schema(before)
    _check_schema(after)
    out: Dict[str, Any] = {
        "schema": METRICS_SCHEMA_VERSION,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    b_counters = before.get("counters", {})
    for series, value in after.get("counters", {}).items():
        delta = _num(value - b_counters.get(series, 0))
        if delta:
            out["counters"][series] = delta
    b_hists = before.get("histograms", {})
    for series, hist in after.get("histograms", {}).items():
        prior = b_hists.get(series)
        if prior is None:
            counts = list(hist["counts"])
            total = int(hist["count"])
            span_sum = _num(hist["sum"])
        else:
            counts = [a - b for a, b in zip(hist["counts"], prior["counts"])]
            total = int(hist["count"] - prior["count"])
            span_sum = _num(hist["sum"] - prior["sum"])
        if total:
            out["histograms"][series] = {
                "buckets": list(hist["buckets"]),
                "counts": counts,
                "sum": span_sum,
                "count": total,
            }
    for section in ("counters", "histograms"):
        out[section] = dict(sorted(out[section].items()))
    return out


def histogram_quantile(hist: Mapping[str, Any], q: float) -> float:
    """Estimate quantile ``q`` from one snapshot histogram.

    Linear interpolation inside the containing bucket (the Prometheus
    ``histogram_quantile`` convention); the lowest bucket interpolates
    from zero, the overflow bucket reports the top finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile {q} must be in [0, 1]")
    counts = list(hist["counts"])
    bounds = list(hist["buckets"])
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):  # overflow bucket: no finite upper bound
                return float(bounds[-1])
            lo = 0.0 if i == 0 else bounds[i - 1]
            hi = bounds[i]
            frac = (rank - cumulative) / count
            return float(lo + (hi - lo) * min(max(frac, 0.0), 1.0))
        cumulative += count
    return float(bounds[-1])


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{series: value}`` (tests/scripts).

    Keeps full series keys (``name{label="v"}``) exactly as rendered;
    comments and blank lines are skipped.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            continue
        out[series] = float(value)
    return out


#: The process-wide default registry every component instruments.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (one per process, like logging's root)."""
    return _DEFAULT
