"""Unified run telemetry: spans, run logs, trace export, reports.

One subsystem records what every run did and what it cost:

* :mod:`~repro.telemetry.spans` — hierarchical :class:`SpanRecord`
  trees (``engine.collect -> shard -> kernel stage -> cache lookup``)
  recorded lock-free per process and merged deterministically;
* :mod:`~repro.telemetry.manifest` — the self-describing run manifest
  (config hash, seed lineage, versions, host, git SHA);
* :mod:`~repro.telemetry.runlog` — the JSONL run log written next to
  results;
* :mod:`~repro.telemetry.metrics` — the process-wide live metrics
  registry (deterministic counters/gauges/histograms, Prometheus text
  exposition, mergeable snapshots);
* :mod:`~repro.telemetry.tracing` — cross-process trace-id propagation
  (``X-Repro-Trace``);
* :mod:`~repro.telemetry.perfetto` — Chrome trace-event export for
  Perfetto / chrome://tracing, plus cross-process trace stitching;
* :mod:`~repro.telemetry.report` — run summaries and threshold-based
  two-run regression diffs (``repro report``).

Zero third-party dependencies; recording costs <1% of a campaign and
never changes results — spans *are* the bookkeeping the engine always
kept, not a second copy of it.
"""

# Low layers of the package (kernels.profile, runtime.metrics) import
# repro.telemetry.spans, and importing any submodule executes this
# __init__ first — so the heavier siblings (manifest/runlog import the
# blockstore for canonical hashing) must load lazily or the package
# graph goes circular.  PEP 562 module __getattr__ keeps the public
# ``from repro.telemetry import X`` API while importing nothing eagerly.
from importlib import import_module

from repro.telemetry.spans import (  # noqa: F401  (stdlib-only, safe eager)
    SpanRecord,
    Telemetry,
    leaf_totals,
    walk_spans,
)

_LAZY = {
    "RUN_SCHEMA_VERSION": "manifest",
    "build_manifest": "manifest",
    "manifest_hash": "manifest",
    "METRICS_SCHEMA_VERSION": "metrics",
    "MetricsRegistry": "metrics",
    "get_registry": "metrics",
    "exponential_buckets": "metrics",
    "merge_snapshots": "metrics",
    "diff_snapshots": "metrics",
    "histogram_quantile": "metrics",
    "parse_prometheus": "metrics",
    "TRACE_HEADER": "tracing",
    "current_trace_id": "tracing",
    "new_trace_id": "tracing",
    "trace_scope": "tracing",
    "chrome_trace_events": "perfetto",
    "write_chrome_trace": "perfetto",
    "spans_from_log_events": "perfetto",
    "stitch_trace": "perfetto",
    "DiffReport": "report",
    "RunSummary": "report",
    "Verdict": "report",
    "diff_runs": "report",
    "summarize": "report",
    "MANIFEST_FILE": "runlog",
    "RUN_LOG_FILE": "runlog",
    "TRACE_FILE": "runlog",
    "RunRecord": "runlog",
    "read_run": "runlog",
    "result_digest": "runlog",
    "write_run_log": "runlog",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.telemetry' has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f"repro.telemetry.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "RUN_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MANIFEST_FILE",
    "RUN_LOG_FILE",
    "TRACE_FILE",
    "TRACE_HEADER",
    "MetricsRegistry",
    "get_registry",
    "exponential_buckets",
    "merge_snapshots",
    "diff_snapshots",
    "histogram_quantile",
    "parse_prometheus",
    "current_trace_id",
    "new_trace_id",
    "trace_scope",
    "spans_from_log_events",
    "stitch_trace",
    "SpanRecord",
    "Telemetry",
    "RunRecord",
    "RunSummary",
    "DiffReport",
    "Verdict",
    "build_manifest",
    "manifest_hash",
    "chrome_trace_events",
    "write_chrome_trace",
    "read_run",
    "result_digest",
    "write_run_log",
    "summarize",
    "diff_runs",
    "walk_spans",
    "leaf_totals",
]
