"""Structured JSONL run logs.

A run directory is the durable, machine-readable record of one
experiment run::

    <run_dir>/manifest.json   what ran, where, from which seed
    <run_dir>/run.jsonl       one JSON event per line (schema below)
    <run_dir>/trace.json      optional Chrome/Perfetto trace export

Event schema (version :data:`~repro.telemetry.manifest.
RUN_SCHEMA_VERSION`) — every line carries ``type`` and ``schema``:

``run_start``
    ``experiment``, ``scale``, ``seed``, ``workers``,
    ``manifest_hash``, ``ts`` (epoch seconds).
``span``
    One line per span in deterministic pre-order: ``path`` (slash-
    joined ancestry), ``name``, ``depth``, ``leaf`` (no children —
    where time is actually spent), ``start``, ``seconds``, ``attrs``,
    ``counters``, ``pid``.
``checkpoint``
    Streamed-attack checkpoint: ``path``, ``n_traces``, ``counters``
    (accumulator state counters when the consumer exposes them).
``metrics``
    The experiment's flat summary metrics plus ``result_digest`` — the
    canonical hash of those metrics, bit-identical across runs exactly
    when the scientific output is.
``metrics_snapshot``
    The run's live-registry delta (:mod:`repro.telemetry.metrics`):
    ``snapshot`` holds the deterministic series only (bit-identical
    across worker counts for a fixed seed), ``full`` adds the timing
    histograms and wall-clock-dependent counters.
``cache``
    Block-cache totals for the run: ``enabled``, one key per
    :data:`repro.runtime.metrics.CACHE_COUNTS` count and ``hit_rate``
    (:func:`repro.runtime.metrics.hit_rate`).  With the cache off only
    ``enabled``, ``hits``, ``misses``, ``hit_rate``, ``bytes_read`` and
    ``bytes_written`` are written, all zero.
``run_end``
    ``wall_seconds``, ``n_items``, ``items_per_second``,
    ``peak_rss_kb`` (self + children max RSS), ``status``.

The golden-schema test (``tests/golden/run_log_schema.json``) asserts
these fields exist on every emitted event, so a field can only be
removed by bumping the schema version deliberately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.telemetry.manifest import RUN_SCHEMA_VERSION, manifest_hash
from repro.telemetry.spans import SpanRecord, walk_spans
from repro.traces.blockstore import block_key

__all__ = [
    "MANIFEST_FILE",
    "RUN_LOG_FILE",
    "TRACE_FILE",
    "RunRecord",
    "peak_rss_kb",
    "result_digest",
    "write_run_log",
    "read_run",
]

MANIFEST_FILE = "manifest.json"
RUN_LOG_FILE = "run.jsonl"
TRACE_FILE = "trace.json"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set of this process and its reaped children (KiB).

    ``None`` where :mod:`resource` is unavailable (non-POSIX).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only repo, but be safe
        return None
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(self_kb, child_kb))


def result_digest(metrics: Mapping[str, Any]) -> str:
    """Canonical hash of an experiment's summary metrics.

    Two runs produce the same digest exactly when their scientific
    output (key ranks, correlations, error rates) is identical — the
    first thing ``repro report diff`` checks.
    """
    return block_key({"result-metrics": dict(metrics)})


def _span_events(roots: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Flatten a span forest into deterministic pre-order event dicts."""
    events: List[Dict[str, Any]] = []
    for path, depth, rec in walk_spans(list(roots)):
        if rec.name == "checkpoint":
            events.append(
                {
                    "type": "checkpoint",
                    "schema": RUN_SCHEMA_VERSION,
                    "path": path,
                    "n_traces": int(rec.attrs.get("n_traces", 0)),
                    "counters": dict(rec.counters),
                }
            )
        else:
            events.append(
                {
                    "type": "span",
                    "schema": RUN_SCHEMA_VERSION,
                    "path": path,
                    "name": rec.name,
                    "depth": depth,
                    "leaf": not rec.children,
                    "start": rec.start,
                    "seconds": rec.seconds,
                    "attrs": dict(rec.attrs),
                    "counters": dict(rec.counters),
                    "pid": rec.pid,
                }
            )
    return events


def write_run_log(
    run_dir: Union[str, Path],
    *,
    manifest: Mapping[str, Any],
    roots: Sequence[SpanRecord],
    metrics: Mapping[str, Any],
    cache: Optional[Mapping[str, Any]] = None,
    wall_seconds: float = 0.0,
    n_items: int = 0,
    status: str = "ok",
    metrics_snapshot: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write ``manifest.json`` + ``run.jsonl`` into ``run_dir``.

    Returns the run-log path.  The directory is created if needed; an
    existing log is overwritten (a run directory describes one run).
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / MANIFEST_FILE).write_text(
        json.dumps(dict(manifest), indent=2, sort_keys=True, default=str) + "\n"
    )
    config = manifest.get("config", {})
    start = min((r.start for r in roots), default=0.0)
    events: List[Dict[str, Any]] = [
        {
            "type": "run_start",
            "schema": RUN_SCHEMA_VERSION,
            "experiment": config.get("experiment", ""),
            "scale": config.get("scale", ""),
            "seed": config.get("seed", 0),
            "workers": manifest.get("workers", 1),
            "manifest_hash": manifest_hash(manifest),
            "ts": start,
        }
    ]
    events.extend(_span_events(roots))
    events.append(
        {
            "type": "metrics",
            "schema": RUN_SCHEMA_VERSION,
            "metrics": dict(metrics),
            "result_digest": result_digest(metrics),
        }
    )
    if metrics_snapshot is not None:
        events.append(
            {
                "type": "metrics_snapshot",
                "schema": RUN_SCHEMA_VERSION,
                "snapshot": dict(metrics_snapshot.get("snapshot") or {}),
                "full": dict(metrics_snapshot.get("full") or {}),
            }
        )
    events.append(
        {
            "type": "cache",
            "schema": RUN_SCHEMA_VERSION,
            **(dict(cache) if cache else {
                "enabled": False, "hits": 0, "misses": 0,
                "hit_rate": 0.0, "bytes_read": 0, "bytes_written": 0,
            }),
        }
    )
    rate = n_items / wall_seconds if wall_seconds > 0 else 0.0
    events.append(
        {
            "type": "run_end",
            "schema": RUN_SCHEMA_VERSION,
            "wall_seconds": wall_seconds,
            "n_items": int(n_items),
            "items_per_second": rate,
            "peak_rss_kb": peak_rss_kb(),
            "status": status,
        }
    )
    log_path = run_dir / RUN_LOG_FILE
    with log_path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
    return log_path


@dataclass
class RunRecord:
    """One parsed run directory (manifest + ordered events)."""

    run_dir: Path
    manifest: Dict[str, Any]
    events: List[Dict[str, Any]] = field(default_factory=list)

    def of_type(self, kind: str) -> List[Dict[str, Any]]:
        """All events of one ``type``, in log order."""
        return [e for e in self.events if e.get("type") == kind]

    def one(self, kind: str) -> Dict[str, Any]:
        """The single event of one ``type`` (raises when absent)."""
        found = self.of_type(kind)
        if not found:
            raise ConfigurationError(
                f"run log {self.run_dir} has no {kind!r} event"
            )
        return found[0]

    @property
    def spans(self) -> List[Dict[str, Any]]:
        return self.of_type("span")

    @property
    def manifest_hash(self) -> str:
        return self.one("run_start")["manifest_hash"]


def read_run(run_dir: Union[str, Path]) -> RunRecord:
    """Parse a run directory written by :func:`write_run_log`."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_FILE
    log_path = run_dir / RUN_LOG_FILE
    if not log_path.is_file():
        raise ConfigurationError(f"no run log at {log_path}")
    manifest = (
        json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
    )
    schema = manifest.get("schema", RUN_SCHEMA_VERSION)
    if schema > RUN_SCHEMA_VERSION:
        raise ConfigurationError(
            f"run log schema {schema} is newer than supported "
            f"({RUN_SCHEMA_VERSION}); upgrade repro to read {run_dir}"
        )
    events = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line.strip()
    ]
    return RunRecord(run_dir=run_dir, manifest=manifest, events=events)
