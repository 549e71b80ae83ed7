"""Run-log summaries and two-run regression diffs.

:func:`summarize` reduces one run directory to the handful of numbers a
performance conversation needs (wall time, per-stage split, cache hit
rate, throughput, peak RSS, result digest, key-rank metrics);
:func:`diff_runs` compares two summaries under explicit thresholds and
returns machine-checkable verdicts — the engine behind ``repro report``
and CI's ``telemetry-regression`` job.

Verdict semantics:

* **results differ** — the result digests disagree while the manifests
  say the runs are the same configuration and seed.  Always fatal: the
  reproduction's first invariant is bit-identical science.
* **regression** — run B spends more than ``threshold`` (relative) over
  run A on the wall clock, one leaf span (stage), throughput, cache hit
  rate or peak RSS.  Sub-``min_seconds`` stages are ignored so
  micro-stage jitter cannot fail a build.
* **improvement / ok** — reported for context, never fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runtime.metrics import hit_rate
from repro.telemetry.metrics import histogram_quantile
from repro.telemetry.runlog import RunRecord, read_run

__all__ = ["RunSummary", "Verdict", "DiffReport", "summarize", "diff_runs"]

#: Quantiles reported and diffed from run-log latency histograms.
QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))

#: Default relative slowdown that counts as a regression (20%).
DEFAULT_THRESHOLD = 0.2

#: Stages whose cost never exceeded this many seconds in either run are
#: excluded from per-stage verdicts (pure timer jitter).
DEFAULT_MIN_SECONDS = 0.05

#: Peak-RSS growth below this many KiB is never flagged (allocator and
#: interpreter noise; ~64 MiB).
RSS_FLOOR_KB = 64 * 1024


@dataclass
class RunSummary:
    """The comparable facts of one run."""

    run_dir: str
    experiment: str
    scale: str
    seed: int
    workers: int
    manifest_hash: str
    result_digest: str
    metrics: Dict[str, Any]
    wall_seconds: float
    n_items: int
    items_per_second: float
    peak_rss_kb: Optional[int]
    #: Leaf-span seconds by stage name (aes/pdn/sensor/cache/...).
    stage_seconds: Dict[str, float]
    cache: Dict[str, Any]
    n_checkpoints: int = 0
    #: Live-registry histogram deltas from the run's
    #: ``metrics_snapshot`` event (series -> snapshot histogram dict).
    histograms: Dict[str, Any] = field(default_factory=dict)

    def quantiles(self, series: str) -> Dict[str, float]:
        """p50/p95/p99 of one recorded histogram series."""
        hist = self.histograms[series]
        return {
            label: histogram_quantile(hist, q) for label, q in QUANTILES
        }

    def lines(self) -> List[str]:
        """Human-readable report block."""
        out = [
            f"run {self.run_dir}: {self.experiment} "
            f"(scale={self.scale} seed={self.seed} workers={self.workers})",
            f"  wall {self.wall_seconds:.2f}s, {self.n_items} items "
            f"({self.items_per_second:,.0f}/s), "
            + (
                f"peak RSS {self.peak_rss_kb / 1024:.0f}MB"
                if self.peak_rss_kb
                else "peak RSS n/a"
            ),
        ]
        if self.stage_seconds:
            split = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(
                    self.stage_seconds.items(), key=lambda kv: -kv[1]
                )
            )
            out.append(f"  stages: {split}")
        if self.cache.get("enabled"):
            hits = hit_rate(self.cache)
            out.append(
                f"  cache: {hits.served}/{hits.lookups}"
                f" hits ({hits.rate:.0%}), "
                f"read {self.cache['bytes_read'] / 1e6:.1f}MB, "
                f"written {self.cache['bytes_written'] / 1e6:.1f}MB"
            )
        if self.n_checkpoints:
            out.append(f"  checkpoints: {self.n_checkpoints}")
        for series in sorted(self.histograms):
            if _is_latency_series(series) and self.histograms[series].get("count"):
                quantiles = self.quantiles(series)
                out.append(
                    f"  latency {series}: "
                    + " ".join(
                        f"{label}={value * 1e3:.2f}ms"
                        for label, value in quantiles.items()
                    )
                )
        for name, value in self.metrics.items():
            out.append(f"  metric {name} = {value}")
        out.append(f"  result digest {self.result_digest[:16]}…")
        return out


def _is_latency_series(series: str) -> bool:
    """Whether a histogram series records seconds (vs bytes/counts)."""
    return series.partition("{")[0].endswith("_seconds")


def summarize(run: Union[str, Path, RunRecord]) -> RunSummary:
    """Summarize one run directory (or an already-parsed record)."""
    record = run if isinstance(run, RunRecord) else read_run(run)
    start = record.one("run_start")
    end = record.one("run_end")
    metrics_event = record.one("metrics")
    cache = record.one("cache")
    snapshots = record.of_type("metrics_snapshot")
    histograms = (
        dict(snapshots[0].get("full", {}).get("histograms", {}))
        if snapshots
        else {}
    )
    stage_seconds: Dict[str, float] = {}
    for event in record.spans:
        if event.get("leaf"):
            name = event["name"]
            stage_seconds[name] = stage_seconds.get(name, 0.0) + event["seconds"]
    return RunSummary(
        run_dir=str(record.run_dir),
        experiment=start["experiment"],
        scale=start["scale"],
        seed=start["seed"],
        workers=start["workers"],
        manifest_hash=start["manifest_hash"],
        result_digest=metrics_event["result_digest"],
        metrics=dict(metrics_event["metrics"]),
        wall_seconds=float(end["wall_seconds"]),
        n_items=int(end["n_items"]),
        items_per_second=float(end["items_per_second"]),
        peak_rss_kb=end.get("peak_rss_kb"),
        stage_seconds=stage_seconds,
        cache={k: v for k, v in cache.items() if k not in ("type", "schema")},
        n_checkpoints=len(record.of_type("checkpoint")),
        histograms=histograms,
    )


@dataclass(frozen=True)
class Verdict:
    """One compared quantity and its outcome."""

    #: ``"ok"``, ``"improvement"``, ``"regression"`` or ``"differs"``.
    kind: str
    metric: str
    a: Any
    b: Any
    note: str = ""

    @property
    def fatal(self) -> bool:
        return self.kind in ("regression", "differs")

    def line(self) -> str:
        flag = {
            "ok": " ", "improvement": "+", "regression": "!", "differs": "!",
        }[self.kind]
        return f"  [{flag}] {self.metric}: {self.a} -> {self.b}  {self.note}".rstrip()


@dataclass
class DiffReport:
    """All verdicts of one two-run comparison."""

    a: RunSummary
    b: RunSummary
    verdicts: List[Verdict] = field(default_factory=list)
    config_match: bool = True

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.fatal]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def lines(self) -> List[str]:
        out = [
            f"diff {self.a.run_dir} (A) vs {self.b.run_dir} (B): "
            f"{self.a.experiment}"
            + ("" if self.config_match else "  [configs differ]")
        ]
        out.extend(v.line() for v in self.verdicts)
        if self.ok:
            out.append("verdict: OK — no regressions")
        else:
            names = ", ".join(v.metric for v in self.regressions)
            out.append(f"verdict: REGRESSION in {names}")
        return out


def _ratio_verdict(
    metric: str, a: float, b: float, threshold: float, unit: str = "s"
) -> Verdict:
    """Higher-is-worse comparison under a relative threshold."""
    if a <= 0:
        return Verdict("ok", metric, round(a, 4), round(b, 4))
    ratio = b / a
    note = f"{(ratio - 1) * 100:+.1f}%"
    if ratio > 1 + threshold:
        return Verdict(
            "regression", metric, f"{a:.3f}{unit}", f"{b:.3f}{unit}", note
        )
    if ratio < 1 - threshold:
        return Verdict(
            "improvement", metric, f"{a:.3f}{unit}", f"{b:.3f}{unit}", note
        )
    return Verdict("ok", metric, f"{a:.3f}{unit}", f"{b:.3f}{unit}", note)


def diff_runs(
    a: Union[str, Path, RunSummary],
    b: Union[str, Path, RunSummary],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> DiffReport:
    """Compare two runs; B is the candidate, A the baseline."""
    a = a if isinstance(a, RunSummary) else summarize(a)
    b = b if isinstance(b, RunSummary) else summarize(b)
    report = DiffReport(a=a, b=b, config_match=a.manifest_hash == b.manifest_hash)

    # 1. Scientific output: digests must match for identical configs.
    if report.config_match:
        if a.result_digest == b.result_digest:
            report.verdicts.append(
                Verdict("ok", "result_digest", a.result_digest[:12],
                        b.result_digest[:12], "bit-identical results")
            )
        else:
            report.verdicts.append(
                Verdict("differs", "result_digest", a.result_digest[:12],
                        b.result_digest[:12],
                        "results differ for the same configuration")
            )
    else:
        report.verdicts.append(
            Verdict("ok", "manifest_hash", a.manifest_hash[:12],
                    b.manifest_hash[:12],
                    "different configurations; timing diff only")
        )

    # 2. Wall clock and throughput.
    report.verdicts.append(
        _ratio_verdict("wall_seconds", a.wall_seconds, b.wall_seconds, threshold)
    )
    if a.items_per_second > 0 and b.items_per_second > 0:
        drop = 1 - b.items_per_second / a.items_per_second
        kind = "regression" if drop > threshold else (
            "improvement" if drop < -threshold else "ok"
        )
        report.verdicts.append(
            Verdict(kind, "items_per_second",
                    f"{a.items_per_second:,.0f}/s",
                    f"{b.items_per_second:,.0f}/s", f"{-drop * 100:+.1f}%")
        )

    # 3. Per-stage split: the verdict names the offending span.
    for name in sorted(set(a.stage_seconds) | set(b.stage_seconds)):
        sa = a.stage_seconds.get(name, 0.0)
        sb = b.stage_seconds.get(name, 0.0)
        if max(sa, sb) < min_seconds:
            continue
        report.verdicts.append(
            _ratio_verdict(f"stage:{name}", sa, sb, threshold)
        )

    # 4. Cache behaviour.
    if a.cache.get("enabled") and b.cache.get("enabled"):
        hr_a, hr_b = hit_rate(a.cache).rate, hit_rate(b.cache).rate
        kind = "regression" if hr_a - hr_b > 0.05 else "ok"
        report.verdicts.append(
            Verdict(kind, "cache_hit_rate", f"{hr_a:.2%}", f"{hr_b:.2%}")
        )

    # 5. Latency-histogram quantiles (metrics_snapshot events): the
    # tail, not just the mean.  Only series both runs recorded compare
    # meaningfully; the min_seconds floor keeps microsecond-scale
    # quantiles from tripping the relative threshold on jitter.
    for series in sorted(set(a.histograms) & set(b.histograms)):
        if not _is_latency_series(series):
            continue
        ha, hb = a.histograms[series], b.histograms[series]
        if not ha.get("count") or not hb.get("count"):
            continue
        for label, q in QUANTILES:
            qa = histogram_quantile(ha, q)
            qb = histogram_quantile(hb, q)
            if max(qa, qb) < min_seconds:
                continue
            report.verdicts.append(
                _ratio_verdict(f"{label}:{series}", qa, qb, threshold)
            )

    # 6. Peak RSS (floored: allocator noise is not a regression).
    if a.peak_rss_kb and b.peak_rss_kb:
        grew = b.peak_rss_kb - a.peak_rss_kb
        ratio = b.peak_rss_kb / a.peak_rss_kb
        kind = (
            "regression"
            if grew > RSS_FLOOR_KB and ratio > 1 + threshold
            else "ok"
        )
        report.verdicts.append(
            Verdict(kind, "peak_rss",
                    f"{a.peak_rss_kb / 1024:.0f}MB",
                    f"{b.peak_rss_kb / 1024:.0f}MB",
                    f"{(ratio - 1) * 100:+.1f}%")
        )

    # 7. Per-metric deltas (key-rank-at-N etc.) — informational; the
    # digest verdict above is what enforces equality.
    for name in sorted(set(a.metrics) | set(b.metrics)):
        va, vb = a.metrics.get(name), b.metrics.get(name)
        if va != vb:
            report.verdicts.append(Verdict("ok", f"metric:{name}", va, vb))
    return report
