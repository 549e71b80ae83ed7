"""Command-line entry point: run any reproduced experiment.

Usage::

    python -m repro.cli list
    python -m repro.cli fig3
    python -m repro.cli table1 --workers 4 --progress
    python -m repro.cli fig5 --cache-dir ~/.cache/repro-blocks
    python -m repro.cli fig5 --run-dir runs/a --trace-out trace.json
    python -m repro.cli cache stats --cache-dir ~/.cache/repro-blocks
    python -m repro.cli report summary runs/a
    python -m repro.cli report diff runs/a runs/b
    python -m repro.cli report trace runs/svc/job-000001 --trace-log cache-trace.jsonl
    python -m repro.cli top --once
    python -m repro.cli serve --run-root runs/service &
    python -m repro.cli submit fig5 --tenant alice --watch
    python -m repro.cli status job-000001
    REPRO_FULL=1 python -m repro.cli all

Experiments are resolved through :mod:`repro.experiments.registry` and
run on the parallel acquisition runtime (:class:`repro.runtime.Engine`).
Results are deterministic in ``--seed`` at any ``--workers`` count, and
— when ``--cache-dir`` (or ``REPRO_CACHE_DIR``) enables the trace block
cache — independent of cache state: a warm cache only changes wall
clock.  The ``cache`` subcommand inspects and maintains a store
(``stats`` / ``verify`` / ``clear``); the ``report`` subcommand
summarizes a telemetry run directory (``--run-dir``) and diffs two runs
with threshold-based regression verdicts.  The campaign-service
subcommands (``serve`` plus the thin client ``submit`` / ``status`` /
``watch`` / ``cancel`` / ``jobs``) run experiments as
admission-controlled multi-tenant jobs over a unix socket
(:mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _default_scale() -> str:
    return "paper" if os.environ.get("REPRO_FULL", "0") == "1" else "quick"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce LeakyDSP (DAC 2025) experiments on the simulated "
            "FPGA substrate.  Set REPRO_FULL=1 (or --scale paper) for "
            "paper-scale workloads."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment to run (see 'list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="acquisition worker processes (default: 1, the serial path)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print shard-level progress while acquiring",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default=None,
        help="workload scale (default: quick, or paper when REPRO_FULL=1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed; pins the whole run at any worker count",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=4096,
        help="traces/readouts per engine shard",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "traces per accumulator update in streaming attacks "
            "(default: whole shard segments; any value is bit-identical)"
        ),
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help=(
            "write the telemetry run record (manifest.json, run.jsonl, "
            "trace.json) into this directory ('all' nests one "
            "subdirectory per experiment); compare records with "
            "'repro report diff'"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "export the run's span tree as a Chrome trace-event file "
            "loadable in Perfetto (https://ui.perfetto.dev) or "
            "chrome://tracing"
        ),
    )
    parser.add_argument(
        "--schedule",
        choices=("stealing", "static"),
        default="stealing",
        help=(
            "shard dispatch: 'stealing' (shared queue, cache-aware "
            "order, remote prefetch overlap) or 'static' (contiguous "
            "per-worker pre-partition); bit-identical results either way"
        ),
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        help=(
            "fleet trace correlation id (default: $REPRO_TRACE_ID); "
            "stamped on the run's spans and every remote-cache request "
            "so 'repro report trace' can stitch one cross-process "
            "timeline; never part of the run's identity"
        ),
    )
    _add_cache_arguments(parser)
    return parser


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "trace block cache directory (default: $REPRO_CACHE_DIR, "
            "else no cache); bit-identical results either way"
        ),
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="LRU size cap for the block cache (default: unlimited)",
    )
    parser.add_argument(
        "--remote-cache",
        default=None,
        help=(
            "URL of a 'repro cache serve' artifact server (default: "
            "$REPRO_REMOTE_CACHE, else no remote tier); local misses "
            "read through it, acquired blocks publish back write-"
            "behind; digest-verified, bit-identical results either way"
        ),
    )


def build_cache_parser() -> argparse.ArgumentParser:
    """Parser of the ``cache`` maintenance subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Inspect and maintain a trace block cache directory, or "
            "serve one to a fleet over HTTP."
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "verify", "clear", "serve"),
        help=(
            "stats: block count and size (plus the remote tier's when "
            "--remote-cache is set); verify: re-check every block's "
            "digest; clear: delete all blocks; serve: run the "
            "content-addressed artifact server on --cache-dir"
        ),
    )
    parser.add_argument(
        "--delete-bad",
        action="store_true",
        help="with 'verify': delete blocks that fail the check",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="with 'serve': bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=9931,
        help="with 'serve': TCP port, 0 picks one (default: 9931)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="with 'serve': log every request to stderr",
    )
    parser.add_argument(
        "--trace-log",
        default=None,
        help=(
            "with 'serve': append a span-event JSONL line for every "
            "traced request (X-Repro-Trace header) to this file; feed "
            "it to 'repro report trace' to stitch the fleet timeline"
        ),
    )
    _add_cache_arguments(parser)
    return parser


def _cache_main(argv) -> int:
    """The ``repro cache stats|verify|clear|serve`` maintenance entry."""
    args = build_cache_parser().parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    if args.action == "serve":
        from repro.traces.store_backends import CacheServer

        with CacheServer(
            cache_dir,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            trace_log=args.trace_log,
        ) as server:
            print(
                f"serving {cache_dir} at {server.url} "
                f"({server.store.stats().n_blocks} blocks); Ctrl-C to stop",
                flush=True,
            )
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("stopping", file=sys.stderr)
        return 0
    from repro.traces.blockstore import BlockStore

    store = BlockStore(cache_dir, max_bytes=args.cache_max_bytes)
    if args.action == "stats":
        stats = store.stats()
        print(f"{store.root}: {stats.summary()}")
        remote = args.remote_cache or os.environ.get("REPRO_REMOTE_CACHE")
        if remote:
            from repro.traces.store_backends import HTTPBackend

            backend = HTTPBackend(remote)
            try:
                remote_stats = backend.stats()
            except Exception as exc:
                print(f"{remote}: unreachable ({exc})", file=sys.stderr)
                return 1
            print(
                f"{remote}: {remote_stats.get('n_blocks', 0)} blocks, "
                f"{remote_stats.get('total_bytes', 0) / 1e6:.1f}MB "
                f"(counters: {remote_stats.get('counters', {})})"
            )
        return 0
    if args.action == "verify":
        report = store.verify(delete_bad=args.delete_bad)
        print(f"{store.root}: {report.n_ok} blocks ok, {len(report.bad)} bad")
        for line in report.bad:
            print(f"  BAD {line}")
        return 0 if report.ok else 1
    removed = store.clear()
    print(f"{store.root}: removed {removed} blocks")
    return 0


def build_service_parser() -> argparse.ArgumentParser:
    """Parser of the campaign-service subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Campaign service: 'serve' runs the multi-tenant job "
            "service on a unix socket; the thin client subcommands "
            "(submit/status/watch/cancel/jobs) talk to it."
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)

    def add_socket_argument(sub_parser):
        sub_parser.add_argument(
            "--socket",
            default=None,
            help=(
                "service socket path (default: $REPRO_SERVICE_SOCKET, "
                "else ./repro-service.sock)"
            ),
        )

    serve = sub.add_parser("serve", help="run the campaign service")
    add_socket_argument(serve)
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="concurrent campaign slots (default: 2)",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=8,
        help="per-tenant quota: max queued+running jobs (default: 8)",
    )
    serve.add_argument(
        "--run-root",
        default=None,
        help=(
            "write each job's telemetry run record (manifest + "
            "run.jsonl) under <run-root>/<job id>; inspect with "
            "'repro report summary'"
        ),
    )
    _add_cache_arguments(serve)

    submit = sub.add_parser("submit", help="submit a campaign job")
    add_socket_argument(submit)
    submit.add_argument("experiment", help="registered experiment name")
    submit.add_argument("--tenant", default="default", help="tenant name")
    submit.add_argument(
        "--scale", choices=("quick", "paper"), default="quick"
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--shard-size", type=int, default=4096)
    submit.add_argument("--chunk-size", type=int, default=None)
    submit.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "experiment option override (repeatable); VALUE is parsed "
            "as JSON, falling back to a plain string"
        ),
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stay connected and stream the job's events to completion",
    )

    status = sub.add_parser("status", help="one job's snapshot")
    status.add_argument("job_id")
    watch = sub.add_parser("watch", help="stream a job's events")
    watch.add_argument("job_id")
    cancel = sub.add_parser("cancel", help="request job cancellation")
    cancel.add_argument("job_id")
    jobs = sub.add_parser("jobs", help="list all jobs")
    ping = sub.add_parser("ping", help="service liveness and stats")
    shutdown = sub.add_parser("shutdown", help="drain and stop the service")
    for sub_parser in (status, watch, cancel, jobs, ping, shutdown):
        add_socket_argument(sub_parser)
    return parser


def _parse_option(text: str):
    """``KEY=VALUE`` with a JSON value, falling back to a string."""
    import json

    key, sep, value = text.partition("=")
    if not sep:
        raise SystemExit(f"bad --option {text!r}: expected KEY=VALUE")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _print_event(event: dict) -> None:
    kind = event.get("kind")
    data = event.get("data", {})
    if kind == "checkpoint":
        print(
            f"  checkpoint {data.get('placement', '?')} "
            f"n={data.get('n_traces')} "
            f"log2_rank<={data.get('log2_upper'):.2f}"
            + (" (broken)" if data.get("recovered") else "")
        )
    elif kind == "state":
        print(f"  state -> {data.get('state')}")
    else:
        print(f"  {kind}: {data.get('kind')} {data.get('done')}/{data.get('total')}")


def _service_main(argv) -> int:
    """The ``repro serve|submit|status|watch|cancel|jobs`` entry."""
    args = build_service_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        if args.action == "serve":
            import asyncio

            from repro.service.server import serve as serve_async

            asyncio.run(
                serve_async(
                    socket_path=args.socket,
                    workers=args.service_workers,
                    cache_dir=args.cache_dir,
                    cache_max_bytes=args.cache_max_bytes,
                    remote_cache=args.remote_cache
                    or os.environ.get("REPRO_REMOTE_CACHE") or None,
                    run_root=args.run_root,
                    max_active=args.max_active,
                )
            )
            return 0

        from repro.service.client import ServiceClient

        client = ServiceClient(args.socket)
        if args.action == "submit":
            options = dict(_parse_option(o) for o in args.option)
            kwargs = dict(
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                shard_size=args.shard_size,
                chunk_size=args.chunk_size,
                options=options,
            )
            if args.watch:
                return _drain_stream(
                    client.submit_and_watch(args.tenant, args.experiment, **kwargs)
                )
            job = client.submit(args.tenant, args.experiment, **kwargs)
            print(f"{job['id']} {job['state']} key={job['key'][:12]}")
            if job.get("coalesced_into"):
                print(f"  coalesced into {job['coalesced_into']}")
            return 0
        if args.action == "status":
            job = client.status(args.job_id)
            print(
                f"{job['id']} {job['state']} tenant={job['tenant']} "
                f"experiment={job['experiment']} "
                f"checkpoints={job['n_checkpoints']}"
            )
            if job.get("error"):
                print(f"  error: {job['error']}")
            if job.get("result"):
                metrics = job["result"].get("metrics", {})
                print("  metrics: " + ", ".join(f"{k}={v}" for k, v in metrics.items()))
                if job["result"].get("run_dir"):
                    print(f"  run record: {job['result']['run_dir']}")
            return 0
        if args.action == "watch":
            return _drain_stream(client.watch(args.job_id))
        if args.action == "cancel":
            response = client.cancel(args.job_id)
            job = response["job"]
            verb = "cancelling" if response["cancelled"] else "already terminal"
            print(f"{job['id']} {verb} (state={job['state']})")
            return 0
        if args.action == "jobs":
            for job in client.jobs():
                print(
                    f"{job['id']} {job['state']:<9} tenant={job['tenant']} "
                    f"{job['experiment']} seed={job['seed']}"
                )
            return 0
        if args.action == "ping":
            stats = client.ping()
            print(f"service up: {stats}")
            return 0
        client.shutdown()
        print("service stopping")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def _drain_stream(stream) -> int:
    """Print a watch stream; exit code reflects the job's final state."""
    final = None
    for line in stream:
        if "event" in line:
            _print_event(line["event"])
        else:
            final = line
    if final is None:
        print("error: stream ended without a final response", file=sys.stderr)
        return 2
    if not final.get("ok"):
        print(f"error: {final.get('error')}", file=sys.stderr)
        return 2
    job = final["job"]
    print(f"{job['id']} finished: {job['state']}")
    return 0 if job["state"] == "completed" else 1


def build_top_parser() -> argparse.ArgumentParser:
    """Parser of the ``top`` live fleet-metrics subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Live fleet dashboard: tenant queues, job throughput and "
            "latency quantiles from a running 'repro serve', plus "
            "cache-tier traffic from a 'repro cache serve' /metrics "
            "scrape.  Refreshes in place until Ctrl-C."
        ),
    )
    parser.add_argument(
        "--socket",
        default=None,
        help=(
            "service socket path (default: $REPRO_SERVICE_SOCKET, else "
            "./repro-service.sock)"
        ),
    )
    parser.add_argument(
        "--remote-cache",
        default=None,
        help=(
            "cache server URL to scrape /metrics from (default: "
            "$REPRO_REMOTE_CACHE, else no cache panel)"
        ),
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds (default: 2)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (scripts and CI)",
    )
    return parser


def _counter_sum(counters: dict, name: str) -> float:
    """Sum a counter across its label series in a metrics snapshot."""
    return sum(
        value
        for series, value in counters.items()
        if series == name or series.startswith(name + "{")
    )


def _label_values(counters: dict, name: str) -> dict:
    """``{label-suffix: value}`` of one metric's series."""
    out = {}
    prefix = name + "{"
    for series, value in counters.items():
        if series.startswith(prefix):
            out[series[len(prefix):-1]] = value
    return out


def _top_panels(stats, snapshot, remote, rates) -> list:
    """Render one dashboard frame as text lines."""
    from repro.telemetry.metrics import histogram_quantile

    lines = []
    if stats is not None:
        jobs = stats.get("jobs", {})
        order = ("queued", "running", "completed", "failed", "cancelled")
        lines.append(
            "jobs      "
            + "  ".join(f"{state} {jobs.get(state, 0)}" for state in order)
            + f"  |  pending {stats.get('pending', 0)}"
        )
        queued = stats.get("queued_by_tenant", {})
        active = stats.get("active_by_tenant", {})
        tenants = sorted(set(queued) | set(active))
        if tenants:
            lines.append(
                "tenants   "
                + "  ".join(
                    f"{t}: queued {queued.get(t, 0)} active {active.get(t, 0)}"
                    for t in tenants
                )
            )
    if snapshot is not None:
        counters = snapshot.get("counters", {})
        hists = snapshot.get("histograms", {})
        items = _counter_sum(counters, "repro_engine_items_total")
        line = (
            f"engine    items {items:,.0f}"
            f"  shards {_counter_sum(counters, 'repro_engine_shards_total'):,.0f}"
            f"  steals {_counter_sum(counters, 'repro_engine_steals_total'):,.0f}"
        )
        if rates.get("items_per_s") is not None:
            line += f"  |  {rates['items_per_s']:,.0f} items/s"
        lines.append(line)
        latency_bits = []
        for label, series in (
            ("run", "repro_service_run_seconds"),
            ("queue-wait", "repro_service_queue_wait_seconds"),
        ):
            hist = hists.get(series)
            if hist and hist.get("count"):
                p50 = histogram_quantile(hist, 0.5)
                p95 = histogram_quantile(hist, 0.95)
                latency_bits.append(f"{label} p50 {p50:.2f}s p95 {p95:.2f}s")
        if latency_bits:
            lines.append("latency   " + "  |  ".join(latency_bits))
        lookups = {
            key.partition("=")[2].strip('"'): value
            for key, value in _label_values(
                counters, "repro_cache_lookups_total"
            ).items()
        }
        if lookups:
            lines.append(
                "cache     "
                + "  ".join(
                    f"{outcome} {value:,.0f}"
                    for outcome, value in sorted(lookups.items())
                )
            )
    if remote is not None:
        served = _counter_sum(remote, "repro_cache_server_requests_total")
        blocks = remote.get("repro_cache_server_blocks", 0)
        stored = remote.get("repro_cache_server_stored_bytes", 0)
        inflight = remote.get("repro_cache_server_inflight", 0)
        wire_in = remote.get('repro_cache_server_bytes_total{direction="in"}', 0)
        wire_out = remote.get('repro_cache_server_bytes_total{direction="out"}', 0)
        lines.append(
            f"cache srv {served:,.0f} requests  inflight {inflight:,.0f}"
            f"  |  {blocks:,.0f} blocks {stored / 1e6:,.1f}MB stored"
            f"  |  wire in {wire_in / 1e6:,.1f}MB out {wire_out / 1e6:,.1f}MB"
        )
    return lines


def _top_main(argv) -> int:
    """The ``repro top`` live dashboard entry."""
    args = build_top_parser().parse_args(argv)
    from repro.errors import ReproError, ServiceError
    from repro.service.client import ServiceClient

    remote_url = args.remote_cache or os.environ.get("REPRO_REMOTE_CACHE")
    client = ServiceClient(args.socket, timeout=10.0)
    prev_items = None
    prev_t = None
    while True:
        stats = snapshot = remote = None
        errors = []
        try:
            stats = client.ping()
            snapshot = client.metrics()["metrics"]
        except ServiceError as exc:
            errors.append(str(exc))
        if remote_url:
            from repro.telemetry.metrics import parse_prometheus
            from repro.traces.store_backends import HTTPBackend

            try:
                status, body = HTTPBackend(remote_url)._request("GET", "/metrics")
                if status == 200:
                    remote = parse_prometheus(body.decode())
                else:
                    errors.append(f"{remote_url}/metrics answered {status}")
            except ReproError as exc:
                errors.append(str(exc))
        rates = {}
        now = time.monotonic()
        if snapshot is not None:
            items = _counter_sum(
                snapshot.get("counters", {}), "repro_engine_items_total"
            )
            if prev_items is not None and now > prev_t:
                rates["items_per_s"] = max(0.0, items - prev_items) / (
                    now - prev_t
                )
            prev_items, prev_t = items, now
        frame = _top_panels(stats, snapshot, remote, rates)
        if not frame and errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            return 2
        if not args.once:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
        print(f"repro top — {time.strftime('%H:%M:%S')}")
        for line in frame:
            print(f"  {line}")
        for error in errors:
            print(f"  [unreachable] {error}")
        sys.stdout.flush()
        if args.once:
            return 0
        try:
            time.sleep(max(args.interval, 0.1))
        except KeyboardInterrupt:
            return 0


def build_report_parser() -> argparse.ArgumentParser:
    """Parser of the ``report`` run-telemetry subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description=(
            "Summarize a telemetry run directory (written with "
            "--run-dir) or diff two runs with threshold-based "
            "regression verdicts."
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)
    summary = sub.add_parser(
        "summary", help="print wall time, stage split, cache and metrics"
    )
    summary.add_argument("run_dir", help="run directory (manifest + run.jsonl)")
    diff = sub.add_parser(
        "diff",
        help=(
            "compare candidate run B against baseline run A; exits "
            "non-zero on a regression or on differing results"
        ),
    )
    diff.add_argument("run_a", help="baseline run directory (A)")
    diff.add_argument("run_b", help="candidate run directory (B)")
    diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative slowdown that counts as a regression (default 0.2)",
    )
    diff.add_argument(
        "--min-seconds",
        type=float,
        default=None,
        help=(
            "ignore stages under this many seconds in both runs "
            "(default 0.05; timer jitter)"
        ),
    )
    trace = sub.add_parser(
        "trace",
        help=(
            "stitch run directories and cache-server trace logs into "
            "one cross-process Perfetto timeline"
        ),
    )
    trace.add_argument(
        "run_dirs",
        nargs="+",
        help="run directories (manifest + run.jsonl) to include",
    )
    trace.add_argument(
        "--trace-log",
        action="append",
        default=[],
        help=(
            "cache-server request trace log (written by 'repro cache "
            "serve --trace-log'); repeatable"
        ),
    )
    trace.add_argument(
        "--trace-id",
        default=None,
        help=(
            "only include spans of this fleet trace id (default: the "
            "first trace id found in the run logs; spans without an id "
            "are always kept)"
        ),
    )
    trace.add_argument(
        "-o",
        "--out",
        default="fleet-trace.json",
        help="output Chrome trace file (default: fleet-trace.json)",
    )
    return parser


def _report_main(argv) -> int:
    """The ``repro report summary|diff`` telemetry entry."""
    args = build_report_parser().parse_args(argv)
    from repro.errors import ReproError
    from repro.telemetry import report as report_mod
    from repro.telemetry.report import diff_runs, summarize

    try:
        if args.action == "summary":
            for line in summarize(args.run_dir).lines():
                print(line)
            return 0
        if args.action == "trace":
            return _report_trace(args)
        result = diff_runs(
            args.run_a,
            args.run_b,
            threshold=(
                args.threshold
                if args.threshold is not None
                else report_mod.DEFAULT_THRESHOLD
            ),
            min_seconds=(
                args.min_seconds
                if args.min_seconds is not None
                else report_mod.DEFAULT_MIN_SECONDS
            ),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.lines():
        print(line)
    return 0 if result.ok else 1


def _report_trace(args) -> int:
    """Stitch runs + cache trace logs into one Perfetto timeline."""
    import json
    from pathlib import Path

    from repro.telemetry.perfetto import spans_from_log_events, stitch_trace
    from repro.telemetry.runlog import read_run

    trace_id = args.trace_id
    run_events = []
    for run_dir in args.run_dirs:
        events = read_run(run_dir).events
        if trace_id is None:
            trace_id = next(
                (
                    event["attrs"]["trace_id"]
                    for event in events
                    if event.get("type") == "span"
                    and event.get("attrs", {}).get("trace_id")
                ),
                None,
            )
        run_events.append((run_dir, events))
    groups = []
    process_names = {}
    for run_dir, events in run_events:
        spans = spans_from_log_events(events, trace_id)
        for rec in spans:
            process_names.setdefault(rec.pid, f"engine {Path(run_dir).name}")
        groups.append(spans)
    for log in args.trace_log:
        lines = Path(log).read_text().splitlines()
        events = [json.loads(line) for line in lines if line.strip()]
        spans = spans_from_log_events(events, trace_id)
        for rec in spans:
            process_names[rec.pid] = str(rec.attrs.get("proc", "cache-server"))
        groups.append(spans)
    n_spans = sum(len(group) for group in groups)
    if not n_spans:
        print("error: no spans matched (wrong --trace-id?)", file=sys.stderr)
        return 2
    out = stitch_trace(args.out, groups, process_names)
    print(
        f"stitched {n_spans} spans from {len(groups)} sources"
        + (f" (trace id {trace_id})" if trace_id else "")
        + f" -> {out}"
    )
    return 0


def _progress_printer(name: str):
    def on_progress(event) -> None:
        detail = f"  {event.detail}" if event.detail else ""
        print(
            f"  [{name}] {event.kind}: {event.done}/{event.total}{detail}",
            file=sys.stderr,
        )

    return on_progress


def _run_one(name: str, args, run_dir=None, trace_out=None) -> None:
    from repro.experiments import registry

    spec = registry.get(name)
    config = registry.ExperimentConfig(
        scale=args.scale or _default_scale(),
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
        chunk_size=args.chunk_size,
        progress=_progress_printer(name) if args.progress else None,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        remote_cache=args.remote_cache,
        schedule=getattr(args, "schedule", "stealing"),
        run_dir=run_dir,
        trace_out=trace_out,
        trace_id=getattr(args, "trace_id", None),
    )
    result = registry.run(name, config)
    print(spec.title)
    for line in result.lines():
        print(line)
    if result.metrics:
        metrics = ", ".join(f"{k}={v}" for k, v in result.metrics.items())
        print(f"metrics: {metrics}")
    cache = result.metadata.get("cache")
    if cache:
        line = (
            f"cache: hits={cache['hits']} misses={cache['misses']} "
            f"hit_rate={cache['hit_rate']:.2%} "
            f"read={cache['bytes_read'] / 1e6:.1f}MB "
            f"written={cache['bytes_written'] / 1e6:.1f}MB"
        )
        # Fan-out campaigns additionally report partially-hit shards
        # and their per-sensor sub-block split.
        if cache.get("partial") or cache.get("sub_hits") or cache.get("sub_misses"):
            line += (
                f" partial={cache.get('partial', 0)} "
                f"sub_hits={cache.get('sub_hits', 0)} "
                f"sub_misses={cache.get('sub_misses', 0)}"
            )
        print(line)
        # Tiered-store runs additionally report per-tier traffic:
        # read-through hits, wire bytes both ways, write-behind
        # publishes and background prefetch overlap.
        if any(
            cache.get(k)
            for k in (
                "remote_hits", "remote_misses", "remote_puts",
                "prefetch_fetched", "remote_errors",
            )
        ):
            print(
                f"cache remote: served={cache.get('remote_served', 0)} "
                f"hits={cache.get('remote_hits', 0)} "
                f"misses={cache.get('remote_misses', 0)} "
                f"wire_read={cache.get('remote_bytes_read', 0) / 1e6:.1f}MB "
                f"wire_written={cache.get('remote_bytes_written', 0) / 1e6:.1f}MB "
                f"puts={cache.get('remote_puts', 0)} "
                f"prefetched={cache.get('prefetch_fetched', 0)} "
                f"errors={cache.get('remote_errors', 0)}"
            )
    if result.metadata.get("run_dir"):
        print(f"run record: {result.metadata['run_dir']}")
    if result.metadata.get("trace_out"):
        print(f"perfetto trace: {result.metadata['trace_out']}")
    print(
        f"[{name}] scale={config.scale} seed={config.seed} "
        f"workers={config.workers} in {result.seconds:.1f}s"
    )


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cache":
        # Maintenance subcommand; dispatched before the main parser so
        # the 'experiment' positional does not swallow it.
        return _cache_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] in (
        "serve", "submit", "status", "watch", "cancel", "jobs", "ping",
        "shutdown",
    ):
        return _service_main(argv)
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError
    from repro.experiments import registry

    known = registry.names()
    try:
        if args.experiment == "list":
            for name in known:
                print(name)
            return 0
        if args.experiment == "all":
            t0 = time.time()
            for name in known:
                print(f"\n===== {name} =====")
                # One run record per experiment (a run directory
                # describes exactly one run).
                run_dir = (
                    os.path.join(args.run_dir, name) if args.run_dir else None
                )
                _run_one(name, args, run_dir=run_dir)
            print(f"\nall experiments done in {time.time() - t0:.0f}s")
            return 0
        if args.experiment not in known:
            print(
                f"unknown experiment {args.experiment!r}; try 'list'",
                file=sys.stderr,
            )
            return 2
        _run_one(
            args.experiment, args,
            run_dir=args.run_dir, trace_out=args.trace_out,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
