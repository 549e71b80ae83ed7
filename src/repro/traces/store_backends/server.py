"""The ``repro cache serve`` artifact server.

A deliberately small, stdlib-only HTTP server that exposes one block
store directory to a fleet.  The protocol is content-addressed and
idempotent (see :mod:`repro.traces.store_backends.http` for the route
table), which buys the usual artifact-store properties for free:

* **Racing publishers are benign.**  Two hosts PUTting the same key
  write identical bytes (keys are content addresses), and the local
  backend's temp-file + ``os.replace`` publish keeps the last rename
  atomic.
* **The server never trusts the wire.**  Every PUT is re-verified —
  header well-formed, stored key equal to the addressed key, payload
  digest intact — before the blob is published.  A corrupted or
  misaddressed upload is a 400, not a poisoned cache.
* **Replays are safe.**  GET/PUT/HEAD/DELETE all mean the same thing
  executed twice, so the client retries transport failures blindly.

Serving is threaded (``ThreadingHTTPServer``): block reads are file
reads, so concurrency is bounded by disk, not Python.

Observability: every verb is timed into the process-wide metrics
registry (per-verb latency histogram + in-flight gauge, scrapeable at
``GET /metrics`` in Prometheus text format), and requests that carry an
``X-Repro-Trace`` header are appended as span events to an optional
request trace log, so ``repro report trace`` can stitch the server's
side of a job into the submitting service's timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import wraps
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.telemetry.metrics import LATENCY_BUCKETS, get_registry
from repro.telemetry.tracing import TRACE_HEADER
from repro.traces.blockstore import SCHEMA_VERSION, BlockStore, verify_blob
from repro.traces.store_backends.base import _KEY_RE

_BLOCKS_PREFIX = "/v1/blocks/"


def _traced(verb: str):
    """Time a handler verb, track in-flight, log trace-scoped spans."""

    def decorate(fn):
        @wraps(fn)
        def wrapper(self: "_CacheRequestHandler"):
            server = self.server
            start = time.time()
            t0 = time.perf_counter()
            self._last_status = 0
            server.metric_inflight.inc()
            try:
                fn(self)
            finally:
                seconds = time.perf_counter() - t0
                server.metric_inflight.dec()
                server.metric_latency.observe(seconds, verb=verb)
                trace_id = self.headers.get(TRACE_HEADER)
                if trace_id:
                    server.log_trace_span(
                        verb, self.path, start, seconds,
                        self._last_status, trace_id,
                    )

        return wrapper

    return decorate

#: Refuse absurd uploads before reading them (a full fig5 block is a
#: few MB; 1 GiB is far beyond any legitimate blob).
MAX_BLOB_BYTES = 1 << 30


class _CacheRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-cache/1"

    server: "CacheServer"  # set by ThreadingHTTPServer machinery

    #: Status of the response in flight (for the request trace log).
    _last_status = 0

    # ------------------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if self.server.verbose:  # pragma: no cover - debug aid
            super().log_message(fmt, *args)

    def send_response(self, code, message=None):  # noqa: D102
        self._last_status = int(code)
        super().send_response(code, message)

    def _send(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
        *,
        content_length: Optional[int] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header(
            "Content-Length",
            str(len(body) if content_length is None else content_length),
        )
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        self._send(
            status, json.dumps(payload).encode() + b"\n", "application/json"
        )

    def _block_key(self) -> Optional[str]:
        """The key addressed by the request path, or ``None`` + a 400."""
        key = self.path[len(_BLOCKS_PREFIX):]
        if not _KEY_RE.match(key):
            self._send_json(400, {"error": f"malformed block key {key[:80]!r}"})
            return None
        return key

    # ------------------------------------------------------------------
    @_traced("GET")
    def do_GET(self):  # noqa: N802 - http.server API
        if self.path == "/v1/ping":
            self._send_json(200, {"ok": True, "schema": SCHEMA_VERSION})
            return
        if self.path == "/v1/stats":
            self._send_json(200, self.server.stats_payload())
            return
        if self.path == "/metrics":
            self._send(
                200,
                self.server.metrics_exposition().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if not self.path.startswith(_BLOCKS_PREFIX):
            self._send_json(404, {"error": "unknown route"})
            return
        key = self._block_key()
        if key is None:
            return
        blob = self.server.store.backend.get_blob(key)
        if blob is None:
            self.server.count("misses")
            self._send_json(404, {"error": "unknown block"})
            return
        self.server.count("gets", bytes_out=len(blob))
        self._send(200, blob)

    @_traced("HEAD")
    def do_HEAD(self):  # noqa: N802
        if not self.path.startswith(_BLOCKS_PREFIX):
            self._send(404)
            return
        # HEAD responses carry no body, so the malformed-key rejection
        # must stay body-less too (a JSON 400 would desync keep-alive).
        key = self.path[len(_BLOCKS_PREFIX):]
        if not _KEY_RE.match(key):
            self._send(400)
            return
        try:
            size = self.server.store.backend.path_for(key).stat().st_size
        except OSError:
            self._send(404)
            return
        self._send(200, content_length=size)

    @_traced("PUT")
    def do_PUT(self):  # noqa: N802
        if not self.path.startswith(_BLOCKS_PREFIX):
            self._send_json(404, {"error": "unknown route"})
            return
        key = self._block_key()
        if key is None:
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(400, {"error": "missing Content-Length"})
            return
        if not 0 < length <= MAX_BLOB_BYTES:
            self._send_json(400, {"error": f"implausible blob size {length}"})
            return
        blob = self.rfile.read(length)
        if len(blob) != length:
            self._send_json(400, {"error": "short body"})
            return
        try:
            verify_blob(blob, key=key)
        except ValueError as exc:
            self.server.count("rejected_puts")
            self._send_json(400, {"error": f"rejected damaged blob: {exc}"})
            return
        self.server.store.backend.put_blob(key, blob)
        self.server.count("puts", bytes_in=len(blob))
        self._send_json(201, {"ok": True})

    @_traced("DELETE")
    def do_DELETE(self):  # noqa: N802
        if not self.path.startswith(_BLOCKS_PREFIX):
            self._send_json(404, {"error": "unknown route"})
            return
        key = self._block_key()
        if key is None:
            return
        if self.server.store.backend.delete(key):
            self.server.count("deletes")
            self._send_json(200, {"ok": True})
        else:
            self._send_json(404, {"error": "unknown block"})

    @_traced("POST")
    def do_POST(self):  # noqa: N802
        if self.path != _BLOCKS_PREFIX + "contains":
            self._send_json(404, {"error": "unknown route"})
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
            request = json.loads(self.rfile.read(length).decode())
            keys = list(request["keys"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self._send_json(400, {"error": "want JSON {'keys': [...]}"})
            return
        backend = self.server.store.backend
        present = [
            key
            for key in keys
            if isinstance(key, str) and _KEY_RE.match(key) and backend.contains(key)
        ]
        self._send_json(200, {"present": present})


class CacheServer(ThreadingHTTPServer):
    """One block store directory served over HTTP.

    Binds on construction (``port=0`` picks an ephemeral port — read it
    back from :attr:`port`); call :meth:`serve_forever` to serve, or use
    :meth:`start` for a daemon background thread in tests.
    """

    daemon_threads = True

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 8091,
        *,
        verbose: bool = False,
        trace_log: Optional[Union[str, Path]] = None,
    ) -> None:
        self.store = BlockStore(root)
        self.verbose = verbose
        self.counters: Dict[str, int] = {
            "gets": 0,
            "misses": 0,
            "puts": 0,
            "rejected_puts": 0,
            "deletes": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self._counter_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        # Request trace log: span events for X-Repro-Trace requests,
        # appended as JSON lines (stitched by ``repro report trace``).
        self.trace_log = Path(trace_log) if trace_log else None
        self._trace_lock = threading.Lock()
        registry = get_registry()
        self.metric_latency = registry.histogram(
            "repro_cache_server_request_seconds",
            "Cache-server request latency by verb.",
            labelnames=("verb",),
            buckets=LATENCY_BUCKETS,
        )
        self.metric_inflight = registry.gauge(
            "repro_cache_server_inflight",
            "Cache-server requests currently being handled.",
        )
        self.metric_requests = registry.counter(
            "repro_cache_server_requests_total",
            "Cache-server request outcomes, mirroring /v1/stats counters.",
            labelnames=("kind",),
        )
        self.metric_bytes = registry.counter(
            "repro_cache_server_bytes_total",
            "Cache-server payload bytes by direction.",
            labelnames=("direction",),
        )
        self.metric_blocks = registry.gauge(
            "repro_cache_server_blocks",
            "Blocks resident in the served store.",
        )
        self.metric_stored_bytes = registry.gauge(
            "repro_cache_server_stored_bytes",
            "Bytes resident in the served store.",
        )
        super().__init__((host, int(port)), _CacheRequestHandler)

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def count(self, name: str, *, bytes_in: int = 0, bytes_out: int = 0) -> None:
        with self._counter_lock:
            self.counters[name] += 1
            self.counters["bytes_in"] += bytes_in
            self.counters["bytes_out"] += bytes_out
        # Mirrored on the registry so a /metrics scrape and /v1/stats
        # (hence ``repro cache stats --remote-cache``) can never drift.
        self.metric_requests.inc(kind=name)
        if bytes_in:
            self.metric_bytes.inc(bytes_in, direction="in")
        if bytes_out:
            self.metric_bytes.inc(bytes_out, direction="out")

    def metrics_exposition(self) -> str:
        """The ``/metrics`` body: refresh store gauges, then render."""
        stats = self.store.stats()
        self.metric_blocks.set(stats.n_blocks)
        self.metric_stored_bytes.set(stats.total_bytes)
        return get_registry().render_prometheus()

    def log_trace_span(
        self,
        verb: str,
        path: str,
        start: float,
        seconds: float,
        status: int,
        trace_id: str,
    ) -> None:
        """Append one request span event to the trace log (if any)."""
        if self.trace_log is None:
            return
        from repro.telemetry.manifest import RUN_SCHEMA_VERSION

        name = f"cacheserver.{verb}"
        event = {
            "type": "span",
            "schema": RUN_SCHEMA_VERSION,
            "path": name,
            "name": name,
            "depth": 0,
            "leaf": True,
            "start": start,
            "seconds": seconds,
            "attrs": {
                "trace_id": trace_id,
                "proc": "cache-server",
                "http_path": path,
                "status": status,
            },
            "counters": {},
            "pid": os.getpid(),
        }
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._trace_lock:
            with self.trace_log.open("a") as fh:
                fh.write(line)

    def stats_payload(self) -> Dict[str, object]:
        stats = self.store.stats()
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "root": str(self.store.root),
            "url": self.url,
            "schema": SCHEMA_VERSION,
            "n_blocks": stats.n_blocks,
            "total_bytes": stats.total_bytes,
            "fanout_blocks": stats.fanout_blocks,
            "counters": counters,
        }

    # ------------------------------------------------------------------
    def start(self) -> "CacheServer":
        """Serve from a daemon thread (tests, embedded use)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-cache-serve", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

