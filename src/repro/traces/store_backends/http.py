"""HTTP transport for the block store (client side).

Speaks the minimal content-addressed protocol of ``repro cache serve``
(:mod:`repro.traces.store_backends.server`):

========  =========================  ==========================================
method    path                       meaning
========  =========================  ==========================================
GET       ``/v1/blocks/<key>``       blob bytes, or 404
HEAD      ``/v1/blocks/<key>``       presence probe (Content-Length, no body)
PUT       ``/v1/blocks/<key>``       publish (server re-verifies digest; 400
                                     rejects damaged or misaddressed blobs)
DELETE    ``/v1/blocks/<key>``       remove; 404 when absent
POST      ``/v1/blocks/contains``    ``{"keys": [...]}`` → ``{"present": [...]}``
GET       ``/v1/stats``              server store stats + request counters
GET       ``/v1/ping``               liveness
GET       ``/metrics``               Prometheus text exposition
========  =========================  ==========================================

Every request carries an ``X-Repro-Trace`` header when a trace scope is
active (:mod:`repro.telemetry.tracing`), and the client records request
latency / retry / error metrics on the process-wide registry.

Everything is stdlib ``http.client`` — no third-party dependency.  One
keep-alive connection is held per thread (the tiered store's prefetch
and publish threads each get their own); transient transport failures
are retried once with a fresh connection before surfacing as
:class:`~repro.errors.RemoteCacheError`.  The open connections are
closed when the backend is garbage-collected (or at interpreter exit),
so a dropped backend never leaves its sockets to the socket
finalizer's ``ResourceWarning``.  Instances pickle as their
configuration, so a backend rides into engine worker processes the
same way a :class:`~repro.traces.blockstore.BlockStore` does.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.errors import CacheError, RemoteCacheError
from repro.telemetry.metrics import LATENCY_BUCKETS, get_registry
from repro.telemetry.tracing import TRACE_HEADER, current_trace_id
from repro.traces.store_backends.base import BlobParts, validate_key

_BLOCKS = "/v1/blocks"


def _close_all(conns) -> None:
    for conn in list(conns):
        try:
            conn.close()
        except Exception:
            pass


def _client_metrics():
    """Request-level client metrics on the process-wide registry."""
    registry = get_registry()
    return (
        registry.histogram(
            "repro_http_request_seconds",
            "Remote-cache client request latency by method.",
            labelnames=("method",),
            buckets=LATENCY_BUCKETS,
        ),
        registry.counter(
            "repro_http_retries_total",
            "Remote-cache client transport retries.",
        ),
        registry.counter(
            "repro_http_errors_total",
            "Remote-cache client requests that exhausted their retries.",
        ),
    )

#: Errors that mean "the wire failed", not "the server answered no" —
#: retried with a fresh connection, then reported as RemoteCacheError.
_TRANSPORT_ERRORS = (
    http.client.HTTPException,
    ConnectionError,
    socket.timeout,
    socket.gaierror,
    OSError,
)


class HTTPBackend:
    """A :class:`~repro.traces.store_backends.base.StoreBackend` over
    the ``repro cache serve`` protocol.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (or ``https://``).  A path prefix is
        allowed and prepended to every route.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a request is retried on transport failure (each
        retry reconnects; the protocol is idempotent so replays are
        safe).
    """

    def __init__(self, base_url: str, timeout: float = 10.0, retries: int = 1) -> None:
        parts = urlsplit(str(base_url))
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise CacheError(
                f"remote cache URL {base_url!r} must look like http://host:port"
            )
        self.base_url = str(base_url).rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self._scheme = parts.scheme
        self._netloc = parts.netloc
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()
        # Every connection any thread opened, closed when self is
        # collected (thread-local slots alone would drop them unclosed).
        self._conns: List[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._conns)

    # One keep-alive connection per thread; pickling drops them.
    def __getstate__(self):
        return {
            "base_url": self.base_url,
            "timeout": self.timeout,
            "retries": self.retries,
        }

    def __setstate__(self, state):
        self.__init__(**state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HTTPBackend({self.base_url!r})"

    def describe(self) -> str:
        return self.base_url

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(self._netloc, timeout=self.timeout)

    def _close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            _close_all([conn])
            try:
                self._conns.remove(conn)
            except ValueError:
                pass
        self._local.conn = None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[BlobParts] = None,
        *,
        read_body: bool = True,
    ) -> Tuple[int, bytes]:
        """One round trip; retries transport failures on a fresh
        connection (stale keep-alive sockets fail exactly this way).

        ``body`` is a sequence of bytes-like parts, sent back to back
        under one explicit ``Content-Length`` and never joined."""
        url = self._prefix + path
        latency, retries, errors = _client_metrics()
        trace_id = current_trace_id()
        last: Optional[Exception] = None
        headers = {}
        if body is not None:
            body = [memoryview(part).cast("B") for part in body]
            headers["Content-Length"] = str(sum(part.nbytes for part in body))
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        t0 = time.perf_counter()
        for attempt in range(self.retries + 1):
            if attempt:
                retries.inc()
            conn = getattr(self._local, "conn", None)
            if conn is not None and getattr(self._local, "pid", None) != os.getpid():
                # Forked child: the keep-alive socket is shared with the
                # parent process, and speaking on it would interleave two
                # processes' requests on one TCP stream (corrupted reads,
                # stalls).  Abandon the inherited connection unused — the
                # parent still owns the socket — and dial our own.
                conn = None
                self._local.conn = None
            if conn is None:
                conn = self._connect()
                self._conns.append(conn)
                self._local.conn = conn
                self._local.pid = os.getpid()
            try:
                conn.request(method, url, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read() if read_body else b""
                if not read_body:
                    # HEAD: nothing to drain, but the header block must
                    # be consumed before the connection is reused.
                    resp.read()
                latency.observe(time.perf_counter() - t0, method=method)
                return resp.status, data
            except _TRANSPORT_ERRORS as exc:
                last = exc
                self._close()
                if attempt >= self.retries:
                    break
        errors.inc()
        latency.observe(time.perf_counter() - t0, method=method)
        raise RemoteCacheError(
            f"remote cache {self.base_url} unreachable "
            f"({method} {path}): {last}"
        ) from last

    # ------------------------------------------------------------------
    def get_blob(self, key: str) -> Optional[bytes]:
        status, data = self._request("GET", f"{_BLOCKS}/{validate_key(key)}")
        if status == 200:
            return data
        if status == 404:
            return None
        raise RemoteCacheError(
            f"remote cache {self.base_url} answered {status} to GET {key[:16]}…"
        )

    def put_blob(self, key: str, parts: BlobParts) -> None:
        status, data = self._request(
            "PUT", f"{_BLOCKS}/{validate_key(key)}", body=parts
        )
        if status in (200, 201):
            return
        detail = data.decode(errors="replace").strip()
        raise RemoteCacheError(
            f"remote cache {self.base_url} refused PUT {key[:16]}… "
            f"({status}): {detail or 'no detail'}"
        )

    def contains(self, key: str) -> bool:
        status, _ = self._request(
            "HEAD", f"{_BLOCKS}/{validate_key(key)}", read_body=False
        )
        if status == 200:
            return True
        if status == 404:
            return False
        raise RemoteCacheError(
            f"remote cache {self.base_url} answered {status} to HEAD {key[:16]}…"
        )

    def contains_many(self, keys: Sequence[str]) -> Dict[str, bool]:
        """Presence of many keys in one round trip."""
        keys = [validate_key(k) for k in keys]
        if not keys:
            return {}
        body = json.dumps({"keys": keys}).encode()
        status, data = self._request("POST", f"{_BLOCKS}/contains", body=[body])
        if status != 200:
            # An older server without the batch route still answers the
            # per-key probes.
            return {key: self.contains(key) for key in keys}
        try:
            present = set(json.loads(data.decode())["present"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise RemoteCacheError(
                f"remote cache {self.base_url} sent a malformed contains "
                f"response: {exc}"
            ) from None
        return {key: key in present for key in keys}

    def delete(self, key: str) -> bool:
        status, _ = self._request("DELETE", f"{_BLOCKS}/{validate_key(key)}")
        if status == 200:
            return True
        if status == 404:
            return False
        raise RemoteCacheError(
            f"remote cache {self.base_url} answered {status} to DELETE {key[:16]}…"
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The server's store stats and request counters."""
        status, data = self._request("GET", "/v1/stats")
        if status != 200:
            raise RemoteCacheError(
                f"remote cache {self.base_url} answered {status} to GET /v1/stats"
            )
        try:
            return dict(json.loads(data.decode()))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RemoteCacheError(
                f"remote cache {self.base_url} sent malformed stats: {exc}"
            ) from None

    def ping(self) -> bool:
        """Whether the server is up (False instead of raising)."""
        try:
            status, _ = self._request("GET", "/v1/ping")
        except RemoteCacheError:
            return False
        return status == 200
