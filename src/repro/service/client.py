"""Blocking client for the campaign service socket.

Deliberately synchronous and dependency-free (stdlib ``socket`` +
``json``): the thin side of the thin-client CLI.  One connection per
request; streaming ops (:meth:`ServiceClient.watch`,
``submit(..., watch=True)``) hold their connection open and yield
event dicts until the final response line.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterator, Optional

from repro.errors import ServiceError
from repro.service.server import _socket_path

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to a running ``repro serve`` over its unix socket."""

    def __init__(self, socket_path: Optional[str] = None, timeout: float = 300.0):
        self.socket_path = _socket_path(socket_path)
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot reach service at {self.socket_path!r}: {exc} "
                "(is `repro serve` running?)"
            ) from None
        return sock

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one response line."""
        for line in self._stream(payload):
            return line
        raise ServiceError("service closed the connection without replying")

    def _stream(self, payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """One request, every response line until EOF."""
        sock = self._connect()
        try:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            buffer = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            sock.close()

    @staticmethod
    def _checked(response: Dict[str, Any]) -> Dict[str, Any]:
        if not response.get("ok"):
            raise ServiceError(response.get("error", "service request failed"))
        return response

    # -- operations ----------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._checked(self._request({"op": "ping"}))["stats"]

    def metrics(self) -> Dict[str, Any]:
        """The service process's metrics registry: ``{"metrics":
        <snapshot dict>, "prometheus": <exposition text>}``."""
        response = self._checked(self._request({"op": "metrics"}))
        return {
            "metrics": response["metrics"],
            "prometheus": response["prometheus"],
        }

    def submit(
        self,
        tenant: str,
        experiment: str,
        *,
        scale: str = "quick",
        seed: int = 0,
        workers: int = 1,
        shard_size: int = 4096,
        options: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a campaign; returns the job snapshot (non-blocking)."""
        response = self._request(
            {
                "op": "submit",
                "tenant": tenant,
                "experiment": experiment,
                "scale": scale,
                "seed": seed,
                "workers": workers,
                "shard_size": shard_size,
                "options": options or {},
            }
        )
        return self._checked(response)["job"]

    def submit_and_watch(
        self,
        tenant: str,
        experiment: str,
        *,
        scale: str = "quick",
        seed: int = 0,
        workers: int = 1,
        shard_size: int = 4096,
        options: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Submit and stream: yields ``{"event": ...}`` lines, then the
        final ``{"ok": true, "job": ...}`` snapshot line."""
        yield from self._stream(
            {
                "op": "submit",
                "tenant": tenant,
                "experiment": experiment,
                "scale": scale,
                "seed": seed,
                "workers": workers,
                "shard_size": shard_size,
                "options": options or {},
                "watch": True,
            }
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._checked(self._request({"op": "status", "id": job_id}))["job"]

    def jobs(self) -> list:
        return self._checked(self._request({"op": "jobs"}))["jobs"]

    def watch(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream an existing job's events from the start; the last
        yielded line is the final job snapshot response."""
        yield from self._stream({"op": "watch", "id": job_id})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._checked(self._request({"op": "cancel", "id": job_id}))

    def shutdown(self) -> None:
        self._checked(self._request({"op": "shutdown"}))
