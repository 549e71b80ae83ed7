"""Unix-socket front end of the campaign service.

Newline-delimited JSON over a unix domain socket — no framing library,
no HTTP dependency, trivially scriptable (``nc -U``).  One request per
connection; the ``submit``/``watch`` ops optionally keep the
connection open to stream the job's events as they happen.

Request::

    {"op": "submit", "tenant": "alice", "experiment": "fig5",
     "scale": "quick", "seed": 7, "options": {...}, "watch": true}

Response: one ``{"ok": true/false, ...}`` line; streaming ops emit
``{"event": {...}}`` lines before the final response.  Ops:

``ping``      liveness + service stats
``metrics``   the process-wide metrics registry (snapshot + Prometheus
              text)
``submit``    admit a job (optionally stream it with ``"watch": true``)
``status``    one job snapshot (``{"id": ...}``)
``jobs``      all job snapshots
``watch``     stream an existing job's events from the start
``cancel``    request cancellation (``{"id": ...}``)
``shutdown``  drain and stop the server
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.service.service import CampaignService

__all__ = ["ServiceServer", "serve"]

#: Default socket path (relative to cwd); override with
#: ``REPRO_SERVICE_SOCKET`` or the CLI ``--socket`` flag.
DEFAULT_SOCKET = "repro-service.sock"


def _socket_path(explicit: Optional[str] = None) -> str:
    return explicit or os.environ.get("REPRO_SERVICE_SOCKET") or DEFAULT_SOCKET


class ServiceServer:
    """Serve one :class:`CampaignService` on a unix socket."""

    def __init__(self, service: CampaignService, socket_path: Optional[str] = None):
        self.service = service
        self.socket_path = _socket_path(socket_path)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path
        )

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self._send(writer, {"ok": False, "error": f"bad json: {exc}"})
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                await self._send(
                    writer, {"ok": True, "stats": self.service.stats()}
                )
            elif op == "metrics":
                from repro.telemetry.metrics import get_registry

                registry = get_registry()
                await self._send(
                    writer,
                    {
                        "ok": True,
                        "metrics": registry.snapshot(),
                        "prometheus": registry.render_prometheus(),
                    },
                )
            elif op == "submit":
                await self._op_submit(request, writer)
            elif op == "status":
                await self._send(
                    writer,
                    {"ok": True, "job": self.service.status(request["id"])},
                )
            elif op == "jobs":
                await self._send(writer, {"ok": True, "jobs": self.service.jobs()})
            elif op == "watch":
                await self._op_watch(request["id"], writer)
            elif op == "cancel":
                cancelled = self.service.cancel(request["id"])
                await self._send(
                    writer,
                    {
                        "ok": True,
                        "cancelled": cancelled,
                        "job": self.service.status(request["id"]),
                    },
                )
            elif op == "shutdown":
                await self._send(writer, {"ok": True, "stopping": True})
                self._shutdown.set()
            else:
                await self._send(writer, {"ok": False, "error": f"unknown op {op!r}"})
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            await self._send(
                writer, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )

    async def _op_submit(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = await self.service.submit(
            request["tenant"],
            request["experiment"],
            scale=request.get("scale", "quick"),
            seed=int(request.get("seed", 0)),
            workers=int(request.get("workers", 1)),
            shard_size=int(request.get("shard_size", 4096)),
            options=request.get("options") or {},
        )
        if request.get("watch"):
            await self._op_watch(job.id, writer)
        else:
            await self._send(writer, {"ok": True, "job": job.snapshot()})

    async def _op_watch(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        async for event in self.service.watch(job_id):
            await self._send(writer, {"event": event.as_dict(), "id": job_id})
        await self._send(writer, {"ok": True, "job": self.service.status(job_id)})


async def serve(
    *,
    socket_path: Optional[str] = None,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    remote_cache: Optional[str] = None,
    run_root: Optional[str] = None,
    max_active: int = 8,
) -> None:
    """Build a service + server and run until shutdown (blocking)."""
    from repro.service.quota import TenantQuota

    service = CampaignService(
        workers=workers,
        quota=TenantQuota(max_active=max_active),
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        remote_cache=remote_cache,
        run_root=run_root,
    )
    server = ServiceServer(service, socket_path)
    await server.start()
    print(f"repro service listening on {server.socket_path}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()
