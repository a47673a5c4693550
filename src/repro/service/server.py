"""Async HTTP front end for the synthesis service (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependency — exposing the durable job store over five
endpoints (see ``docs/SERVICE.md`` for the full reference):

* ``POST /jobs`` — admit + durably enqueue a job.  ``201`` on create,
  ``200`` when the idempotency key deduplicates onto an existing job,
  ``429`` + ``Retry-After`` when admission control refuses.
* ``GET /jobs`` — list jobs (``?state=``, ``?tenant=`` filters) plus
  the per-state counts.
* ``GET /jobs/{id}`` — one job's public record and its live-progress
  event tail (``?since=<seq>`` for incremental polls).
* ``GET /jobs/{id}/result`` — the canonical result payload once the
  job is terminal (``409`` while it is still in flight).
* ``POST /jobs/{id}/cancel`` — cancel a job that has not started.
* ``GET /healthz`` / ``GET /readyz`` — liveness vs. readiness;
  ``readyz`` turns ``503`` the moment a drain begins, so a load
  balancer stops routing before the listener goes away.

Request handling is synchronous inside the event loop: every endpoint
is a dictionary operation on the store (the actual synthesis runs on
the service's worker thread), so there is nothing to await.  Responses
always carry ``Connection: close`` — clients here are test harnesses
and ``repro submit``, not browsers, and one-shot connections keep the
protocol surface tiny.

Shutdown: SIGTERM/SIGINT (or :meth:`ServiceServer.request_shutdown`)
closes the listener, then the caller drains the service —
``run_server`` wires the whole arc and returns the final
:class:`~repro.engine.BatchReport`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import urllib.parse
from typing import Any, Callable

from repro.engine import BatchReport

from .service import AdmissionRejected, SynthesisService
from .store import InvalidTransition, UnknownJob

logger = logging.getLogger("repro.service.http")

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY = 8 * 1024 * 1024  # a serialized system is KBs; 8 MiB is generous


class ServiceServer:
    """The asyncio HTTP listener in front of one :class:`SynthesisService`."""

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 → ephemeral; rewritten once bound
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(
        self,
        *,
        install_signals: bool = True,
        announce: Callable[[str], None] | None = None,
    ) -> None:
        """Bind, serve until shutdown is requested, close the listener."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self._shutdown.set
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without support
        if announce is not None:
            announce(f"listening on http://{self.host}:{self.port}")
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (tests, embedders)."""
        loop, event = self._loop, self._shutdown
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload, extra_headers = 500, {"error": "internal error"}, {}
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), timeout=30.0
            )
            if request is None:
                writer.close()
                return
            method, target, body = request
            status, payload, extra_headers = self._route(method, target, body)
        except asyncio.TimeoutError:
            status, payload = 400, {"error": "request timed out"}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception:  # noqa: BLE001 - one bad request must not kill serving
            logger.exception("unhandled error serving request")
        try:
            self._write_response(writer, status, payload, extra_headers)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes] | None:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if length > _MAX_BODY:
            raise ConnectionError("request body too large")
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str],
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True) + "\n"
        ).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{name}: {value}" for name, value in extra_headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        path, _, query = target.partition("?")
        params = urllib.parse.parse_qs(query)
        segments = [s for s in path.split("/") if s]
        try:
            if path == "/healthz" and method == "GET":
                return 200, {"status": "ok"}, {}
            if path == "/readyz" and method == "GET":
                if self.service.ready:
                    return 200, {"status": "ready"}, {}
                return 503, {"status": "draining"}, {}
            if path == "/jobs" and method == "POST":
                return self._submit(body)
            if path == "/jobs" and method == "GET":
                return self._list(params)
            if len(segments) == 2 and segments[0] == "jobs":
                if method == "GET":
                    return self._job(segments[1], params)
            if (
                len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "result"
                and method == "GET"
            ):
                return self._result(segments[1])
            if (
                len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "cancel"
                and method == "POST"
            ):
                return self._cancel(segments[1])
        except UnknownJob as exc:
            return 404, {"error": f"unknown job {exc.args[0]!r}"}, {}
        except AdmissionRejected as exc:
            return (
                429,
                {"error": exc.reason, "retry_after": exc.retry_after},
                {"Retry-After": f"{max(exc.retry_after, 0.001):.3f}"},
            )
        except InvalidTransition as exc:
            return 409, {"error": str(exc)}, {}
        except (ValueError, TypeError, KeyError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}, {}
        return 404, {"error": f"no route for {method} {path}"}, {}

    def _submit(
        self, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if not self.service.ready:
            return 503, {"error": "service is draining"}, {}
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except ValueError:
            return 400, {"error": "request body is not valid JSON"}, {}
        if not isinstance(data, dict) or "system" not in data:
            return 400, {"error": "body must be a JSON object with 'system'"}, {}
        record, created = self.service.submit(
            data["system"],
            method=data.get("method", "proposed"),
            tenant=str(data.get("tenant", "default")),
            options_data=data.get("options"),
            config_data=data.get("config"),
            label=data.get("label"),
        )
        return (
            201 if created else 200,
            {"job": record.public_dict(), "created": created},
            {},
        )

    def _list(
        self, params: dict[str, list[str]]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        state = params.get("state", [None])[0]
        tenant = params.get("tenant", [None])[0]
        records = self.service.store.jobs(state=state, tenant=tenant)
        return (
            200,
            {
                "jobs": [record.public_dict() for record in records],
                "counts": self.service.store.counts(),
            },
            {},
        )

    def _job(
        self, job_id: str, params: dict[str, list[str]]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        record = self.service.store.get(job_id)
        try:
            since = int(params.get("since", ["-1"])[0])
        except ValueError:
            since = -1
        events = self.service.store.events_for(job_id, since_seq=since)
        return 200, {"job": record.public_dict(), "events": events}, {}

    def _result(
        self, job_id: str
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        record = self.service.store.get(job_id)
        if not record.terminal:
            return (
                409,
                {
                    "error": f"job {job_id} is {record.state!r}, not terminal",
                    "state": record.state,
                },
                {},
            )
        payload: dict[str, Any] = {
            "job_id": record.job_id,
            "state": record.state,
            "fingerprint": record.fingerprint,
            "error": record.error,
            "result": (
                json.loads(record.result) if record.result is not None else None
            ),
        }
        return 200, payload, {}

    def _cancel(
        self, job_id: str
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        record = self.service.cancel(job_id)
        return 200, {"job": record.public_dict()}, {}


def run_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    resume: bool = False,
    announce: Callable[[str], None] | None = None,
) -> BatchReport:
    """The ``repro serve`` arc: start, listen, drain on signal, report.

    Blocks until SIGTERM/SIGINT, then drains the service gracefully
    (in-flight jobs finish, queued jobs persist) and returns the final
    :class:`~repro.engine.BatchReport` of everything executed.
    """
    service.start(resume=resume)
    server = ServiceServer(service, host, port)
    try:
        asyncio.run(server.run(announce=announce))
    finally:
        report = service.stop(drain=True)
    return report


class ServerThread:
    """A server on a background thread (tests and embedders).

    Owns the whole lifecycle: ``start()`` returns once the port is
    bound; ``stop()`` closes the listener and drains the service.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.server = ServiceServer(service, host, port)
        self._thread: threading.Thread | None = None
        self._bound = threading.Event()
        self.report: BatchReport | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, resume: bool = False, timeout: float = 10.0) -> "ServerThread":
        self.service.start(resume=resume)

        def _main() -> None:
            asyncio.run(
                self.server.run(
                    install_signals=False,
                    announce=lambda _msg: self._bound.set(),
                )
            )

        self._thread = threading.Thread(
            target=_main, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._bound.wait(timeout):
            raise RuntimeError("HTTP server failed to bind in time")
        return self

    def stop(self, drain: bool = True) -> BatchReport:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.report = self.service.stop(drain=drain)
        return self.report


__all__ = ["ServerThread", "ServiceServer", "run_server"]
