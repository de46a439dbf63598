"""The AIQL network front door: asyncio HTTP + WebSocket service.

Routes (all JSON payloads are :mod:`repro.api` messages):

=========================  ======================================================
``POST /v1/query``         body :class:`QueryRequest`; responds with a chunked
                           NDJSON stream of :class:`QueryPage` (the final page
                           carries ``meta`` — elapsed, degraded-read
                           completeness)
``GET  /v1/explain``       ``?q=<aiql>&analyze=0|1``; one
                           :class:`ExplainReportPayload`
``GET  /v1/metrics``       Prometheus text exposition (the PR 8 registry)
``GET  /v1/stats``         :class:`StatsPayload` (deployment + server stats)
``GET  /healthz``          :class:`HealthPayload`
``GET  /v1/alerts``        WebSocket upgrade; client sends
                           :class:`SubscribeRequest`, server acks and pushes
                           one :class:`AlertMessage` per standing-query match
=========================  ======================================================

Queries execute on the existing :class:`~repro.service.QueryService`
(in-flight dedup, sharded scatter/gather — nothing engine-
side changed) via ``asyncio``-wrapped futures; the event loop never
blocks on a scan.  Admission control
(:class:`~repro.server.admission.AdmissionController`) bounds in-flight
queries with per-client round-robin fairness and answers ``429`` +
``Retry-After`` past saturation.  Every error is one
:class:`~repro.api.ErrorEnvelope` with a stable taxonomy code.

Alert push: subscription callbacks fire on the stream-commit thread;
each alert is serialized there and marshalled onto the loop with
``call_soon_threadsafe`` into a bounded per-connection queue (drops are
counted, never block a commit) that a writer task drains into WebSocket
text frames.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, AsyncIterator, Dict, Optional, Set

from repro import api
from repro.obs.metrics import REGISTRY
from repro.server import websocket
from repro.server.admission import AdmissionController, Overloaded
from repro.server.http import (
    HttpProtocolError,
    HttpRequest,
    read_request,
    send_chunked,
    send_response,
    split_host_port,
)

_M_REQUESTS = REGISTRY.counter(
    "aiql_http_requests_total", "HTTP requests served", labelnames=("route",)
)
_M_ERRORS = REGISTRY.counter(
    "aiql_http_errors_total", "HTTP error responses", labelnames=("code",)
)
_M_REJECTED = REGISTRY.counter(
    "aiql_http_rejected_total", "Requests shed by admission control (429)"
)
_M_LATENCY = REGISTRY.histogram(
    "aiql_http_request_seconds", "HTTP request service time"
)
_M_WS_ALERTS = REGISTRY.counter(
    "aiql_ws_alerts_sent_total", "Alerts pushed over WebSockets"
)
_M_WS_DROPPED = REGISTRY.counter(
    "aiql_ws_alerts_dropped_total",
    "Alerts dropped on full per-connection queues",
)


class _AlertConnection:
    """Per-WebSocket state: subscriptions + the bounded push queue."""

    def __init__(self, queue_depth: int) -> None:
        self.queue: "asyncio.Queue[Optional[api.Message]]" = asyncio.Queue(
            maxsize=queue_depth
        )
        self.subscriptions: Dict[str, Any] = {}
        self.alerts_sent = 0
        self.alerts_dropped = 0


class AIQLServer:
    """One deployment's network front door.

    Construct via :meth:`repro.AIQLSystem.serve`; drive with
    :meth:`run` (asyncio) or :meth:`start_background` (own thread, for
    tests/benchmarks and in-process embedding).
    """

    def __init__(
        self,
        system: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.system = system
        self.host = host
        self._requested_port = port
        config = system.config
        self.page_rows = config.server_page_rows
        self.max_body_bytes = config.server_max_body_bytes
        self.alert_queue_depth = config.server_alert_queue
        self.admission = AdmissionController(
            max_inflight=config.server_max_inflight,
            max_queued=config.server_queue_depth,
            per_client_queue=config.server_client_queue_depth,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._alert_conns: Set[_AlertConnection] = set()
        self.connections = 0
        self.requests = 0
        # Cumulative across closed connections (per-conn counters die
        # with the socket; the bench asserts on these).
        self.alerts_sent = 0
        self.alerts_dropped = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "AIQLServer":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def run(self) -> None:
        """Start and serve until cancelled (the CLI entry point)."""
        await self.start()
        await self.serve_forever()

    async def serve_forever(self) -> None:
        """Serve an already-started server until cancelled."""
        if self._server is None:
            raise RuntimeError("server not started")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._alert_conns):
            self._drop_subscriptions(conn)
            conn.queue.put_nowait(None)  # wake the writer task to exit

    def start_background(self) -> "ServerHandle":
        """Run the server on its own thread + loop; returns the handle."""
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            ready.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        thread = threading.Thread(
            target=runner, name="aiql-server", daemon=True
        )
        thread.start()
        ready.wait()
        return ServerHandle(self, loop, thread)

    def stats(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "connections": self.connections,
            "requests": self.requests,
            "admission": self.admission.stats(),
            "alert_connections": len(self._alert_conns),
            "alerts_sent": self.alerts_sent,
            "alerts_dropped": self.alerts_dropped,
            "schema_version": api.SCHEMA_VERSION,
        }

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = split_host_port(writer.get_extra_info("peername"))
        self.connections += 1
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.max_body_bytes, peer
                    )
                except HttpProtocolError as exc:
                    await self._send_error(
                        writer,
                        api.envelope(
                            api.Code.PAYLOAD_TOO_LARGE
                            if exc.status == 413
                            else api.Code.REQUEST_INVALID,
                            str(exc),
                        ),
                        status=exc.status,
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                self.requests += 1
                if websocket.is_upgrade(request):
                    await self._handle_alerts(request, reader, writer)
                    return  # the upgraded connection never returns to HTTP
                keep = await self._dispatch(request, writer)
                if not keep or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one HTTP request; returns False to drop the connection."""
        started = time.perf_counter()
        route = f"{request.method} {request.path}"
        try:
            if request.path == "/healthz":
                if request.method != "GET":
                    return await self._method_not_allowed(writer, request)
                await self._send_message(writer, api.HealthPayload())
            elif request.path == "/v1/metrics":
                if request.method != "GET":
                    return await self._method_not_allowed(writer, request)
                body = self.system.metrics_text().encode("utf-8")
                await send_response(
                    writer, 200, body, content_type="text/plain; version=0.0.4"
                )
            elif request.path == "/v1/stats":
                if request.method != "GET":
                    return await self._method_not_allowed(writer, request)
                await self._send_message(writer, self._stats_payload())
            elif request.path == "/v1/query":
                if request.method != "POST":
                    return await self._method_not_allowed(writer, request)
                await self._handle_query(request, writer)
            elif request.path == "/v1/explain":
                if request.method != "GET":
                    return await self._method_not_allowed(writer, request)
                await self._handle_explain(request, writer)
            elif request.path == "/v1/alerts":
                await self._send_error(
                    writer,
                    api.envelope(
                        api.Code.REQUEST_INVALID,
                        "/v1/alerts is a WebSocket endpoint: send an "
                        "Upgrade: websocket handshake",
                    ),
                    status=426,
                )
            else:
                await self._send_error(
                    writer,
                    api.envelope(
                        api.Code.NOT_FOUND, f"no route {request.path!r}"
                    ),
                )
            return True
        finally:
            _M_REQUESTS.inc(route=route)
            _M_LATENCY.observe(time.perf_counter() - started)

    async def _method_not_allowed(
        self, writer: asyncio.StreamWriter, request: HttpRequest
    ) -> bool:
        await self._send_error(
            writer,
            api.envelope(
                api.Code.METHOD_NOT_ALLOWED,
                f"{request.method} not allowed on {request.path}",
            ),
        )
        return True

    # -- query execution -----------------------------------------------------

    async def _handle_query(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            message = api.from_json(request.body.decode("utf-8"))
            if not isinstance(message, api.QueryRequest):
                raise api.SchemaError(
                    f"expected query_request, got {message.TYPE!r}"
                )
        except (api.SchemaError, UnicodeDecodeError) as exc:
            await self._send_error(writer, api.classify(exc))
            return
        client = message.client_id or request.peer
        try:
            await self.admission.acquire(client)
        except Overloaded as exc:
            _M_REJECTED.inc()
            await self._send_error(writer, api.classify(exc))
            return
        started = time.perf_counter()
        try:
            future = self.system.service.submit(message.text)
            result = await asyncio.wrap_future(future)
        except Exception as exc:
            self.admission.release(time.perf_counter() - started)
            await self._send_error(writer, api.classify(exc))
            return
        elapsed = time.perf_counter() - started
        self.admission.release(elapsed)
        pages = api.pages_from_result(
            result,
            page_rows=message.page_rows or self.page_rows,
            elapsed_ms=elapsed * 1000.0,
        )
        await send_chunked(writer, _ndjson(pages))

    async def _handle_explain(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        text = request.params.get("q", "")
        if not text.strip():
            await self._send_error(
                writer,
                api.envelope(
                    api.Code.REQUEST_INVALID, "/v1/explain needs ?q=<aiql>"
                ),
            )
            return
        analyze = request.params.get("analyze", "1") not in ("0", "false", "")
        try:
            await self.admission.acquire(request.peer)
        except Overloaded as exc:
            _M_REJECTED.inc()
            await self._send_error(writer, api.classify(exc))
            return
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, lambda: self.system.explain(text, analyze=analyze)
            )
        except Exception as exc:
            await self._send_error(writer, api.classify(exc))
            return
        finally:
            self.admission.release(time.perf_counter() - started)
        await self._send_message(writer, api.explain_payload(report))

    # -- standing-query alerts over WebSocket --------------------------------

    async def _handle_alerts(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if request.path != "/v1/alerts":
            await self._send_error(
                writer,
                api.envelope(
                    api.Code.NOT_FOUND,
                    f"no WebSocket route {request.path!r}",
                ),
                keep_alive=False,
            )
            return
        try:
            ws = await websocket.server_handshake(request, reader, writer)
        except HttpProtocolError as exc:
            await self._send_error(
                writer,
                api.envelope(api.Code.REQUEST_INVALID, str(exc)),
                status=exc.status,
                keep_alive=False,
            )
            return
        conn = _AlertConnection(self.alert_queue_depth)
        self._alert_conns.add(conn)
        pusher = asyncio.create_task(self._push_alerts(conn, ws))
        try:
            while True:
                text = await ws.recv_text()
                if text is None:
                    break
                try:
                    await self._handle_ws_message(conn, ws, text)
                except (api.SchemaError, websocket.WebSocketError) as exc:
                    await ws.send_text(api.classify(exc).to_json())
        finally:
            self._alert_conns.discard(conn)
            self._drop_subscriptions(conn)
            conn.queue.put_nowait(None)
            await pusher
            await ws.close()

    async def _handle_ws_message(
        self, conn: _AlertConnection, ws: websocket.WebSocket, text: str
    ) -> None:
        message = api.from_json(text)
        if isinstance(message, api.SubscribeRequest):
            loop = asyncio.get_running_loop()
            name_box: list = []

            def deliver(alert: Any) -> None:
                # Commit-thread side: serialize here, marshal to the loop.
                wire = api.alert_message(
                    alert, subscription=name_box[0] if name_box else ""
                )
                loop.call_soon_threadsafe(self._enqueue_alert, conn, wire)

            try:
                subscription = self.system.subscribe(
                    message.query,
                    callback=deliver,
                    window_s=message.window_s,
                    name=message.name,
                )
            except Exception as exc:
                await ws.send_text(api.classify(exc).to_json())
                return
            name_box.append(subscription.name)
            conn.subscriptions[subscription.name] = subscription
            await ws.send_text(
                api.SubscribeAck(
                    name=subscription.name,
                    patterns=len(subscription.queries),
                    window_s=subscription.horizon_s,
                ).to_json()
            )
        elif isinstance(message, api.UnsubscribeRequest):
            subscription = conn.subscriptions.pop(message.name, None)
            if subscription is None:
                await ws.send_text(
                    api.envelope(
                        api.Code.SUBSCRIPTION_INVALID,
                        f"no subscription named {message.name!r} on this "
                        "connection",
                    ).to_json()
                )
                return
            self.system.unsubscribe(subscription)
            await ws.send_text(
                api.SubscribeAck(
                    name=message.name, patterns=0, window_s=0.0
                ).to_json()
            )
        else:
            raise api.SchemaError(
                f"unexpected {message.TYPE!r} on the alert socket"
            )

    def _enqueue_alert(self, conn: _AlertConnection, wire: api.Message) -> None:
        try:
            conn.queue.put_nowait(wire)
        except asyncio.QueueFull:
            conn.alerts_dropped += 1
            self.alerts_dropped += 1
            _M_WS_DROPPED.inc()

    async def _push_alerts(
        self, conn: _AlertConnection, ws: websocket.WebSocket
    ) -> None:
        while True:
            wire = await conn.queue.get()
            if wire is None:
                return
            try:
                await ws.send_text(wire.to_json())
            except (websocket.WebSocketError, ConnectionError, RuntimeError):
                return
            conn.alerts_sent += 1
            self.alerts_sent += 1
            _M_WS_ALERTS.inc()

    def _drop_subscriptions(self, conn: _AlertConnection) -> None:
        for subscription in conn.subscriptions.values():
            try:
                self.system.unsubscribe(subscription)
            except Exception:
                pass
        conn.subscriptions.clear()

    # -- helpers -------------------------------------------------------------

    def _stats_payload(self) -> api.StatsPayload:
        stats = dict(api.wire_value(self.system.stats()))
        stats["server"] = api.wire_value(self.stats())
        return api.StatsPayload(
            stats=stats, metrics=api.wire_value(self.system.metrics_snapshot())
        )

    async def _send_message(
        self, writer: asyncio.StreamWriter, message: api.Message
    ) -> None:
        await send_response(
            writer, 200, message.to_json().encode("utf-8")
        )

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        env: "api.ErrorEnvelope",
        status: Optional[int] = None,
        keep_alive: bool = True,
    ) -> None:
        _M_ERRORS.inc(code=env.code)
        headers = {}
        if env.retry_after_s is not None:
            headers["Retry-After"] = f"{max(env.retry_after_s, 0.0):.3f}"
        try:
            await send_response(
                writer,
                status if status is not None else env.http_status,
                env.to_json().encode("utf-8"),
                extra_headers=headers,
                keep_alive=keep_alive,
            )
        except (ConnectionError, RuntimeError):
            pass


def _ndjson(pages: Any) -> AsyncIterator[bytes]:
    async def generate() -> AsyncIterator[bytes]:
        for page in pages:
            yield page.to_json().encode("utf-8") + b"\n"

    return generate()


class ServerHandle:
    """A server running on its own background thread (tests/benches)."""

    def __init__(
        self,
        server: AIQLServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 10.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
