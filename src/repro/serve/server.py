"""The asyncio HTTP/JSON front end: transport, routing, admission, compute.

Pure stdlib: :func:`asyncio.start_server` plus a small HTTP/1.1 parser
(request line, headers, ``Content-Length`` bodies, keep-alive).  The
interesting parts live below the transport:

* :class:`ComputeBackend` — maps a coalesced batch onto the runtime.
  Alignment batches become **one** rank-3 stacked kernel dispatch via
  :func:`repro.apps.alignment.batch_tables`; generic ``.zpl`` batches
  share one parse/compile and run per-request.  With ``grid`` set the
  compiled plans dispatch on a shared
  :class:`~repro.parallel.PoolSupervisor`-managed worker pool (which
  respawns dead workers between batches).
* :class:`ServeApp` — the transport-independent core: parse, admit,
  coalesce (:class:`~repro.serve.batching.Batcher`), await with a
  per-request deadline, map typed errors onto statuses, record metrics
  and ``serve_request`` spans.  Tests drive :meth:`ServeApp.handle`
  directly; the HTTP layer is a thin shell around it.

Every failure mode the serving contract names is typed end to end:
malformed payload → 400 ``bad_request``, full queue → 429 ``queue_full``
(+ ``Retry-After``), per-request deadline → 504 ``timeout``, dead worker
→ 503 ``pool_broken`` — and none of them poisons the next request.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.apps import alignment
from repro.errors import PoolBrokenError
from repro.machine.params import CRAY_T3E, MachineParams
from repro.obs import Trace, resolve_tracer
from repro.obs.live import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    FLIGHT,
    LIVE,
    MONITOR,
    fabric_summary,
    prometheus_text,
    wants_text,
    worker_table,
)
from repro.runtime import execute_vectorized
from repro.serve.batching import Batcher, BatchResult
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    BackendBroken,
    BadRequest,
    QueueFull,
    RequestTimeout,
    ServeError,
    parse_request,
)
from repro.serve.scheduler import make_policy
from repro.zpl import ZArray
from repro.zpl.parser import parse_program
from repro.zpl.regions import Region

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Knobs of one server instance (also the CLI's argument surface)."""

    host: str = "127.0.0.1"
    port: int = 8077
    batch_max: int = 32  # largest fused dispatch
    max_queue: int = 128  # admission bound (pending requests)
    timeout: float = 30.0  # per-request deadline, seconds
    policy: str = "fifo"  # "fifo" | "sjf"
    grid: int | None = None  # worker-pool size; None = in-process compute
    model: MachineParams | None = None  # SJF cost model (pool mode)
    tracer: object = None  # explicit Tracer; None = REPRO_TRACE decides

    def describe(self) -> dict:
        return {
            "batch_max": self.batch_max,
            "max_queue": self.max_queue,
            "timeout_s": self.timeout,
            "policy": self.policy,
            "grid": self.grid,
        }


class ComputeBackend:
    """Executes one coalesced batch; runs on the batcher's worker thread."""

    def __init__(
        self,
        grid: int | None = None,
        pool_timeout: float = 60.0,
        tracer=None,
    ):
        self._supervisor = None
        # The serve tracer rides into pool dispatches so per-block worker
        # spans land in the same trace as serve_request/serve_batch — the
        # end-to-end chain request-id propagation links together.
        self._tracer = tracer
        if grid:
            from repro.parallel import PoolSupervisor

            self._supervisor = PoolSupervisor(grid, timeout=pool_timeout)

    @property
    def procs(self) -> int:
        return self._supervisor.grid.size if self._supervisor else 1

    def _engine(self):
        if self._supervisor is None:
            return execute_vectorized
        supervisor = self._supervisor
        tracer = self._tracer

        def pooled(compiled):
            supervisor.submit(compiled, tracer=tracer)

        return pooled

    def __call__(self, key: tuple, requests: list) -> list:
        if key[0] == "align":
            return self._run_align(requests)
        return self._run_zpl(requests)

    def _run_align(self, requests: list) -> list:
        first = requests[0]
        tables = alignment.batch_tables(
            [(r.a, r.b) for r in requests],
            match=first.match, mismatch=first.mismatch, gap=first.gap,
            local=first.local, engine=self._engine(),
        )
        out = []
        for request, table in zip(requests, tables):
            score = (
                float(table.max()) if request.local
                else float(table[len(request.a), len(request.b)])
            )
            out.append({"kind": request.kind, "score": score})
        return out

    def _run_zpl(self, requests: list) -> list:
        engine = self._engine()
        out = []
        for request in requests:
            arrays = {}
            for name, spec in request.arrays.items():
                region = Region.of(
                    *zip(spec["lo"], spec["hi"]), name=name
                )
                arr = ZArray(region, name=name, fluff=spec["fluff"],
                             fill=spec.get("fill", 0.0))
                if "data" in spec:
                    data = np.asarray(spec["data"], dtype=np.float64)
                    if data.shape != arr.region.shape:
                        raise BadRequest(
                            f"array {name!r} data has shape {data.shape}, "
                            f"declared {arr.region.shape}"
                        )
                    arr.write(arr.region, data)
                arrays[name] = arr
            try:
                program = parse_program(
                    request.source, arrays, filename="<request>"
                )
                program.run(engine)
            except (BadRequest, PoolBrokenError):
                raise
            except Exception as exc:
                raise BadRequest(f"zpl program failed: {exc}") from exc
            out.append(
                {"arrays": {n: a.to_numpy().tolist() for n, a in arrays.items()}}
            )
        return out

    def close(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()


class ServeApp:
    """The request pipeline; owns metrics, tracer, batcher, backend."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.tracer = resolve_tracer(self.config.tracer)
        self.monitor = MONITOR
        self.backend = ComputeBackend(self.config.grid, tracer=self.tracer)
        model = self.config.model
        if model is None and self.backend.procs >= 2:
            model = CRAY_T3E
        self.batcher = Batcher(
            self.backend,
            make_policy(self.config.policy),
            batch_max=self.config.batch_max,
            max_queue=self.config.max_queue,
            metrics=self.metrics,
            tracer=self.tracer,
            model_params=model,
            procs=self.backend.procs,
        )
        self._ids = count(1)
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.close()
        self.backend.close()

    def trace(self) -> Trace:
        """Package the recorded spans (meta marks this as a serve trace)."""
        meta = {"backend": "serve", **self.config.describe()}
        return Trace.from_tracer(self.tracer, clock="wall", meta=meta)

    # -- telemetry documents -------------------------------------------------
    def metrics_document(self) -> dict:
        """The JSON ``/metrics`` body: serve counters + live telemetry."""
        doc = self.metrics.snapshot()
        doc["workers"] = worker_table(LIVE)
        doc["fabric"] = fabric_summary(LIVE)
        doc["model"] = self.monitor.snapshot()
        doc["flight"] = {
            "enabled": FLIGHT.enabled,
            "written": FLIGHT.written,
            "dropped": FLIGHT.dropped,
            "capacity": FLIGHT.capacity,
        }
        return doc

    def prometheus_document(self) -> str:
        """The Prometheus text-exposition ``/metrics`` body."""
        return prometheus_text(
            serve_snapshot=self.metrics.snapshot(),
            registry=LIVE,
            model=self.monitor.snapshot(),
            flight=FLIGHT,
        )

    # -- request pipeline (transport-independent) ----------------------------
    async def handle(self, method: str, path: str, payload: object,
                     accept: str = ""):
        """Route one request; returns ``(status, body, extra_headers)``.

        ``body`` is a JSON-ready dict, except for ``/metrics`` under a
        ``text/plain``/OpenMetrics ``Accept`` header, where it is the
        Prometheus exposition string (content negotiation).
        """
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}, []
            return 200, {"ok": True, "queue_depth": self.batcher.depth}, []
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}, []
            if wants_text(accept):
                return 200, self.prometheus_document(), [
                    ("Content-Type", PROMETHEUS_CONTENT_TYPE),
                ]
            return 200, self.metrics_document(), []
        if path not in ("/v1/align", "/v1/zpl"):
            return 404, {"error": "not_found", "message": f"no route {path}"}, []
        if method != "POST":
            return 405, {"error": "method_not_allowed"}, []
        return await self._handle_compute(path, payload)

    async def _handle_compute(self, path: str, payload: object):
        rid = next(self._ids)
        started = time.perf_counter()
        self.metrics.on_received()
        kind, status, batch_size = path.rsplit("/", 1)[-1], 200, 0
        queue_wait = compute = 0.0
        headers: list[tuple[str, str]] = []
        try:
            request = parse_request(path, payload)
            kind = getattr(request, "kind", kind)
            future = self.batcher.submit(request, rid)
            try:
                result: BatchResult = await asyncio.wait_for(
                    future, self.config.timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise RequestTimeout(
                    f"request {rid} missed its {self.config.timeout:g}s deadline"
                ) from None
            batch_size = result.batch_size
            queue_wait, compute = result.queue_wait, result.compute
            body = {"id": rid, "batch": batch_size, **result.value}
            self.metrics.on_completed(
                time.perf_counter() - started, queue_wait, compute
            )
        except BadRequest as exc:
            status = exc.status
            self.metrics.on_bad_request()
            body = exc.payload()
        except QueueFull as exc:
            status = exc.status  # metrics counted at the admission gate
            # RFC 9110 §10.2.3: delay-seconds is a whole number; the body
            # keeps the fine-grained hint.
            headers.append(
                ("Retry-After", str(max(1, math.ceil(exc.retry_after))))
            )
            body = {**exc.payload(), "retry_after": exc.retry_after}
        except RequestTimeout as exc:
            status = exc.status
            self.metrics.on_timeout()
            body = exc.payload()
        except PoolBrokenError as exc:
            status = BackendBroken.status
            self.metrics.on_failed()
            body = BackendBroken(str(exc)).payload()
        except ServeError as exc:
            status = exc.status
            self.metrics.on_failed()
            body = exc.payload()
        except Exception as exc:  # the 500 of last resort; never crash
            status = 500
            self.metrics.on_failed()
            body = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        finished = time.perf_counter()
        self.tracer.add_span(
            "serve_request", "serve", started, finished,
            id=rid, kind=kind, status=status, batch=batch_size,
            queue_ms=queue_wait * 1e3, compute_ms=compute * 1e3,
        )
        FLIGHT.span(
            "serve_request", started, finished,
            rid=rid, kind=kind, status=status, batch=batch_size,
        )
        return status, body, headers

    # -- HTTP/1.1 shell ------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(writer, 400, {
                        "error": "bad_request", "message": "malformed request line",
                    }, [], close=True)
                    break
                method, target, _version = parts
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_BODY_BYTES:
                    await self._respond(writer, 413, {
                        "error": "payload_too_large",
                        "message": f"body of {length} bytes refused",
                    }, [], close=True)
                    break
                body = await reader.readexactly(length) if length else b""
                payload = None
                parse_error = None
                if body:
                    try:
                        payload = json.loads(body)
                    except ValueError as exc:
                        parse_error = f"body is not valid JSON: {exc}"
                if parse_error is not None:
                    self.metrics.on_received()
                    self.metrics.on_bad_request()
                    status, out, extra = 400, {
                        "error": "bad_request", "message": parse_error,
                    }, []
                else:
                    status, out, extra = await self.handle(
                        method, target.split("?", 1)[0], payload,
                        accept=headers.get("accept", ""),
                    )
                close = headers.get("connection", "").lower() == "close"
                await self._respond(writer, status, out, extra, close=close)
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection's task
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, writer, status, body, extra, *, close=False) -> None:
        # A str body is pre-rendered (Prometheus text exposition); its
        # Content-Type arrives via ``extra``.  Everything else is JSON.
        if isinstance(body, str):
            data = body.encode()
            content_type = None
        else:
            data = json.dumps(body).encode()
            content_type = "application/json"
        head = [f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}"]
        if content_type is not None and not any(
            name.lower() == "content-type" for name, _ in extra
        ):
            head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(data)}")
        head.extend(f"{name}: {value}" for name, value in extra)
        head.append(f"Connection: {'close' if close else 'keep-alive'}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()


async def serve_forever(config: ServeConfig, ready=None) -> None:
    """Run a server until SIGINT/SIGTERM (the ``python -m repro.serve`` core)."""
    import signal

    app = ServeApp(config)
    await app.start()
    if ready is not None:
        ready(app)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await app.stop()
