"""Asyncio batch compile server.

One process, three moving parts:

* **Front door** — an ``asyncio.start_server`` loop speaking a small
  HTTP/1.1 subset (keep-alive, ``Content-Length`` framed bodies).
  ``POST /compile`` takes the JSON request shape of
  :mod:`repro.serve.protocol`; ``GET /healthz`` and ``GET /stats``
  observe the server; ``POST /shutdown`` starts a graceful drain.

* **Dedup + store** — each request resolves to its content-addressed
  cache key.  A key already being compiled joins the in-flight future
  (N identical concurrent requests cost one compile); a key already in
  the artifact store answers immediately without queueing; only novel
  keys enter the bounded dispatch queue.  A full queue answers
  ``429`` with ``Retry-After`` — backpressure instead of unbounded
  memory.

* **Batch dispatcher** — a single task drains the queue, coalescing up
  to ``batch_max`` requests within a ``batch_linger_ms`` window, and
  ships each batch to the worker pool as *one* task (one IPC
  round-trip per batch, not per request).  Workers compile, persist
  artifacts into the shared store, and return response summaries; the
  dispatcher resolves every waiter.  A worker that dies breaks the
  whole pool: the dispatcher replaces it, answers the lost batch with a
  retryable ``503 worker_lost``, and keeps serving.

Responses carry ``"served": "compiled" | "cache" | "dedup"`` so
clients (and the load generator) can attribute how each answer was
obtained; the compiled result itself is bit-identical regardless.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compiler.service import CompileRequest, compile_one
from repro.evaluation.compile_cache import CompileCache
from repro.serve.protocol import ProtocolError, parse_compile_request
from repro.serve.store import ArtifactStore

if TYPE_CHECKING:  # the pool's modules load only when a pool is made
    from concurrent.futures import ProcessPoolExecutor

_SHUTDOWN = object()

#: Largest request body the front door accepts.
MAX_BODY_BYTES = 8 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class CompileFailure(Exception):
    """A compile job raised inside the worker; message is the rendered
    worker-side exception."""


class WorkerLost(Exception):
    """A pool worker died while the batch was in flight; the request
    may be retried against the replacement pool."""


@dataclass(frozen=True)
class ServerConfig:
    """Everything that shapes one server process."""

    store_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    max_bytes: int | None = None
    queue_limit: int = 64
    batch_max: int = 16
    batch_linger_ms: float = 2.0
    #: Worker processes; ``0`` compiles batches on a thread in-process
    #: (deterministic and fork-free — what the asyncio tests use).
    jobs: int = 1
    retry_after_s: int = 1


def _compile_batch_worker(
    store_dir: str,
    max_bytes: int | None,
    items: list[tuple[str, CompileRequest]],
) -> list[tuple[bool, object]]:
    """Compile one batch inside a pool worker.

    Artifacts are persisted here, in the worker, so a result is durable
    in the shared store before any waiter sees it.  Per-item failures
    come back as ``(False, message)`` — one bad loop must not poison
    its batch-mates.
    """
    cache = CompileCache(store_dir, max_bytes=max_bytes)
    results: list[tuple[bool, object]] = []
    for key, request in items:
        try:
            payload = compile_one(request)
            cache.store(key, payload.compiled)
            results.append((True, payload.summary()))
        except Exception as exc:  # noqa: BLE001 — reported to the client
            results.append((False, f"{type(exc).__name__}: {exc}"))
    return results


@dataclass
class ServerStats:
    requests: int = 0
    compiles: int = 0
    compile_errors: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    rejected: int = 0
    bad_requests: int = 0
    pool_restarts: int = 0
    batches: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "compiles": self.compiles,
            "compile_errors": self.compile_errors,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "rejected": self.rejected,
            "bad_requests": self.bad_requests,
            "pool_restarts": self.pool_restarts,
            "batches": {str(k): v for k, v in sorted(self.batches.items())},
        }


class CompileServer:
    """The batching, deduplicating compile front door."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = ArtifactStore(
            config.store_dir, max_bytes=config.max_bytes
        )
        self.stats = ServerStats()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._queue: asyncio.Queue | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._dispatcher: asyncio.Task | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._gate: asyncio.Event | None = None
        self._draining = False
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._gate = asyncio.Event()
        self._gate.set()
        self._stopped = asyncio.Event()
        if self.config.jobs >= 1:
            self._pool = self._new_pool()
        self._dispatcher = loop.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: refuse new compiles, finish every accepted
        one, then stop the dispatcher, listener, and pool."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        while self._inflight or (self._queue and not self._queue.empty()):
            await asyncio.sleep(0.005)
        await self._queue.put(_SHUTDOWN)
        await self._dispatcher
        self._server.close()
        await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def _new_pool(self) -> ProcessPoolExecutor:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Fork workers inherit the fully imported compiler, so the pool
        # is warm from its first batch.
        return ProcessPoolExecutor(
            max_workers=self.config.jobs,
            mp_context=multiprocessing.get_context("fork"),
        )

    # -- test hooks ----------------------------------------------------

    def hold_dispatch(self) -> None:
        """Pause the dispatcher (tests: fill the queue deterministically
        to exercise backpressure)."""
        self._gate.clear()

    def release_dispatch(self) -> None:
        self._gate.set()

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        linger = self.config.batch_linger_ms / 1e3
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            await self._gate.wait()
            batch = [item]
            stop_after = False
            deadline = loop.time() + linger
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0 and linger > 0:
                    break
                try:
                    if linger > 0:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    else:
                        nxt = self._queue.get_nowait()
                except (asyncio.TimeoutError, asyncio.QueueEmpty):
                    break
                if nxt is _SHUTDOWN:
                    stop_after = True
                    break
                batch.append(nxt)
            size = len(batch)
            self.stats.batches[size] = self.stats.batches.get(size, 0) + 1
            await self._run_batch(batch)
            if stop_after:
                return

    async def _run_batch(
        self, batch: list[tuple[str, CompileRequest]]
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            if self._pool is not None:
                results = await loop.run_in_executor(
                    self._pool,
                    _compile_batch_worker,
                    self.store.directory,
                    self.store.cache.max_bytes,
                    batch,
                )
            else:
                results = await asyncio.to_thread(
                    _compile_batch_worker,
                    self.store.directory,
                    self.store.cache.max_bytes,
                    batch,
                )
        except BaseException as exc:  # the batch is lost: fail every waiter
            failure: Exception = CompileFailure(str(exc))
            if isinstance(exc, BrokenExecutor) and self._pool is not None:
                # A dead worker breaks the whole pool; replace it so
                # the next batch runs, and let these waiters retry.
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = self._new_pool()
                self.stats.pool_restarts += 1
                failure = WorkerLost(str(exc))
            for key, _ in batch:
                fut = self._inflight.pop(key, None)
                if fut is not None and not fut.done():
                    fut.set_exception(failure)
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        for (key, _), (ok, value) in zip(batch, results):
            fut = self._inflight.pop(key, None)
            if ok:
                self.stats.compiles += 1
                summary = self.store.memoize_summary(key, value)
                if fut is not None and not fut.done():
                    fut.set_result(summary)
            else:
                self.stats.compile_errors += 1
                if fut is not None and not fut.done():
                    fut.set_exception(CompileFailure(str(value)))

    # -- request handling ----------------------------------------------

    async def _handle_compile(
        self, body: dict
    ) -> tuple[int, dict, dict[str, str]]:
        if self._draining:
            return (
                503,
                {
                    "error": {
                        "code": "draining",
                        "message": "server is shutting down",
                    }
                },
                {},
            )
        try:
            request = parse_compile_request(body)
        except ProtocolError as exc:
            self.stats.bad_requests += 1
            return exc.status, exc.body(), {}
        key = await asyncio.to_thread(request.cache_key)

        fut = self._inflight.get(key)
        if fut is None:
            summary = await asyncio.to_thread(
                self.store.get_summary, key, request
            )
            if summary is not None:
                self.stats.cache_hits += 1
                return 200, {"key": key, "served": "cache", "result": summary}, {}
            # The store read ran on a thread; an identical request may
            # have claimed the key meanwhile.
            fut = self._inflight.get(key)

        if fut is not None:
            self.stats.dedup_hits += 1
            try:
                summary = await asyncio.shield(fut)
            except (CompileFailure, WorkerLost) as exc:
                return self._failure_response(exc)
            return 200, {"key": key, "served": "dedup", "result": summary}, {}

        fut = asyncio.get_running_loop().create_future()
        self._inflight[key] = fut
        try:
            self._queue.put_nowait((key, request))
        except asyncio.QueueFull:
            del self._inflight[key]
            self.stats.rejected += 1
            return (
                429,
                {
                    "error": {
                        "code": "saturated",
                        "message": "compile queue is full; retry shortly",
                    }
                },
                {"Retry-After": str(self.config.retry_after_s)},
            )
        try:
            summary = await asyncio.shield(fut)
        except (CompileFailure, WorkerLost) as exc:
            return self._failure_response(exc)
        return 200, {"key": key, "served": "compiled", "result": summary}, {}

    def _failure_response(
        self, exc: CompileFailure | WorkerLost
    ) -> tuple[int, dict, dict[str, str]]:
        if isinstance(exc, WorkerLost):
            return (
                503,
                _error(
                    "worker_lost",
                    f"a compile worker died mid-batch; retry shortly ({exc})",
                ),
                {"Retry-After": str(self.config.retry_after_s)},
            )
        return 500, _error("compile_error", str(exc)), {}

    def _stats_body(self) -> dict:
        body = self.stats.to_dict()
        body["jobs"] = self.config.jobs
        body["draining"] = self._draining
        body["queue_depth"] = self._queue.qsize() if self._queue else 0
        body["inflight"] = len(self._inflight)
        body["store"] = self.store.stats()
        return body

    async def _route(
        self, method: str, path: str, body_bytes: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, _error("method_not_allowed", "use GET"), {}
            return 200, {"ok": True, "draining": self._draining}, {}
        if path == "/stats":
            if method != "GET":
                return 405, _error("method_not_allowed", "use GET"), {}
            return 200, self._stats_body(), {}
        if path == "/shutdown":
            if method != "POST":
                return 405, _error("method_not_allowed", "use POST"), {}
            asyncio.get_running_loop().create_task(self.drain_and_stop())
            return 200, {"ok": True, "draining": True}, {}
        if path == "/compile":
            if method != "POST":
                return 405, _error("method_not_allowed", "use POST"), {}
            try:
                body = json.loads(body_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self.stats.bad_requests += 1
                return 400, _error("bad_json", f"body is not JSON: {exc}"), {}
            return await self._handle_compile(body)
        return 404, _error("not_found", f"no route {path!r}"), {}

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body_bytes, framing_error = parsed
                if framing_error is not None:
                    status, body, extra = framing_error
                    keep_alive = False
                else:
                    self.stats.requests += 1
                    status, body, extra = await self._route(
                        method, path, body_bytes
                    )
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                payload = json.dumps(body, sort_keys=True).encode("utf-8")
                head = [
                    f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(payload)}",
                    f"Connection: {'keep-alive' if keep_alive else 'close'}",
                ]
                head.extend(f"{k}: {v}" for k, v in extra.items())
                writer.write(
                    ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels connection tasks; finishing the
            # task normally keeps the streams done-callback quiet.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop teardown cancels handler tasks mid-close; the
                # connection is going away either way.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes, tuple[int, dict, dict[str, str]] | None] | None:
        """One framed request: ``(method, path, headers, body, error)``,
        or ``None`` on a cleanly closed connection.  ``error`` is a
        pre-built response for framing problems (bad request line,
        oversized body) — the connection closes after sending it."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return (
                "",
                "",
                {},
                b"",
                (400, _error("bad_request_line", "malformed request line"), {}),
            )
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return None
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return (
                method,
                path,
                headers,
                b"",
                (400, _error("bad_length", "bad Content-Length"), {}),
            )
        if length > MAX_BODY_BYTES:
            return (
                method,
                path,
                headers,
                b"",
                (413, _error("too_large", "request body too large"), {}),
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, None


def _error(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}
