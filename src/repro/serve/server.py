"""Asyncio batch compile server.

One process, three moving parts:

* **Front door** — an ``asyncio.start_server`` loop speaking a small
  HTTP/1.1 subset (keep-alive, ``Content-Length`` framed bodies, each
  request read within ``READ_TIMEOUT_S``).  ``POST /compile`` takes
  the JSON request shape of :mod:`repro.serve.protocol`;
  ``GET /healthz`` and ``GET /stats`` observe the server;
  ``POST /shutdown`` starts a graceful drain.

* **One resolution per key** — each request maps to its
  content-addressed cache key; a body seen before maps to it without
  being parsed again.  A key whose summary is memoized answers at
  once.  Otherwise the first request for the key claims it and
  resolves it: one store read on a thread, and on a miss one compile.
  Every copy that arrives meanwhile joins that claim and gets the same
  answer.  Only novel keys enter the bounded dispatch queue; a full
  queue answers ``429`` with ``Retry-After`` — backpressure instead of
  unbounded memory.

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

from repro.compiler.service import CompileRequest, compile_one, fork_pool
from repro.evaluation.compile_cache import CompileCache, code_version
from repro.serve.protocol import ProtocolError, parse_compile_request
from repro.serve.store import SUMMARY_SLOTS, ArtifactStore

if TYPE_CHECKING:  # the pool's modules load only when a pool is made
    from concurrent.futures import ProcessPoolExecutor

_SHUTDOWN = object()

#: Largest request body the front door accepts.
MAX_BODY_BYTES = 8 << 20

#: Longest a request may take to arrive, from the first byte of its
#: request line to the last byte of its body.  A keep-alive connection
#: idle between requests is not timed.
READ_TIMEOUT_S = 10.0

#: An answer: status, JSON body and extra headers.
Reply = tuple[int, dict, dict[str, str]]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ResolutionFailure(Exception):
    """A key's resolution ended without a summary.  Every request
    waiting on the key is answered with ``status`` and ``code``, plus
    ``Retry-After`` when ``retryable``."""

    status = 500
    code = "compile_error"
    retryable = False


class CompileFailure(ResolutionFailure):
    """A compile job raised inside the worker; message is the rendered
    worker-side exception."""


class WorkerLost(ResolutionFailure):
    """A pool worker died while the batch was in flight; the request
    may be retried against the replacement pool."""

    status = 503
    code = "worker_lost"
    retryable = True


class Saturated(ResolutionFailure):
    """The dispatch queue was full when the key was to be compiled."""

    status = 429
    code = "saturated"
    retryable = True


class StoreFailure(ResolutionFailure):
    """Reading the key's stored artifact raised."""

    code = "store_error"


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
    in the shared store before any waiter sees it; the summary returned
    is the one the store wrote in front of the artifact.  Per-item failures
    come back as ``(False, message)`` — one bad loop must not poison
    its batch-mates.
    """
    cache = CompileCache(store_dir, max_bytes=max_bytes)
    results: list[tuple[bool, object]] = []
    for key, request in items:
        try:
            compiled = compile_one(request).compiled
            results.append((True, cache.store(key, compiled)))
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
        #: Key of each body seen, by the body's SHA-256 digest (LRU).
        self._bodies: dict[bytes, str] = {}
        #: One resolution per key being resolved: a future of
        #: ``(source, summary)``, ``source`` being ``cache`` or
        #: ``compiled``, or of a :class:`ResolutionFailure`.
        self._inflight: dict[str, asyncio.Future] = {}
        self._dispatcher: asyncio.Task | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._gate: asyncio.Event | None = None
        self._draining = False
        #: Connections waiting for their next request, and whether the
        #: drain has finished the accepted work and closes them.
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing_idle = False
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        # Every cache key hashes the compiler's source files: read them
        # once, off the loop, so that no request reads a file on it.
        await asyncio.to_thread(code_version)
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._gate = asyncio.Event()
        self._gate.set()
        self._stopped = asyncio.Event()
        if self.config.jobs >= 1:
            self._pool = fork_pool(self.config.jobs)
        self._dispatcher = loop.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: refuse new compiles, finish every accepted
        one, then stop the dispatcher, listener, connections and pool.

        A request answered during the drain closes its connection; once
        the accepted work is done, connections idle between requests
        are closed too (from Python 3.12.1 ``wait_closed`` waits for
        every connection)."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        while self._inflight or (self._queue and not self._queue.empty()):
            await asyncio.sleep(0.005)
        await self._queue.put(_SHUTDOWN)
        await self._dispatcher
        self._server.close()
        self._closing_idle = True
        for writer in list(self._idle):
            writer.close()
        await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

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
            failure: ResolutionFailure = CompileFailure(str(exc))
            if isinstance(exc, BrokenExecutor) and self._pool is not None:
                # A dead worker breaks the whole pool; replace it so
                # the next batch runs, and let these waiters retry.
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = fork_pool(self.config.jobs)
                self.stats.pool_restarts += 1
                failure = WorkerLost(
                    f"a compile worker died mid-batch; retry shortly ({exc})"
                )
            for key, _ in batch:
                self._settle(key, failure)
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        for (key, _), (ok, value) in zip(batch, results):
            if ok:
                self.stats.compiles += 1
                summary = self.store.memoize_summary(key, value)
                self._settle(key, ("compiled", summary))
            else:
                self.stats.compile_errors += 1
                self._settle(key, CompileFailure(str(value)))

    def _settle(
        self, key: str, outcome: tuple[str, dict] | ResolutionFailure
    ) -> None:
        """End ``key``'s resolution: release its claim and answer every
        request waiting on it with ``outcome``."""
        resolution = self._inflight.pop(key, None)
        if resolution is None or resolution.done():
            return
        if isinstance(outcome, ResolutionFailure):
            resolution.set_exception(outcome)
        else:
            resolution.set_result(outcome)

    # -- request handling ----------------------------------------------

    async def _handle_compile(self, body_bytes: bytes) -> Reply:
        """Answer one compile request, resolving each key once.

        A body seen before maps to its key without being parsed, and a
        memoized summary answers at once.  A key already being resolved
        is joined.  Otherwise this request claims the key before its
        first ``await`` and resolves it: one store read on a thread,
        and on a miss one compile.  Raises :class:`ProtocolError` for a
        malformed body.
        """
        if self._draining:
            return 503, _error("draining", "server is shutting down"), {}
        import hashlib

        digest = hashlib.sha256(body_bytes).digest()
        request: CompileRequest | None = None
        key = self._bodies.pop(digest, None)
        if key is None:
            request = _parse(body_bytes)
            key = request.cache_key()
            if len(self._bodies) >= SUMMARY_SLOTS:
                del self._bodies[next(iter(self._bodies))]
        self._bodies[digest] = key  # popped and put back: oldest use first

        summary = self.store.memoized(key)
        if summary is not None:
            return self._served(key, "cache", summary)
        resolution = self._inflight.get(key)
        if resolution is not None:
            return await self._await_resolution(key, resolution, "dedup")

        if request is None:
            # The key's summary left the memo, or its last resolution
            # failed: the body parses as it did the first time.
            request = _parse(body_bytes)
        resolution = asyncio.get_running_loop().create_future()
        self._inflight[key] = resolution
        try:
            summary = await asyncio.to_thread(
                self.store.get_summary, key, request
            )
        except BaseException as exc:
            # However the read ends, every joiner gets an answer.
            self._settle(key, StoreFailure(f"{type(exc).__name__}: {exc}"))
            if not isinstance(exc, Exception):
                raise
        else:
            if summary is not None:
                self._settle(key, ("cache", summary))
            else:
                try:
                    self._queue.put_nowait((key, request))
                except asyncio.QueueFull:
                    self._settle(
                        key, Saturated("compile queue is full; retry shortly")
                    )
        return await self._await_resolution(key, resolution, "compiled")

    async def _await_resolution(
        self, key: str, resolution: asyncio.Future, compiled_as: str
    ) -> Reply:
        """The answer of ``key``'s resolution.  A store read answers
        ``cache``; a compile answers ``compiled_as``: ``compiled`` for
        the request that claimed the key, ``dedup`` for a joiner."""
        try:
            source, summary = await asyncio.shield(resolution)
        except ResolutionFailure as exc:
            return self._failure_response(exc)
        return self._served(
            key, compiled_as if source == "compiled" else source, summary
        )

    def _served(self, key: str, served: str, summary: dict) -> Reply:
        if served == "cache":
            self.stats.cache_hits += 1
        elif served == "dedup":
            self.stats.dedup_hits += 1
        return 200, {"key": key, "served": served, "result": summary}, {}

    def _failure_response(self, exc: ResolutionFailure) -> Reply:
        if isinstance(exc, Saturated):
            self.stats.rejected += 1
        headers = (
            {"Retry-After": str(self.config.retry_after_s)}
            if exc.retryable
            else {}
        )
        return exc.status, _error(exc.code, str(exc)), headers

    def _stats_body(self) -> dict:
        body = self.stats.to_dict()
        body["jobs"] = self.config.jobs
        body["draining"] = self._draining
        body["queue_depth"] = self._queue.qsize() if self._queue else 0
        body["inflight"] = len(self._inflight)
        body["store"] = self.store.stats()
        return body

    async def _route(self, method: str, path: str, body_bytes: bytes) -> Reply:
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
                return await self._handle_compile(body_bytes)
            except ProtocolError as exc:
                self.stats.bad_requests += 1
                return exc.status, exc.body(), {}
        return 404, _error("not_found", f"no route {path!r}"), {}

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader, writer)
                except ProtocolError as exc:
                    # A framing error: answer it, then close.
                    await _respond(
                        writer, exc.status, exc.body(), {}, keep_alive=False
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body_bytes = parsed
                self.stats.requests += 1
                status, body, extra = await self._route(
                    method, path, body_bytes
                )
                keep_alive = not self._draining and (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                await _respond(writer, status, body, extra, keep_alive)
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
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """One framed request ``(method, path, headers, body)``, or
        ``None`` on a closed connection.  Raises :class:`ProtocolError`
        for a framing problem (bad request line, bad or oversized
        length, over-long line, a request not received in time)."""
        if self._closing_idle:
            return None
        self._idle.add(writer)
        try:
            first = await reader.read(1)  # idle between requests: untimed
        finally:
            self._idle.discard(writer)
        if not first:
            return None
        # On expiry the timer cancels this task, and the flag tells that
        # cancel from the loop's own.  (``asyncio.wait_for`` would run
        # the read as a task of its own: ~30 µs a request on Python
        # 3.11; ``asyncio.timeout`` needs 3.11.)
        task = asyncio.current_task()
        assert task is not None
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        timer = asyncio.get_running_loop().call_later(READ_TIMEOUT_S, expire)
        try:
            return await _read_framed(first, reader)
        except asyncio.CancelledError:
            if not expired:
                raise
            raise ProtocolError(
                "read_timeout",
                f"request not received within {READ_TIMEOUT_S:g} s",
                status=408,
            ) from None
        finally:
            timer.cancel()


def _parse(body_bytes: bytes) -> CompileRequest:
    """Decode and validate one compile request body; raises
    :class:`ProtocolError`."""
    try:
        body = json.loads(body_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
        raise ProtocolError("bad_json", f"body is not JSON: {exc}") from None
    return parse_compile_request(body)


async def _read_framed(
    first: bytes, reader: asyncio.StreamReader
) -> tuple[str, str, dict[str, str], bytes] | None:
    """The rest of a request whose first byte is ``first``."""
    parts = (first + await _read_line(reader)).decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError("bad_request_line", "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            return None
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError("bad_length", "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError("too_large", "request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line overran the stream's buffer limit
        raise ProtocolError(
            "line_too_long", "request line or header line too long"
        ) from None


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    body: dict,
    extra: dict[str, str],
    keep_alive: bool,
) -> None:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{k}: {v}" for k, v in extra.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload)
    await writer.drain()


def _error(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}
