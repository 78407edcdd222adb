"""Compile-server semantics, tested in-process over real sockets.

Each test boots a :class:`CompileServer` on a loopback port inside a
plain ``asyncio.run`` and speaks to it with the load generator's HTTP
client — the same code path production traffic takes, minus the
subprocess.  ``jobs=0`` compiles batches on a thread, keeping the
tests fork-free and deterministic; a long ``batch_linger_ms`` plus the
``hold_dispatch`` hook make dedup and backpressure timing-independent.
The dead-worker test is the one that forks a real pool (``jobs=1``).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.evaluation.compile_cache as compile_cache
import repro.serve.server as server_module
from repro.compiler.service import CompileRequest, compile_one
from repro.ledger import Ledger
from repro.serve.loadgen import HttpClient
from repro.serve.protocol import (
    MAX_BASELINE_UNROLL,
    MAX_DSL_CHARS,
    ProtocolError,
    parse_compile_request,
)
from repro.serve.server import CompileServer, ServerConfig
from repro.serve.store import ArtifactStore

DSL = "array x(64), z(64)\ndo i\n z(i) = x(i) + x(i) * 2.0\nend"


def _body(seed: int = 1, strategy: str = "selective") -> dict:
    return {
        "loop": {
            "generator": {
                "archetype": "copy_like",
                "seed": seed,
                "name": f"serve_{seed}",
            }
        },
        "machine": "paper",
        "strategy": strategy,
    }


async def _boot(store_dir: str, **overrides) -> CompileServer:
    defaults = dict(
        store_dir=store_dir, jobs=0, batch_linger_ms=50.0, queue_limit=64
    )
    defaults.update(overrides)
    server = CompileServer(ServerConfig(**defaults))
    await server.start()
    return server


async def _client(server: CompileServer) -> HttpClient:
    client = HttpClient("127.0.0.1", server.port)
    await client.connect()
    return client


async def _exchange(server: CompileServer, data: bytes) -> tuple[int, dict, bool]:
    """Send raw ``data`` on a new connection: ``(status, body, closed)``,
    ``closed`` telling whether the server closed the connection after
    its answer."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        writer.write(data)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        body = json.loads(await reader.readexactly(length))
        closed = await asyncio.wait_for(reader.read(), 5) == b""
    finally:
        writer.close()
    return int(head.split()[1]), body, closed


def _together(*requests):
    """Await ``requests`` together; a request left unanswered fails the
    test after 10 s instead of stalling it."""
    return asyncio.wait_for(asyncio.gather(*requests), 10)


def _post(body: bytes) -> bytes:
    return (
        b"POST /compile HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


class TestRoutes:
    def test_healthz_stats_and_errors(self, tmp_path):
        async def scenario():
            server = await _boot(str(tmp_path))
            client = await _client(server)
            try:
                status, _, body = await client.request("GET", "/healthz")
                assert (status, body["ok"]) == (200, True)

                status, _, body = await client.request("GET", "/stats")
                assert status == 200
                assert body["requests"] >= 1
                assert "store" in body and "batches" in body

                status, _, body = await client.request("GET", "/nowhere")
                assert status == 404
                assert body["error"]["code"] == "not_found"

                status, _, body = await client.request("GET", "/compile")
                assert status == 405
                assert body["error"]["code"] == "method_not_allowed"
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_malformed_requests_get_structured_400s(self, tmp_path):
        async def scenario():
            server = await _boot(str(tmp_path))
            client = await _client(server)
            cases = [
                ({"machine": "paper"}, "bad_request"),  # no loop
                ({"loop": {}}, "bad_loop"),
                ({"loop": {"dsl": "do i\n"}}, "parse_error"),
                ({"loop": {"dsl": DSL}, "machine": "warp9"}, "unknown_machine"),
                (
                    {"loop": {"dsl": DSL}, "strategy": "psychic"},
                    "unknown_strategy",
                ),
                (
                    {"loop": {"dsl": DSL}, "baseline_unroll": -3},
                    "bad_request",
                ),
                (
                    {
                        "loop": {"dsl": DSL},
                        "baseline_unroll": MAX_BASELINE_UNROLL + 1,
                    },
                    "bad_request",
                ),
                (
                    {
                        "loop": {
                            "generator": {"archetype": "quines", "seed": 1}
                        }
                    },
                    "unknown_archetype",
                ),
                (
                    {"loop": {"generator": {"archetype": [], "seed": 1}}},
                    "bad_loop",
                ),
                (
                    {"loop": {"generator": {"archetype": {}, "seed": 1}}},
                    "bad_loop",
                ),
            ]
            # Bodies the server cannot decode as JSON: framed fine,
            # rejected structurally.
            not_json = [b"not json!", b"[" * 100_000, b"1" * 5_000]
            # Framing errors: answered, then the connection closes.
            framing = [
                (
                    b"POST /compile HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                    "bad_length",
                ),
                (
                    b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
                    "line_too_long",
                ),
                (
                    b"GET /healthz HTTP/1.1\r\nX-Pad: "
                    + b"x" * 70_000
                    + b"\r\n\r\n",
                    "line_too_long",
                ),
            ]
            try:
                for body, code in cases:
                    status, _, response = await client.request(
                        "POST", "/compile", body
                    )
                    assert status == 400, (body, response)
                    assert response["error"]["code"] == code
                    assert response["error"]["message"]
                for body in not_json:
                    status, response, _ = await _exchange(server, _post(body))
                    assert status == 400
                    assert response["error"]["code"] == "bad_json"
                for data, code in framing:
                    status, response, closed = await _exchange(server, data)
                    assert status == 400
                    assert response["error"]["code"] == code
                    assert closed
                # A DSL body over the cap is refused before it is parsed.
                too_long = {"loop": {"dsl": "x" * (MAX_DSL_CHARS + 1)}}
                status, _, response = await client.request(
                    "POST", "/compile", too_long
                )
                assert status == 413, response
                assert response["error"]["code"] == "loop_too_large"
                assert (
                    server.stats.bad_requests == len(cases) + len(not_json) + 1
                )
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())
        # The unroll limit itself is admitted.
        request = parse_compile_request(
            {"loop": {"dsl": DSL}, "baseline_unroll": MAX_BASELINE_UNROLL}
        )
        assert request.baseline_unroll == MAX_BASELINE_UNROLL


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)

#: Each place a valid body holds a value, with the loop form it is
#: valid in.
_FIELDS = [
    ("generator", ("loop",)),
    ("generator", ("machine",)),
    ("generator", ("strategy",)),
    ("generator", ("optimize",)),
    ("generator", ("baseline_unroll",)),
    ("generator", ("allow_reassociation",)),
    ("generator", ("loop", "generator")),
    ("generator", ("loop", "generator", "archetype")),
    ("generator", ("loop", "generator", "seed")),
    ("generator", ("loop", "generator", "name")),
    ("dsl", ("loop", "dsl")),
]


def _accepts_or_refuses(body: object) -> None:
    try:
        request = parse_compile_request(body)
    except ProtocolError as exc:
        assert exc.status == 400 and exc.code and exc.message
    else:
        assert isinstance(request, CompileRequest)


class TestProtocolFuzz:
    """Any JSON value gets a request or a :class:`ProtocolError`, never
    another exception."""

    @settings(max_examples=150, deadline=None)
    @given(_JSON)
    def test_any_json_value(self, value):
        _accepts_or_refuses(value)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_FIELDS), _JSON)
    def test_valid_body_with_one_field_replaced(self, field, value):
        form, path = field
        body = _body(seed=7) if form == "generator" else {"loop": {"dsl": DSL}}
        parse_compile_request(body)  # valid as it stands
        holder = body
        for name in path[:-1]:
            holder = holder[name]
        holder[path[-1]] = value
        _accepts_or_refuses(body)


class TestReadTimeout:
    def test_stalled_request_gets_408_and_idle_connection_is_untimed(
        self, tmp_path, monkeypatch
    ):
        """A request that stops arriving is answered 408 once
        ``READ_TIMEOUT_S`` has passed since its first byte, and its
        connection closes; a keep-alive connection idle between requests
        is never timed."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        stalled = [
            b"POST /compile HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            b"POST /compile HTTP/1.1\r\nContent-Le",
            b"POST /comp",
        ]

        async def scenario():
            server = await _boot(str(tmp_path))
            client = await _client(server)
            try:
                for data in stalled:
                    start = time.monotonic()
                    status, body, closed = await _exchange(server, data)
                    assert status == 408
                    assert body["error"]["code"] == "read_timeout"
                    assert closed
                    assert time.monotonic() - start < 3.0
                await asyncio.sleep(0.5)  # idle past the read timeout
                status, _, body = await client.request("GET", "/healthz")
                assert (status, body["ok"]) == (200, True)
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())


class TestOneResolutionPerKey:
    def test_a_repeated_body_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(body):
            calls.append(body)
            return parse_compile_request(body)

        monkeypatch.setattr(server_module, "parse_compile_request", spy)

        async def scenario():
            server = await _boot(str(tmp_path), batch_linger_ms=0.0)
            client = await _client(server)
            try:
                answers = [
                    await client.request("POST", "/compile", _body(seed=50))
                    for _ in range(5)
                ]
                assert len(calls) == 1
                served = [body["served"] for _, _, body in answers]
                assert served == ["compiled"] + ["cache"] * 4
                # The same request spelled with other whitespace is a
                # new body: parsed again, mapped to the same key.
                spaced = json.dumps(_body(seed=50), indent=2).encode()
                status, body, _ = await _exchange(server, _post(spaced))
                assert status == 200
                assert len(calls) == 2
                assert body["key"] == answers[0][2]["key"]
                assert body["served"] == "cache"
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_a_warm_repeat_makes_no_thread_hop(self, tmp_path, monkeypatch):
        """``start`` reads the compiler sources once, on a thread; a
        request whose summary is memoized never leaves the loop."""
        monkeypatch.setattr(compile_cache, "_code_version", None)
        hops = []
        to_thread = asyncio.to_thread

        async def spy(func, *args, **kwargs):
            hops.append(getattr(func, "__name__", func))
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(server_module.asyncio, "to_thread", spy)

        async def scenario():
            server = await _boot(str(tmp_path), batch_linger_ms=0.0)
            assert hops == ["code_version"]
            assert compile_cache._code_version is not None
            client = await _client(server)
            try:
                _, _, cold = await client.request(
                    "POST", "/compile", _body(seed=51)
                )
                assert cold["served"] == "compiled"
                assert hops.count("get_summary") == 1  # the one store read
                before = len(hops)
                for _ in range(3):
                    _, _, warm = await client.request(
                        "POST", "/compile", _body(seed=51)
                    )
                    assert warm["served"] == "cache"
                assert len(hops) == before
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_concurrent_copies_of_a_stored_key_read_it_once(self, tmp_path):
        request = parse_compile_request(_body(seed=52))
        ArtifactStore(str(tmp_path)).put(
            request.cache_key(), compile_one(request)
        )

        async def scenario():
            server = await _boot(str(tmp_path))
            clients = [await _client(server) for _ in range(8)]
            try:
                responses = await _together(
                    *(
                        c.request("POST", "/compile", _body(seed=52))
                        for c in clients
                    )
                )
                assert server.store.cache.hits == 1
                assert server.store.cache.misses == 0
                served = [body["served"] for _, _, body in responses]
                assert served == ["cache"] * 8
                results = {
                    json.dumps(body["result"], sort_keys=True)
                    for _, _, body in responses
                }
                assert len(results) == 1
                assert server.stats.cache_hits == 8
            finally:
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_a_joiner_of_a_refused_key_gets_the_same_429(
        self, tmp_path, monkeypatch
    ):
        async def scenario():
            server = await _boot(
                str(tmp_path), queue_limit=1, batch_linger_ms=0.0
            )
            reads = []
            get_summary = server.store.get_summary

            def slow_read(key, request):
                reads.append(key)
                time.sleep(0.1)  # the copies join while the first reads
                return get_summary(key, request)

            monkeypatch.setattr(server.store, "get_summary", slow_read)
            server.hold_dispatch()
            clients = [await _client(server) for _ in range(4)]
            try:
                # One key in the paused dispatcher's hand, then one in
                # the queue: the next key's compile is refused.
                held = []
                for i, c in enumerate(clients[:2]):
                    held.append(
                        asyncio.create_task(
                            c.request("POST", "/compile", _body(seed=60 + i))
                        )
                    )
                    await asyncio.sleep(0.3)
                assert not any(t.done() for t in held)
                refused = await _together(
                    *(
                        c.request("POST", "/compile", _body(seed=62))
                        for c in clients[2:]
                    )
                )
                assert len(reads) == 3  # one read for both copies
                for status, headers, body in refused:
                    assert status == 429
                    assert body["error"]["code"] == "saturated"
                    assert int(headers["retry-after"]) >= 1
                assert refused[0][2] == refused[1][2]
                assert server.stats.rejected == 2
                server.release_dispatch()
                for status, _, body in await _together(*held):
                    assert (status, body["served"]) == (200, "compiled")
                assert server._inflight == {}
            finally:
                server.release_dispatch()
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_a_store_read_that_raises_answers_every_joiner(
        self, tmp_path, monkeypatch
    ):
        async def scenario():
            server = await _boot(str(tmp_path))
            reads = []

            def failing_read(key, request):
                reads.append(key)
                time.sleep(0.1)
                raise OSError("disk unreadable")

            monkeypatch.setattr(server.store, "get_summary", failing_read)
            clients = [await _client(server) for _ in range(4)]
            try:
                responses = await _together(
                    *(
                        c.request("POST", "/compile", _body(seed=70))
                        for c in clients
                    )
                )
                assert len(reads) == 1
                for status, _, body in responses:
                    assert status == 500
                    assert body["error"]["code"] == "store_error"
                    assert "disk unreadable" in body["error"]["message"]
                assert len({json.dumps(b) for _, _, b in responses}) == 1
                assert server._inflight == {}
            finally:
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())


class TestDedupAndBatching:
    def test_identical_concurrent_requests_compile_once(self, tmp_path):
        async def scenario():
            # Linger far longer than the send burst: all eight arrive
            # while the first is still batching, so dedup is forced.
            server = await _boot(str(tmp_path), batch_linger_ms=150.0)
            clients = [await _client(server) for _ in range(8)]
            try:
                responses = await asyncio.gather(
                    *(
                        c.request("POST", "/compile", _body(seed=5))
                        for c in clients
                    )
                )
                assert all(status == 200 for status, _, _ in responses)
                served = sorted(body["served"] for _, _, body in responses)
                assert served.count("dedup") == 7
                keys = {body["key"] for _, _, body in responses}
                results = [
                    json.dumps(body["result"], sort_keys=True)
                    for _, _, body in responses
                ]
                assert len(keys) == 1
                assert len(set(results)) == 1  # byte-identical answers
                assert server.stats.compiles == 1
                assert server.stats.dedup_hits == 7
            finally:
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_distinct_requests_coalesce_into_batches(self, tmp_path):
        async def scenario():
            server = await _boot(
                str(tmp_path), batch_linger_ms=150.0, batch_max=8
            )
            clients = [await _client(server) for _ in range(6)]
            try:
                responses = await asyncio.gather(
                    *(
                        c.request("POST", "/compile", _body(seed=10 + i))
                        for i, c in enumerate(clients)
                    )
                )
                assert all(status == 200 for status, _, _ in responses)
                assert server.stats.compiles == 6
                # All six distinct keys landed in one coalesced batch.
                assert max(server.stats.batches) >= 2
            finally:
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())

    def test_warm_key_served_from_store_without_queueing(self, tmp_path):
        async def scenario():
            server = await _boot(str(tmp_path), batch_linger_ms=0.0)
            client = await _client(server)
            try:
                _, _, cold = await client.request(
                    "POST", "/compile", _body(seed=3)
                )
                assert cold["served"] == "compiled"
                _, _, warm = await client.request(
                    "POST", "/compile", _body(seed=3)
                )
                assert warm["served"] == "cache"
                assert warm["result"] == cold["result"]
                assert server.stats.compiles == 1
                assert server.stats.cache_hits == 1
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        async def scenario():
            server = await _boot(
                str(tmp_path), queue_limit=2, batch_linger_ms=0.0
            )
            server.hold_dispatch()
            clients = [await _client(server) for _ in range(6)]
            try:
                tasks = [
                    asyncio.create_task(
                        c.request("POST", "/compile", _body(seed=20 + i))
                    )
                    for i, c in enumerate(clients)
                ]
                await asyncio.sleep(0.2)  # let accepts/rejections settle
                done = [t for t in tasks if t.done()]
                rejected = [t.result() for t in done]
                # Queue holds 2, the dispatcher's hand at most 1: at
                # least 3 of 6 must have been turned away already.
                assert len(rejected) >= 3
                for status, headers, body in rejected:
                    assert status == 429
                    assert body["error"]["code"] == "saturated"
                    assert int(headers["retry-after"]) >= 1
                server.release_dispatch()
                accepted = await asyncio.gather(
                    *(t for t in tasks if not t.done())
                )
                for status, _, body in accepted:
                    assert status == 200
                assert server.stats.rejected == len(rejected)
            finally:
                for c in clients:
                    await c.close()
                await server.drain_and_stop()

        asyncio.run(scenario())


def _compile_or_die(request):
    """``compile_one``, except that the loop named ``serve_poison``
    SIGKILLs the pool worker compiling it."""
    if request.loop.name == "serve_poison":
        os.kill(os.getpid(), signal.SIGKILL)
    return compile_one(request)


class TestDeadWorker:
    def test_pool_is_replaced_after_a_worker_dies_mid_batch(
        self, tmp_path, monkeypatch
    ):
        """The only worker of a ``jobs=1`` pool is killed while it
        compiles a batch: that batch gets a retryable 503, the server
        replaces the pool, and a new key compiles."""
        # Pool workers fork on first use, so they inherit the patch.
        monkeypatch.setattr(server_module, "compile_one", _compile_or_die)
        poison = _body(seed=40)
        poison["loop"]["generator"]["name"] = "serve_poison"

        async def scenario():
            server = await _boot(str(tmp_path), jobs=1, batch_linger_ms=0.0)
            client = await _client(server)
            try:
                status, headers, body = await client.request(
                    "POST", "/compile", poison
                )
                assert status == 503, body
                assert body["error"]["code"] == "worker_lost"
                assert int(headers["retry-after"]) >= 1

                status, _, body = await client.request(
                    "POST", "/compile", _body(seed=41)
                )
                assert status == 200, body
                assert body["served"] == "compiled"
                _, _, stats = await client.request("GET", "/stats")
                assert stats["pool_restarts"] == 1
                assert stats["compiles"] == 1
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())


class TestShutdown:
    def test_drain_finishes_inflight_and_refuses_new(self, tmp_path):
        async def scenario():
            server = await _boot(str(tmp_path), batch_linger_ms=0.0)
            server.hold_dispatch()
            worker = await _client(server)
            control = await _client(server)
            try:
                inflight = asyncio.create_task(
                    worker.request("POST", "/compile", _body(seed=30))
                )
                await asyncio.sleep(0.1)
                assert not inflight.done()

                status, _, body = await control.request("POST", "/shutdown")
                assert (status, body["draining"]) == (200, True)
                await asyncio.sleep(0.05)

                status, _, body = await control.request(
                    "POST", "/compile", _body(seed=31)
                )
                assert status == 503
                assert body["error"]["code"] == "draining"

                server.release_dispatch()
                status, _, body = await inflight
                assert status == 200  # accepted work completed the drain
                assert body["served"] == "compiled"
                await server.wait_stopped()
                assert server.stats.compiles == 1
            finally:
                await worker.close()
                await control.close()

        asyncio.run(scenario())

    def test_drain_closes_idle_keep_alive_connections(self, tmp_path):
        """A client idle between requests does not hold the drain open:
        once the accepted work is done, the server closes its
        connection."""

        async def scenario():
            server = await _boot(str(tmp_path), batch_linger_ms=0.0)
            idle = await _client(server)
            control = await _client(server)
            try:
                status, _, _ = await idle.request("GET", "/healthz")
                assert status == 200
                await control.request("POST", "/shutdown")
                await asyncio.wait_for(server.wait_stopped(), 5)
                assert await asyncio.wait_for(idle._reader.read(), 1) == b""
            finally:
                await idle.close()
                await control.close()

        asyncio.run(scenario())


class TestLoadgenEndToEnd:
    def test_spawned_server_cold_then_warm(self, tmp_path, monkeypatch):
        """The CI smoke in miniature: a cold loadgen run compiles, a
        warm rerun over the same store must be 100% cache/dedup.  The
        ledger record's ``jobs`` is the server's worker count, not the
        client's connection count.  Each run closes the pipe it read
        the spawned server's announcement from."""
        from repro.serve import loadgen

        spawned = []
        real_spawn_server = loadgen.spawn_server

        def spawn_server(args):
            started = real_spawn_server(args)
            spawned.append(started[0])
            return started

        monkeypatch.setattr(loadgen, "spawn_server", spawn_server)
        store = str(tmp_path / "store")
        out = str(tmp_path / "bench")
        ledger_dir = str(tmp_path / "ledger")
        common = [
            "--spawn",
            "--store",
            store,
            "--size",
            "4",
            "--seed",
            "9",
            "--concurrency",
            "4",
            "--duplicates",
            "2",
        ]
        assert loadgen.main(common + ["--out", out, "--ledger", ledger_dir]) == 0
        with open(f"{out}/BENCH_serve.json", encoding="utf-8") as f:
            bench = json.load(f)
        assert bench["data"]["requests"] == 8
        assert bench["data"]["failures"] == 0
        [record] = Ledger(ledger_dir).records()
        assert record.jobs == 1
        assert loadgen.main(common + ["--expect-no-compiles"]) == 0
        assert len(spawned) == 2
        assert all(proc.stdout.closed for proc in spawned)
