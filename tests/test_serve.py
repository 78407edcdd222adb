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
import signal

import repro.serve.server as server_module
from repro.compiler.service import compile_one
from repro.ledger import Ledger
from repro.serve.loadgen import HttpClient
from repro.serve.protocol import MAX_BASELINE_UNROLL, parse_compile_request
from repro.serve.server import CompileServer, ServerConfig

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
            ]
            try:
                for body, code in cases:
                    status, _, response = await client.request(
                        "POST", "/compile", body
                    )
                    assert status == 400, (body, response)
                    assert response["error"]["code"] == code
                    assert response["error"]["message"]
                # Non-JSON body: framed fine, rejected structurally.
                raw = HttpClient("127.0.0.1", server.port)
                await raw.connect()
                raw._writer.write(
                    b"POST /compile HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
                    b"not json!"
                )
                await raw._writer.drain()
                line = await raw._reader.readline()
                assert b"400" in line
                await raw.close()
                assert server.stats.bad_requests == len(cases) + 1
            finally:
                await client.close()
                await server.drain_and_stop()

        asyncio.run(scenario())
        # The unroll limit itself is admitted.
        request = parse_compile_request(
            {"loop": {"dsl": DSL}, "baseline_unroll": MAX_BASELINE_UNROLL}
        )
        assert request.baseline_unroll == MAX_BASELINE_UNROLL


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


class TestLoadgenEndToEnd:
    def test_spawned_server_cold_then_warm(self, tmp_path):
        """The CI smoke in miniature: a cold loadgen run compiles, a
        warm rerun over the same store must be 100% cache/dedup.  The
        ledger record's ``jobs`` is the server's worker count, not the
        client's connection count."""
        from repro.serve import loadgen

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
        bench = json.load(open(f"{out}/BENCH_serve.json"))
        assert bench["data"]["requests"] == 8
        assert bench["data"]["failures"] == 0
        [record] = Ledger(ledger_dir).records()
        assert record.jobs == 1
        assert loadgen.main(common + ["--expect-no-compiles"]) == 0
