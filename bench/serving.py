"""The ``serve_mixed`` workload: a spawned compile server under a closed
loop of keep-alive clients.

Two thirds of the corpus are stored before the server starts, so their
requests are answered from the artifact store; the rest is compiled.
Each request is sent on both connections at once, so the second copy of
a compiled request joins the first in flight.  Every pass starts a new
server on a fresh copy of the stored snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import repro.compiler.service as service
from repro.serve import loadgen
from repro.serve.loadgen import HttpClient
from repro.serve.protocol import parse_compile_request
from repro.serve.store import ArtifactStore
from repro.workloads.generator import corpus_plan

from bench.checks import Failures, check_sample, sampled
from bench.config import (
    CORPUS_SEED,
    MACHINE,
    SERVE_CONNECTIONS,
    SERVE_SEGMENT,
    SERVE_WARM_SHARE,
    SERVER,
    Workload,
)
from bench.hostspeed import HostSpeed
from bench.inprocess import (
    Op,
    Outcome,
    PassRecord,
    chunks,
    run_pass,
    run_traced_pass,
    seeded_order,
    timing_metrics,
)
from bench.stats import geomean, median, percentile
from bench.trace import layer_metrics, traced_call

#: Per-layer metrics of the serving and store layers; in-process
#: workloads report them as 0.
SERVE_METRICS = (
    "serve.latency_compiled_p50_ms",
    "serve.latency_cache_p50_ms",
    "serve.latency_dedup_p50_ms",
    "serve.protocol_ms_p50",
    "serve.batches",
    "serve.batch_mean",
    "serve.compiles",
    "serve.cache_hits",
    "serve.dedup_hits",
    "serve.rejected",
    "serve.overhead_ratio",
    "store.put_ms_p50",
    "store.get_ms_p50",
)


def canonical(summary: object) -> str:
    return json.dumps(summary, sort_keys=True)


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    store_dir: Path


@dataclass
class Response:
    #: Position in the request stream, and index of the unique request.
    slot: int
    unique: int
    status: int
    served: str
    key: str
    #: The response's ``result`` object, or the error of a failed request.
    result: object
    latency_ms: float


@dataclass
class ServedPass:
    #: Normalised to the reference host speed, like every latency.
    wall_s: float
    raw_wall_s: float
    responses: list[Response]
    retried_429: int
    stats: dict
    vm_hwm_mb: float


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid``, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


async def _request(host: str, port: int, method: str, path: str) -> dict:
    client = HttpClient(host, port)
    await client.connect()
    try:
        _, _, body = await client.request(method, path)
    finally:
        await client.close()
    return body


class ServedRun:
    """Set-up, timed passes and checks of the ``serve_mixed`` workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: Path,
        quick: bool = False,
        speed: HostSpeed | None = None,
    ) -> None:
        """Set up: parse the requests, store the warm ones and start a
        server.  ``speed`` times the set-up in chunks, so it can be
        normalised."""
        speed = speed or HostSpeed()
        # The client, the server and its compile worker share one
        # processor: a request then hands over between processes by a
        # context switch.  Across processors it needs a wake-up of the
        # other virtual processor, whose delay on a shared host follows
        # other tenants' load, and no probe of processor speed tracks it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.workdir = workdir
        args = argparse.Namespace(
            size=workload.loops(quick),
            seed=CORPUS_SEED,
            archetypes="",
            strategies=",".join(workload.strategies),
            machine=MACHINE,
        )
        spec, _, self.bodies = loadgen.build_requests(args)
        trips = {item.name: item.trip_count for item in corpus_plan(spec)}
        speed.lap()
        self.requests = []
        self.keys: list[str] = []
        protocol_ms: list[float] = []
        for body in self.bodies:
            start = time.perf_counter()
            request = parse_compile_request(body)
            key = request.cache_key()
            protocol_ms.append((time.perf_counter() - start) * 1e3)
            self.requests.append(request)
            self.keys.append(key)
        factor = speed.lap()
        self.protocol_ms = [t * factor for t in protocol_ms]
        self.ops = [
            Op(u, r.loop, r.strategy, trips[r.loop.name], r) for u, r in enumerate(self.requests)
        ]
        n = len(self.bodies)
        stored = round(n * SERVE_WARM_SHARE)
        self.warm = list(range(stored))
        self.cold = list(range(stored, n))
        #: The order unique requests are sent in; each is sent on every
        #: connection at once.
        self.order = seeded_order(n, seed)
        self.requests_per_pass = n * SERVE_CONNECTIONS

        self.failures = Failures()
        self.reference: dict[int, str] = {}
        self.sample: dict[int, tuple] = {}
        self.put_ms: list[float] = []
        self.snapshot = workdir / "snapshot"
        store = ArtifactStore(str(self.snapshot))
        for chunk in chunks(self.warm):
            put_ms = []
            for u in chunk:
                payload = service.compile_one(self.requests[u])
                start = time.perf_counter()
                summary = store.put(self.keys[u], payload)
                put_ms.append((time.perf_counter() - start) * 1e3)
                self.reference[u] = canonical(summary)
                if sampled(u):
                    self.sample[u] = (self.ops[u].loop, payload.compiled, self.ops[u].trip)
            factor = speed.lap()
            self.put_ms += [t * factor for t in put_ms]
        self.passes: list[ServedPass] = []
        self._servers = 0
        self.server: Server | None = self._spawn()

    # -- servers ---------------------------------------------------------

    def _spawn(self) -> Server:
        self._servers += 1
        store_dir = self.workdir / f"store-{self._servers}"
        shutil.copytree(self.snapshot, store_dir)
        args = argparse.Namespace(
            store=str(store_dir),
            queue_limit=SERVER["queue_limit"],
            batch_max=SERVER["batch_max"],
            batch_linger_ms=SERVER["batch_linger_ms"],
            server_jobs=SERVER["jobs"],
            max_bytes=None,
        )
        proc, host, port = loadgen.spawn_server(args)
        return Server(proc, host, port, store_dir)

    def _stop(self, server: Server) -> None:
        try:
            asyncio.run(_request(server.host, server.port, "POST", "/shutdown"))
            server.proc.wait(timeout=30)
        except (ConnectionError, OSError, subprocess.TimeoutExpired):
            # SIGTERM drains too, and lets the server stop its pool.
            server.proc.terminate()
            try:
                server.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.proc.kill()
                server.proc.wait()
        finally:
            server.proc.stdout.close()
        shutil.rmtree(server.store_dir, ignore_errors=True)

    def close(self) -> None:
        """Stop the running server, if any."""
        if self.server is not None:
            server, self.server = self.server, None
            self._stop(server)

    # -- traffic ---------------------------------------------------------

    async def _drive(self, server: Server) -> tuple[float, float, list[Response], int]:
        """Send each request of the order on every connection at once, and
        the next only when all copies are answered: the copies of a cold
        request meet in flight, and no store read waits behind another
        request's compile.  The client probes the host speed every
        SERVE_SEGMENT requests.  Returns (normalised wall, raw wall,
        responses, 429 retries)."""
        responses: list[Response] = []
        retried = 0
        conns = [HttpClient(server.host, server.port) for _ in range(SERVE_CONNECTIONS)]
        for conn in conns:
            await conn.connect()

        async def send(c: int, slot: int, u: int) -> Response:
            nonlocal retried
            start = time.perf_counter()
            try:
                while True:
                    status, headers, body = await conns[c].request(
                        "POST", "/compile", self.bodies[u]
                    )
                    if status != 429:
                        break
                    retried += 1
                    await asyncio.sleep(min(0.25, float(headers.get("retry-after", 1)) / 20))
            except (ConnectionError, OSError, EOFError, ValueError) as exc:
                await conns[c].close()
                conns[c] = HttpClient(server.host, server.port)
                await conns[c].connect()
                return Response(slot, u, 0, "", "", repr(exc), 0.0)
            latency_ms = (time.perf_counter() - start) * 1e3
            served, key = body.get("served", ""), body.get("key", "")
            return Response(slot, u, status, served, key, body.get("result"), latency_ms)

        wall = raw = 0.0
        speed = HostSpeed()
        per_segment = SERVE_SEGMENT // SERVE_CONNECTIONS
        try:
            for first in range(0, len(self.order), per_segment):
                done = len(responses)
                start = time.perf_counter()
                for k in range(first, min(first + per_segment, len(self.order))):
                    u = self.order[k]
                    copies = (send(c, k * SERVE_CONNECTIONS + c, u) for c in range(len(conns)))
                    responses.extend(await asyncio.gather(*copies))
                seconds = time.perf_counter() - start
                factor = speed.next_factor()
                raw += seconds
                wall += seconds * factor
                for r in responses[done:]:
                    r.latency_ms *= factor
        finally:
            for conn in conns:
                await conn.close()
        return wall, raw, responses, retried

    def run_pass(self) -> ServedPass:
        """One pass of the request stream against a fresh server; the
        server is started before and stopped after the timed part."""
        server = self.server or self._spawn()
        self.server = server
        # The client's own garbage collection, over the responses of
        # earlier passes, would otherwise land in measured latencies.
        try:
            gc.disable()
            try:
                wall, raw, responses, retried = asyncio.run(self._drive(server))
            finally:
                gc.enable()
            stats = asyncio.run(_request(server.host, server.port, "GET", "/stats"))
            hwm = vm_hwm_mb(server.proc.pid)
        finally:
            self.close()
        served = ServedPass(wall, raw, responses, retried, stats, hwm)
        self.passes.append(served)
        return served

    # -- direct compiles and checks --------------------------------------

    def _cold_ops(self) -> list[Op]:
        return [self.ops[u] for u in self.cold]

    def _take_direct(self, record: PassRecord) -> None:
        """Direct compiles of the cold requests are the reference the
        served answers must equal."""
        for pos, op in enumerate(self._cold_ops()):
            result = record.results[pos]
            if result is None:
                self.failures.add(("direct", op.index), record.errors[pos])
                continue
            summary = canonical(json.loads(result)[0])
            if self.reference.setdefault(op.index, summary) != summary:
                self.failures.add(("direct", op.index), "direct compiles differ")
        self.sample.update(record.sample)

    def _check_sample(self) -> None:
        check_sample(self.sample, self.failures, "exec")

    def _check_responses(self) -> None:
        for p, served in enumerate(self.passes):
            for r in served.responses:
                if r.status != 200:
                    reason = f"status {r.status}: {str(r.result)[:200]}"
                elif r.key != self.keys[r.unique]:
                    reason = "response key differs from the local cache_key()"
                elif canonical(r.result) != self.reference.get(r.unique):
                    reason = "served result differs from a direct compile"
                else:
                    continue
                self.failures.add((p, r.slot), reason)

    def _ii_geomean(self) -> float:
        first: dict[int, float] = {}
        for served in self.passes:
            for r in served.responses:
                if r.status == 200:
                    first.setdefault(r.unique, r.result["ii"])
        return geomean(list(first.values()))

    def _attempted(self) -> int:
        return sum(len(p.responses) for p in self.passes)

    def measure(self, passes: int) -> Outcome:
        for _ in range(passes):
            self.run_pass()
        cold = self._cold_ops()
        self._take_direct(run_pass(cold, list(range(len(cold)))))
        self._check_sample()
        self._check_responses()
        pooled = [r.latency_ms for p in self.passes for r in p.responses if r.status == 200]
        metrics = timing_metrics(pooled, [p.wall_s for p in self.passes], self.requests_per_pass)
        metrics["peak_rss_mb"] = median([p.vm_hwm_mb for p in self.passes])
        metrics["ii_per_iter_geomean"] = self._ii_geomean()
        detail = {
            "passes": passes,
            "pass_wall_s": [p.wall_s for p in self.passes],
            "raw_pass_wall_s": [p.raw_wall_s for p in self.passes],
            "ops_per_pass": self.requests_per_pass,
            "latency_samples": len(pooled),
            "retried_429": sum(p.retried_429 for p in self.passes),
        }
        return Outcome(self._attempted(), self.failures, metrics, detail)

    def measure_traced(self) -> Outcome:
        """One served pass for the serving and store layers, then direct
        compiles of its cold requests, each chunk untraced and traced, for
        the compile layers and the serving overhead."""
        served = self.run_pass()
        cold = self._cold_ops()
        plain, traced, layers, overhead = run_traced_pass(cold, list(range(len(cold))))
        self._take_direct(plain)
        self._take_direct(traced)
        checks = traced_call(self._check_sample)
        self._check_responses()

        by_tag: dict[str, list[float]] = {}
        for r in served.responses:
            by_tag.setdefault(r.served, []).append(r.latency_ms)
        fresh = ArtifactStore(str(self.snapshot))
        get_ms = []
        speed = HostSpeed()
        for u in self.warm:
            start = time.perf_counter()
            fresh.get_summary(self.keys[u], self.requests[u])
            get_ms.append((time.perf_counter() - start) * 1e3)
        factor = speed.next_factor()
        stats = served.stats
        batches = {int(size): count for size, count in stats.get("batches", {}).items()}
        n_batches = sum(batches.values())
        compiled_p50 = percentile(by_tag.get("compiled", []), 0.50)

        metrics = layer_metrics(layers, overhead, checks)
        metrics.update(
            {
                "selective_speedup_geomean": 0.0,
                "serve.latency_compiled_p50_ms": compiled_p50,
                "serve.latency_cache_p50_ms": percentile(by_tag.get("cache", []), 0.50),
                "serve.latency_dedup_p50_ms": percentile(by_tag.get("dedup", []), 0.50),
                "serve.protocol_ms_p50": percentile(self.protocol_ms, 0.50),
                "serve.batches": n_batches,
                "serve.batch_mean": (
                    sum(size * count for size, count in batches.items()) / n_batches
                    if n_batches
                    else 0.0
                ),
                "serve.compiles": stats.get("compiles", 0),
                "serve.cache_hits": stats.get("cache_hits", 0),
                "serve.dedup_hits": stats.get("dedup_hits", 0),
                "serve.rejected": stats.get("rejected", 0),
                "serve.overhead_ratio": compiled_p50 / percentile(plain.latencies(), 0.50),
                "store.put_ms_p50": percentile(self.put_ms, 0.50),
                "store.get_ms_p50": percentile(get_ms, 0.50) * factor,
            }
        )
        detail = {
            "served_wall_s": served.wall_s,
            "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "overhead_ratios": overhead,
            "served_by_tag": {tag: len(v) for tag, v in sorted(by_tag.items())},
        }
        return Outcome(self._attempted(), self.failures, metrics, detail)
