"""Load generator for the compile server.

Replays a deterministically generated corpus (the PR 8
:class:`~repro.workloads.generator.CorpusSpec` plan) against a running
server — or one it spawns itself — at configurable concurrency::

    python -m repro.serve.loadgen --spawn --store /tmp/artifacts \\
        --size 200 --seed 1 --concurrency 16 --duplicates 3 \\
        --out bench --ledger .repro-ledger

Each planned loop crossed with each strategy is one unique request;
``--duplicates N`` sends every unique request N times back-to-back, so
duplicates are concurrently in flight and exercise the server's
in-flight dedup.  ``429`` responses are retried after the server's
``Retry-After`` — a saturated queue is backpressure, not failure.

The run writes ``BENCH_serve.json`` (throughput, latency percentiles,
batch-size histogram, dedup and cache hit rates) and appends a ledger
record built by :func:`~repro.sweep.runner.corpus_record` from the
per-unique-key response summaries alone: the record a ``python -m
repro.sweep run`` of the same corpus records, so
``python -m repro.dashboard compare <sweep> <serve> --fail-on-exact``
proves the served answers bit-identical to in-process compiles.  Unless
disabled, every response's content-addressed key is also checked
against a locally computed key for the same request.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time

from repro.compiler.strategies import Strategy
from repro.evaluation.bench_io import write_bench_json
from repro.ledger.store import Ledger
from repro.machine.configs import MACHINE_FACTORIES
from repro.observability.stats import percentile
from repro.serve.protocol import parse_compile_request
from repro.sweep.runner import SweepConfig, corpus_record
from repro.workloads.generator import CorpusSpec, corpus_plan


class HttpClient:
    """Minimal keep-alive HTTP/1.1 JSON client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], dict]:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.decode("latin-1").split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, headers, json.loads(raw) if raw else {}

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Replay a generated corpus against the compile server.",
    )
    parser.add_argument("--size", type=int, default=100, help="corpus size")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument(
        "--archetypes",
        default="",
        help="comma-separated archetype subset (default: all)",
    )
    parser.add_argument(
        "--strategies",
        default="selective",
        help="comma-separated strategies; each loop is requested under each",
    )
    parser.add_argument(
        "--machine", default="paper", choices=sorted(MACHINE_FACTORIES)
    )
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument(
        "--duplicates",
        type=int,
        default=1,
        help="send every unique request N times (exercises dedup)",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument(
        "--url", default=None, metavar="HOST:PORT", help="a running server"
    )
    target.add_argument(
        "--spawn",
        action="store_true",
        help="spawn a server subprocess for the run (needs --store)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store for --spawn",
    )
    parser.add_argument("--server-jobs", type=int, default=1)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--batch-max", type=int, default=16)
    parser.add_argument("--batch-linger-ms", type=float, default=2.0)
    parser.add_argument(
        "--max-bytes", type=int, default=None, help="store LRU budget"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write BENCH_serve.json here",
    )
    parser.add_argument("--ledger", default=None, metavar="DIR")
    parser.add_argument("--run-label", default="serve")
    parser.add_argument(
        "--expect-no-compiles",
        action="store_true",
        help="fail unless every response was served warm (cache/dedup) — "
        "the warm-rerun CI gate",
    )
    parser.add_argument(
        "--no-verify-keys",
        action="store_true",
        help="skip checking response keys against locally computed ones",
    )
    return parser


def build_requests(
    args: argparse.Namespace,
) -> tuple[CorpusSpec, list[str], list[dict]]:
    spec = CorpusSpec(
        size=args.size,
        seed=args.seed,
        archetypes=tuple(
            a for a in args.archetypes.split(",") if a.strip()
        ),
    )
    strategies = sorted(
        label for label in args.strategies.split(",") if label.strip()
    )
    for label in strategies:
        Strategy(label)  # raises on unknown names before any traffic
    unique = [
        {
            "loop": {
                "generator": {
                    "archetype": item.archetype,
                    "seed": item.loop_seed,
                    "name": item.name,
                }
            },
            "machine": args.machine,
            "strategy": label,
        }
        for item in corpus_plan(spec)
        for label in strategies
    ]
    return spec, strategies, unique


def spawn_server(args: argparse.Namespace) -> tuple[subprocess.Popen, str, int]:
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [src_root, env.get("PYTHONPATH", "")] if p
    )
    cmd = [
        sys.executable,
        "-m",
        "repro.serve",
        "--store",
        args.store,
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--queue-limit",
        str(args.queue_limit),
        "--batch-max",
        str(args.batch_max),
        "--batch-linger-ms",
        str(args.batch_linger_ms),
        "--jobs",
        str(args.server_jobs),
    ]
    if args.max_bytes is not None:
        cmd.extend(["--max-bytes", str(args.max_bytes)])
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True
    )
    line = proc.stdout.readline()
    try:
        announce = json.loads(line)["serving"]
    except (json.JSONDecodeError, KeyError, TypeError):
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RuntimeError(
            f"server did not announce itself (got {line!r})"
        ) from None
    return proc, announce["host"], int(announce["port"])


async def _run_load(
    host: str,
    port: int,
    unique: list[dict],
    expected_keys: list[str] | None,
    *,
    concurrency: int,
    duplicates: int,
) -> dict:
    """Drive the request stream; returns raw observations."""
    work: asyncio.Queue = asyncio.Queue()
    for uidx, body in enumerate(unique):
        for _ in range(duplicates):
            work.put_nowait((uidx, body))
    latencies_ms: list[float] = []
    served: dict[str, int] = {}
    summaries: dict[str, dict] = {}
    failures: list[dict] = []
    key_mismatches = 0
    retried_429 = 0

    async def worker() -> None:
        nonlocal key_mismatches, retried_429
        client = HttpClient(host, port)
        await client.connect()
        try:
            while True:
                try:
                    uidx, body = work.get_nowait()
                except asyncio.QueueEmpty:
                    return
                start = time.perf_counter()
                while True:
                    status, headers, response = await client.request(
                        "POST", "/compile", body
                    )
                    if status != 429:
                        break
                    retried_429 += 1
                    await asyncio.sleep(
                        min(0.25, float(headers.get("retry-after", 1)) / 20)
                    )
                latencies_ms.append((time.perf_counter() - start) * 1e3)
                if status != 200:
                    failures.append(
                        {"index": uidx, "status": status, "body": response}
                    )
                    continue
                tag = response.get("served", "?")
                served[tag] = served.get(tag, 0) + 1
                key = response.get("key", "")
                summaries.setdefault(key, response.get("result", {}))
                if (
                    expected_keys is not None
                    and key != expected_keys[uidx]
                ):
                    key_mismatches += 1
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall_s = time.perf_counter() - start

    stats_client = HttpClient(host, port)
    await stats_client.connect()
    _, _, stats = await stats_client.request("GET", "/stats")
    await stats_client.close()

    return {
        "wall_s": wall_s,
        "latencies_ms": sorted(latencies_ms),
        "served": served,
        "summaries": summaries,
        "failures": failures,
        "key_mismatches": key_mismatches,
        "retried_429": retried_429,
        "server_stats": stats,
    }


def _finish_run(
    args: argparse.Namespace,
    spec: CorpusSpec,
    strategies: list[str],
    observed: dict,
    total_requests: int,
) -> int:
    latencies = observed["latencies_ms"]
    wall_s = observed["wall_s"]
    served = observed["served"]
    n_ok = sum(served.values())
    dedup = served.get("dedup", 0)
    cache = served.get("cache", 0)
    warm_rate = (dedup + cache) / n_ok if n_ok else 0.0
    record = corpus_record(
        SweepConfig(
            spec=spec, strategies=tuple(strategies), machine=args.machine
        ),
        observed["summaries"].values(),
        label=args.run_label,
        jobs=observed["server_stats"]["jobs"],
        cache={
            "hits": cache,
            "misses": served.get("compiled", 0),
            "dedup_hits": dedup,
            "compile_cache": True,
        },
        wall_s=round(wall_s, 3),
    )
    if args.ledger:
        Ledger(args.ledger).append(record)
        print(f"recorded run {record.run_id} in {args.ledger}")
    if args.out:
        payload = {
            "schema_version": 1,
            "experiment": "serve",
            "data": {
                "requests": total_requests,
                "unique_requests": total_requests // max(1, args.duplicates),
                "concurrency": args.concurrency,
                "duplicates": args.duplicates,
                "corpus": spec.to_dict(),
                "strategies": strategies,
                "machine": args.machine,
                "served": {k: served[k] for k in sorted(served)},
                "failures": len(observed["failures"]),
                "retried_429": observed["retried_429"],
                "dedup_rate": round(dedup / n_ok, 4) if n_ok else 0.0,
                "cache_hit_rate": round(cache / n_ok, 4) if n_ok else 0.0,
                "batches": observed["server_stats"].get("batches", {}),
                "effort": record.effort,
                "rate": {
                    "rate_per_s": (
                        round(n_ok / wall_s, 3) if wall_s > 0 else 0.0
                    )
                },
                "latency": {
                    "p50": {"wall_ms": percentile(latencies, 0.50)},
                    "p90": {"wall_ms": percentile(latencies, 0.90)},
                    "p99": {"wall_ms": percentile(latencies, 0.99)},
                    "max": {
                        "wall_ms": latencies[-1] if latencies else 0.0
                    },
                },
            },
            "wall_s": round(wall_s, 3),
        }
        path = write_bench_json("serve", payload, args.out)
        print(f"wrote {path}")

    print(
        f"serve: {n_ok}/{total_requests} ok in {wall_s:.2f}s "
        f"({n_ok / wall_s if wall_s > 0 else 0.0:.1f} req/s), "
        f"p50 {percentile(latencies, 0.5):.1f}ms "
        f"p99 {percentile(latencies, 0.99):.1f}ms; "
        f"served compiled={served.get('compiled', 0)} "
        f"cache={cache} dedup={dedup} "
        f"(warm rate {warm_rate:.1%}), "
        f"store reads={observed['server_stats']['store']['hits']}, "
        f"{observed['retried_429']} request(s) retried after 429"
    )
    rc = 0
    if observed["failures"]:
        print(
            f"FAIL: {len(observed['failures'])} failed request(s); first: "
            f"{observed['failures'][0]}",
            file=sys.stderr,
        )
        rc = 1
    if observed["key_mismatches"]:
        print(
            f"FAIL: {observed['key_mismatches']} response key(s) did not "
            "match locally computed cache keys",
            file=sys.stderr,
        )
        rc = 1
    if args.expect_no_compiles and served.get("compiled", 0):
        print(
            f"FAIL: expected a fully warm run but {served['compiled']} "
            "request(s) were compiled",
            file=sys.stderr,
        )
        rc = 1
    return rc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.concurrency < 1 or args.duplicates < 1:
        print("concurrency and duplicates must be >= 1", file=sys.stderr)
        return 2
    try:
        spec, strategies, unique = build_requests(args)
    except (KeyError, ValueError) as exc:
        print(f"loadgen: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.spawn:
        if not args.store:
            print("--spawn needs --store DIR", file=sys.stderr)
            return 2
        proc, host, port = spawn_server(args)
    elif args.url:
        host, _, port_text = args.url.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            print(f"loadgen: --url needs HOST:PORT, not {args.url!r}", file=sys.stderr)
            return 2
        proc = None
    else:
        print("pick a target: --url or --spawn", file=sys.stderr)
        return 2

    expected_keys = None
    if not args.no_verify_keys:
        expected_keys = [
            parse_compile_request(body).cache_key() for body in unique
        ]

    try:
        observed = asyncio.run(
            _run_load(
                host,
                port,
                unique,
                expected_keys,
                concurrency=args.concurrency,
                duplicates=args.duplicates,
            )
        )
    finally:
        if proc is not None:
            try:
                asyncio.run(_shutdown(host, port))
            except (ConnectionError, OSError):
                pass
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            finally:
                proc.stdout.close()

    return _finish_run(
        args, spec, strategies, observed, len(unique) * args.duplicates
    )


async def _shutdown(host: str, port: int) -> None:
    client = HttpClient(host, port)
    await client.connect()
    await client.request("POST", "/shutdown")
    await client.close()


if __name__ == "__main__":
    sys.exit(main())
