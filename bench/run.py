"""``python -m bench run``: every workload, untraced then traced, with a
result file per workload and a printed report."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

from bench import ROOT
from bench.config import (
    CORPUS_SEED,
    PROBE_EVERY,
    PROBE_POWER,
    REFERENCE_PROBE_S,
    SERVE_CONNECTIONS,
    SERVE_SEGMENT,
    SERVE_WARM_SHARE,
    SERVER,
    SETUP_REPS,
    WORKLOADS,
    benchmark_spec,
)
from bench.measure import measure


def _git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_block(seed: int, seconds: float, quick: bool) -> dict:
    """How a result was produced: code, interpreter, machine and settings."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "corpus_seed": CORPUS_SEED,
        "run_seconds": seconds,
        "quick": quick,
        "setup_reps": SETUP_REPS,
        "reference_probe_s": REFERENCE_PROBE_S,
        "probe_every": PROBE_EVERY,
        "probe_power": PROBE_POWER,
        "client_connections": SERVE_CONNECTIONS,
        "serve_segment": SERVE_SEGMENT,
        "serve_warm_share": SERVE_WARM_SHARE,
        "server": dict(SERVER),
    }


def fail_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_report(doc: dict) -> None:
    untraced, traced = doc["untraced"], doc["traced"]
    detail = untraced["detail"]
    print(
        f"\n== {doc['workload']}  seed {doc['env']['seed']}: {detail['passes']} passes of "
        f"{detail['ops_per_pass']} ops, {detail['latency_samples']} latency samples"
    )
    for name, metric in untraced["result"]["metrics"].items():
        print(f"  {name:<28} {_format(metric['value']):>14} {metric['unit']}")
    for label, run in (("untraced", untraced), ("traced", traced)):
        result = run["result"]
        print(
            f"  {'fail_rate (' + label + ')':<28} {_format(fail_rate(result)):>14} "
            f"({result['failed']}/{result['attempted']})"
        )
        for example in run["detail"]["failure_examples"]:
            print(f"    {example}")
    print("  per layer (traced run):")
    for name, metric in traced["result"]["metrics"].items():
        print(f"    {name:<34} {_format(metric['value']):>14} {metric['unit']}")


def run_all(seed: int, out: Path, quick: bool, seconds: float | None) -> int:
    """Measure every workload; 0 when every run is correct."""
    seconds = seconds if seconds is not None else benchmark_spec()["run_seconds"]
    env = env_block(seed, seconds, quick)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in WORKLOADS:
        doc = {"workload": name}
        for label, trace in (("untraced", False), ("traced", True)):
            result, detail = measure(name, seed, seconds, trace, quick)
            doc[label] = {"result": result, "detail": detail}
            if not result["correct"]:
                status = 1
        doc["env"] = dict(env, passes=WORKLOADS[name].timed_passes(seconds))
        path = out / f"{name}.seed{seed}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print_report(doc)
    print(f"\nwrote {len(WORKLOADS)} result file(s) to {out}")
    return status
