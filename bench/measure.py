"""One measured run of one workload, and the worker process behind it.

``measure`` starts a fresh worker process for the workload and times it
from start to the end of its set-up; the worker then runs its timed
passes and correctness checks and reports.  An untraced run also starts
``SETUP_REPS - 1`` more workers that only set up, so ``setup_s`` is a
median of fresh-process set-ups.  Like every time the benchmark reports,
set-up is normalised to the reference host speed (``bench/hostspeed.py``),
by the mean factor of probes the worker takes through its set-up.
"""

from __future__ import annotations

import json
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from bench import OUT, ROOT
from bench.config import SETUP_REPS, WORKLOADS, benchmark_spec
from bench.stats import median

#: A measured run ends within this many seconds, or it is stopped.
RUN_TIMEOUT_S = 170.0


class MeasureError(RuntimeError):
    """A worker failed, hung, or reported a malformed result."""


def _emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def worker(
    workload_name: str, seed: int, seconds: float, trace: bool, quick: bool, role: str
) -> int:
    """The body of a worker process: set up, say ``ready``, and (unless
    ``role`` is ``setup``) measure and report the outcome."""
    from bench.hostspeed import HostSpeed

    # Importing the program is part of set-up, so the first probe
    # comes before it.
    speed = HostSpeed()
    from bench.inprocess import InProcessRun
    from bench.serving import SERVE_METRICS, ServedRun

    # Turn SIGTERM into an exception, so servers and scratch files are
    # cleaned up when the parent stops this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[workload_name]
    workdir = None
    run = None
    try:
        speed.lap()
        if workload.served:
            (OUT / "work").mkdir(parents=True, exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "work"))
            run = ServedRun(workload, seed, workdir, quick, speed)
        else:
            run = InProcessRun(workload, seed, quick, speed)
        speed.lap()
        _emit({"ready": True, "setup_factor": speed.normalised_s / speed.raw_s})
        if role == "setup":
            return 0
        if trace:
            outcome = run.measure_traced()
        else:
            outcome = run.measure(workload.timed_passes(seconds))
        if trace and not workload.served:
            outcome.metrics.update(dict.fromkeys(SERVE_METRICS, 0.0))
        _emit(
            {
                "outcome": {
                    "attempted": outcome.attempted,
                    "failed": len(outcome.failures),
                    "failure_examples": outcome.failures.examples(),
                    "metrics": outcome.metrics,
                    "detail": outcome.detail,
                }
            }
        )
        return 0
    finally:
        if workload.served and run is not None:
            run.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _run_worker(args: list[str], deadline: float) -> tuple[float, list[dict]]:
    """Run one worker; (its set-up time, normalised to the reference host
    speed, and its messages).  Set-up runs from process start to
    ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "worker", *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines: queue.Queue = queue.Queue()

    def read() -> None:
        for line in proc.stdout:
            lines.put((time.perf_counter(), line))
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    setup_s = None
    messages: list[dict] = []
    try:
        while True:
            item = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            if item is None:
                break
            stamp, line = item
            try:
                message = json.loads(line)
            except ValueError:
                sys.stderr.write(line)
                continue
            if "ready" in message and setup_s is None:
                setup_s = (stamp - start) * message["setup_factor"]
            messages.append(message)
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise MeasureError(f"worker {' '.join(args)} did not finish in time") from None
    finally:
        _stop(proc)
        reader.join(timeout=5)
        proc.stdout.close()
    if proc.returncode != 0:
        raise MeasureError(f"worker {' '.join(args)} exited with {proc.returncode}")
    if setup_s is None:
        raise MeasureError(f"worker {' '.join(args)} never finished its set-up")
    return setup_s, messages


def measure(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> tuple[dict, dict]:
    """One run: (the result object the benchmark prints, run details).

    With ``trace`` false the metrics are the end-to-end ones of
    ``BENCHMARK.json``, otherwise its per-layer ones.
    """
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", "1" if trace else "0"] + (["--quick"] if quick else [])
    setup_s, messages = _run_worker(args + ["--role", "measure"], deadline)
    outcomes = [m["outcome"] for m in messages if "outcome" in m]
    if len(outcomes) != 1:
        raise MeasureError("the worker reported no outcome")
    outcome = outcomes[0]
    values = dict(outcome["metrics"])
    setups = [setup_s]
    if not trace:
        for _ in range(SETUP_REPS - 1):
            setups.append(_run_worker(args + ["--role", "setup"], deadline)[0])
        values["setup_s"] = median(setups)

    catalogue = benchmark_spec()["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in catalogue]
    if sorted(values) != sorted(names):
        raise MeasureError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"unexpected {sorted(set(values) - set(names))}"
        )
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalogue},
    }
    detail = dict(outcome["detail"], setup_s=setups, failure_examples=outcome["failure_examples"])
    return result, detail
