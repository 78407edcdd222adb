"""Byte-for-byte pins of the command-line reports CI diffs.

Each golden under ``tests/data`` is the stdout of one command: the
``--explain`` report of the quickstart loop, the ``--explain --check``
report of the divide loop, and the two deterministic example scripts.
Every command runs in a fresh interpreter, as in CI, so the printed
register names and reservation tables do not depend on how many
operations the test session built before.

Regenerate with ``REPRO_REGEN_GOLDEN=1`` when a change is meant to move
a report.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

GOLDENS = {
    "quickstart.explain.txt": ["-m", "repro.compiler", "examples/quickstart.loop", "--explain"],
    "divides.explain.txt": [
        "-m",
        "repro.compiler",
        "examples/divides.loop",
        "--strategy",
        "baseline",
        "--explain",
        "--check",
    ],
    "pipeline_trace.txt": ["examples/pipeline_trace.py"],
    "reduction_recognition.txt": ["examples/reduction_recognition.py"],
}


def _stdout(args: list[str]) -> bytes:
    # Without the ``REPRO_*`` switches: ``REPRO_PROFILE=-`` alone would
    # print a profile into the report.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_report_matches_golden(golden):
    got = _stdout(GOLDENS[golden])
    path = DATA / golden
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.write_bytes(got)
    want = path.read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(keepends=True),
            got.decode().splitlines(keepends=True),
            f"tests/data/{golden}",
            "output",
        )
        pytest.fail("".join(diff) or f"{golden}: line endings differ")
