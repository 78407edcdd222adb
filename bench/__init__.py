"""The repository benchmark: end-to-end and per-layer performance of the
selective-vectorization compiler and its compile server.

Run ``python -m bench --help`` for the commands; ``bench/README.md``
describes the workloads, the metrics and how to read a comparison.

The benchmark drives the program only through its public entry points
(:func:`repro.compiler.service.compile_one`, the ``repro.serve`` HTTP
server and :class:`repro.serve.store.ArtifactStore`) and imports the
program from the ``src/`` directory next to this package.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Default directory for result files and scratch stores (git-ignored).
OUT = ROOT / "bench" / "out"


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def use_checkout_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`ProgramMissing` when the checkout holds only the
    benchmark, so no run can silently measure some other copy of the
    program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
