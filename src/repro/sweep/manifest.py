"""Crash-safe sweep manifest: an append-only JSONL progress journal.

One manifest per sweep directory.  The first line is the header (the
corpus spec and run configuration); each later line records one durably
completed shard.  The journal is the run ledger's log class,
:class:`~repro.ledger.store.JsonLinesLog`: each append is one
``O_APPEND`` write of a complete line, and the reader skips a torn tail
or corrupt line, so a run killed mid-write still leaves every earlier
shard completion readable and ``--resume`` can trust what it finds.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

from repro.ledger.store import JsonLinesLog

MANIFEST_FILE = "manifest.jsonl"


def _stderr_warn(message: str) -> None:
    print(f"[sweep] {message}", file=sys.stderr)


class SweepManifest:
    """The append-only journal of one sweep directory."""

    def __init__(
        self,
        directory: str,
        *,
        warn: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = directory
        self._log = JsonLinesLog(
            os.path.join(directory, MANIFEST_FILE),
            "event",
            warn if warn is not None else _stderr_warn,
        )

    @property
    def path(self) -> str:
        return self._log.path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def append(self, event: dict) -> None:
        """Durably append one event (a single complete JSONL line)."""
        self._log.append(event)

    def events(self) -> list[dict]:
        """Every readable event in append order; torn or corrupt lines
        are skipped with a warning."""
        return self._log.read(dict)

    def header(self) -> dict | None:
        """The sweep header event, or None for an empty/alien manifest."""
        for event in self.events():
            if event.get("event") == "sweep":
                return event
        return None

    def completed_shards(self) -> dict[int, dict]:
        """Shard index -> its completion event, for every shard whose
        ``done`` line made it to disk."""
        done: dict[int, dict] = {}
        for event in self.events():
            if event.get("event") == "shard" and event.get("status") == "done":
                done[int(event["shard"])] = event
        return done
