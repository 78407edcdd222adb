"""Append-only JSON-lines logs: the run ledger and its shard merge.

Layout (one directory per ledger)::

    <root>/runs.jsonl   one canonical JSON record per line, append-only

:class:`JsonLinesLog` is the one append-only JSON-lines log in the
tree; it backs both :class:`Ledger` and the sweep manifest.  Its rules:

* an append is one ``O_APPEND`` write of a complete line, so concurrent
  appenders interleave whole lines, never halves;
* the reader treats a final line with no trailing newline (a torn write
  from a crashed process), a line that is not a JSON object, and one
  its caller cannot parse as absent: each is skipped with a warning and
  every other line survives.

``merge_records`` folds per-shard records of one logical run (a sharded
or parallel sweep) into a single record whose deterministic content
equals the serial record exactly; wall clock and cache traffic — the
circumstantial fields — are summed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Iterable, TypeVar

from repro.ledger.record import WALL_FIELDS, RunRecord

DEFAULT_LEDGER_DIR = ".repro-ledger"

#: Environment variable naming the ledger directory when no flag does.
LEDGER_ENV = "REPRO_LEDGER"

RUNS_FILE = "runs.jsonl"

T = TypeVar("T")


def _stderr_warn(message: str) -> None:
    print(f"[ledger] {message}", file=sys.stderr)


def resolve_ledger_dir(flag: str | None) -> str:
    """The ledger directory a command uses: ``flag`` when given, else
    the ``REPRO_LEDGER`` environment variable, else ``.repro-ledger``."""
    return flag or os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER_DIR


class JsonLinesLog:
    """One append-only file of JSON objects, one per line.

    ``noun`` names a line in warnings (``record``, ``event``).
    """

    def __init__(
        self, path: str, noun: str, warn: Callable[[str], None]
    ) -> None:
        self.path = path
        self.noun = noun
        self._warn = warn

    def append(self, document: dict) -> None:
        """Durably append ``document`` as one complete line."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        line = (
            json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def read(self, parse: Callable[[dict], T]) -> list[T]:
        """``parse`` of every readable line, in append order.

        A torn tail, a line that is not a JSON object, and a line
        ``parse`` rejects (``ValueError``/``TypeError``) are skipped
        with a warning.
        """
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return []
        parsed: list[T] = []
        chunks = raw.split(b"\n")
        torn_tail = chunks[-1] != b""
        for lineno, chunk in enumerate(chunks, start=1):
            if chunk == b"":
                continue
            if torn_tail and lineno == len(chunks):
                self._warn(
                    f"{self.path}:{lineno}: torn {self.noun} "
                    f"(no trailing newline; {len(chunk)} bytes) — skipped"
                )
                continue
            try:
                document = json.loads(chunk.decode("utf-8"))
                if not isinstance(document, dict):
                    raise ValueError("not a JSON object")
                parsed.append(parse(document))
            except (ValueError, TypeError) as exc:  # UnicodeDecodeError too
                self._warn(
                    f"{self.path}:{lineno}: unreadable {self.noun} "
                    f"({exc}) — skipped"
                )
        return parsed


class Ledger:
    """One append-only run ledger rooted at a directory."""

    def __init__(
        self,
        root: str = DEFAULT_LEDGER_DIR,
        *,
        warn: Callable[[str], None] | None = None,
    ) -> None:
        self.root = root
        self._warn_cb = warn if warn is not None else _stderr_warn
        self._log = JsonLinesLog(
            os.path.join(root, RUNS_FILE), "record", self._warn
        )
        #: Warnings collected by the most recent scan.
        self.warnings: list[str] = []

    @property
    def runs_path(self) -> str:
        return self._log.path

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        self._warn_cb(message)

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record."""
        self._log.append(record.to_dict())
        return record

    def records(self) -> list[RunRecord]:
        """Every readable record, in append order.

        Torn or corrupt lines are skipped with a warning — a crashed
        writer never takes the ledger down with it.
        """
        self.warnings = []
        return self._log.read(RunRecord.from_dict)

    def get(self, run_id: str) -> RunRecord:
        matches = [r for r in self.records() if r.run_id == run_id]
        if matches:
            return matches[-1]
        raise KeyError(f"no run {run_id!r} in ledger {self.root}")

    def latest(self, n: int | None = None) -> list[RunRecord]:
        """The newest ``n`` records (all when ``n`` is None), newest last."""
        records = self.records()
        return records if n is None else records[-n:]

    def resolve(self, ref: str) -> RunRecord:
        """A record by reference: ``latest``, ``prev``, ``-N`` (from the
        end), or a run-id (unique prefixes accepted)."""
        records = self.records()
        if not records:
            raise KeyError(f"ledger {self.root} is empty")
        if ref in ("latest", "last", "-1"):
            return records[-1]
        if ref in ("prev", "previous", "-2"):
            if len(records) < 2:
                raise KeyError(f"ledger {self.root} has only one run")
            return records[-2]
        if ref.startswith("-") and ref[1:].isdigit():
            offset = int(ref)
            if -offset > len(records):
                raise KeyError(
                    f"ledger {self.root} has {len(records)} run(s), "
                    f"cannot resolve {ref}"
                )
            return records[offset]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise KeyError(f"no run matching {ref!r} in ledger {self.root}")
        full = [r for r in matches if r.run_id == ref]
        if full:
            return full[-1]
        if len({r.run_id for r in matches}) > 1:
            raise KeyError(
                f"ambiguous run reference {ref!r}: "
                + ", ".join(sorted({r.run_id for r in matches}))
            )
        return matches[-1]


# ----------------------------------------------------------------------
# Shard merge


def _merge_config(configs: list[dict]) -> dict:
    merged: dict = {}
    for config in configs:
        for key, value in config.items():
            if key not in merged:
                merged[key] = value
            elif merged[key] == value:
                continue
            elif isinstance(merged[key], list) and isinstance(value, list):
                merged[key] = sorted(set(merged[key]) | set(value))
            else:
                raise ValueError(
                    f"shards disagree on config[{key!r}]: "
                    f"{merged[key]!r} vs {value!r}"
                )
    return merged


def _merge_data(a: object, b: object, path: str) -> object:
    """Deep union; scalar conflicts are shard disagreements (an error —
    shards of one logical run must agree wherever they overlap)."""
    if isinstance(a, dict) and isinstance(b, dict):
        merged = dict(a)
        for key, value in b.items():
            if key not in merged:
                merged[key] = value
            elif (
                key in WALL_FIELDS
                and isinstance(merged[key], (int, float))
                and isinstance(value, (int, float))
            ):
                # Wall clock is additive across shards, never a
                # disagreement — it is excluded from comparisons anyway.
                merged[key] = round(float(merged[key]) + float(value), 3)
            else:
                merged[key] = _merge_data(merged[key], value, f"{path}.{key}")
        return merged
    if a == b:
        return a
    raise ValueError(f"shards disagree at {path}: {a!r} vs {b!r}")


def _merge_outcomes(outcomes: list[dict | None]) -> dict | None:
    present = [o for o in outcomes if o]
    if not present:
        return None
    merged: dict = {}
    for outcome in present:
        for key, value in outcome.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                merged[key] = _merge_data(
                    merged.get(key, value), value, f"check.{key}"
                )
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def merge_records(
    shards: Iterable[RunRecord],
    *,
    run_id: str | None = None,
    label: str | None = None,
) -> RunRecord:
    """Fold per-shard records of one logical run into a single record.

    Deterministic content (experiments, loops, effort, digests) merges
    to exactly what a serial run over the union would have recorded;
    circumstantial content (wall clock, cache traffic) is summed, and
    per-counter telemetry wall is carried through additively.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("merge_records needs at least one shard")
    git_shas = {s.git_sha for s in shards if s.git_sha}
    if len(git_shas) > 1:
        raise ValueError(
            f"shards span several commits: {sorted(git_shas)}"
        )
    schema_versions = {s.schema_version for s in shards}
    if len(schema_versions) > 1:
        raise ValueError(
            f"shards span schema versions {sorted(schema_versions)}"
        )

    experiments: dict = {}
    loops: dict = {}
    telemetry: dict = {}
    effort: dict = {}
    cache = {"hits": 0, "misses": 0, "compile_cache": False}
    notes: list = []
    wall_s = 0.0
    for shard in shards:
        experiments = _merge_data(  # type: ignore[assignment]
            experiments, shard.experiments, "experiments"
        )
        loops = _merge_data(loops, shard.loops, "loops")  # type: ignore[assignment]
        telemetry = _merge_data(  # type: ignore[assignment]
            telemetry, shard.telemetry, "telemetry"
        )
        for counter, value in shard.effort.items():
            effort[counter] = effort.get(counter, 0) + value
        cache["hits"] += int(shard.cache.get("hits") or 0)
        cache["misses"] += int(shard.cache.get("misses") or 0)
        cache["compile_cache"] = bool(
            cache["compile_cache"] or shard.cache.get("compile_cache")
        )
        wall_s += shard.wall_s
        notes += [n for n in shard.notes if n not in notes]

    return RunRecord.create(
        config=_merge_config([s.config for s in shards]),
        loops=loops,
        run_id=run_id,
        created_at=min(s.created_at for s in shards),
        git_sha=next(iter(git_shas), None),
        repo=None,
        label=label if label is not None else shards[0].label,
        experiments=experiments,
        effort=effort,
        telemetry=telemetry,
        jobs=max(s.jobs for s in shards),
        cache=cache,
        wall_s=round(wall_s, 3),
        check=_merge_outcomes([s.check for s in shards]),
        oracle=_merge_outcomes([s.oracle for s in shards]),
        profile=next((s.profile for s in shards if s.profile), None),
        notes=notes,
        schema_version=shards[0].schema_version,
    )
