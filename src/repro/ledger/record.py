"""The unit the ledger stores: one immutable run record.

A :class:`RunRecord` captures everything a later cross-run question
needs, split along the same line the rest of the tooling draws:

* **deterministic** content — per-loop II/ResMII/RecMII, table speedups,
  effort counters, check/oracle outcomes, config and corpus digests —
  comparable exactly across machines and weeks;
* **circumstantial** content — wall clock, cache hit/miss split, pool
  size — recorded for context, excluded from equality
  (:meth:`RunRecord.comparable_dict`).

Records are plain JSON documents; every field is optional except the
identity triple (``run_id``, ``created_at``, ``schema_version``), so the
compiler CLI's single-loop record and the evaluation harness's
full-corpus record share one shape.  Every producer builds its record
with :meth:`RunRecord.create`, the one place a record is stamped (run
id, time, commit) and its config and corpus digests are derived.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any

LEDGER_SCHEMA_VERSION = 1

#: Keys (anywhere in a record tree) that carry wall-clock
#: measurements.  Shard merges sum them instead of treating them as
#: disagreements.
WALL_FIELDS = frozenset(
    {"wall_s", "wall_ms", "check_ms", "elapsed_s", "eta_s", "rate_per_s"}
)

#: Wall fields plus cache traffic: everything that describes *how this
#: particular run obtained* its results (machine speed, cache state)
#: rather than what the compiler deterministically produced.
#: ``comparable_dict`` strips these; so do the dashboard's exact
#: comparisons.
VOLATILE_FIELDS = WALL_FIELDS | frozenset({"cache_hits", "cache_misses"})

#: Record keys that identify *this particular* run rather than its
#: deterministic content.
CIRCUMSTANTIAL_FIELDS = ("run_id", "created_at", "label", "jobs", "cache")

#: The types a stored record's container fields may hold; readers walk
#: them without further checks.  ``profile`` may also be the file path
#: older records stored.
_CONTAINER_FIELDS: dict[str, type | tuple[type, ...]] = {
    "config": dict,
    "experiments": dict,
    "loops": dict,
    "effort": dict,
    "telemetry": dict,
    "cache": dict,
    "notes": list,
    "check": (dict, type(None)),
    "oracle": (dict, type(None)),
    "profile": (dict, str, type(None)),
}


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def current_git_sha(repo: str = ".") -> str | None:
    """The checked-out commit, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", repo, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return out or None
    except (subprocess.CalledProcessError, OSError):
        return None


def digest_of(tree: object) -> str:
    """SHA-256 over the canonical JSON of ``tree`` (sorted keys)."""
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def new_run_id(created_at: str | None = None) -> str:
    """``<timestamp>-<random8>`` — sortable, collision-resistant."""
    stamp = (created_at or utc_now_iso()).replace(":", "").replace("-", "")
    return f"{stamp.rstrip('Z')}-{os.urandom(4).hex()}"


def strip_wall_fields(tree: object) -> object:
    """``tree`` with every wall-clock and cache-traffic key removed,
    recursively — the volatile, machine-circumstantial leaves that must
    never count as a cross-run difference."""
    if isinstance(tree, dict):
        return {
            key: strip_wall_fields(value)
            for key, value in tree.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(tree, list):
        return [strip_wall_fields(item) for item in tree]
    return tree


@dataclass
class RunRecord:
    """One run's immutable ledger entry."""

    run_id: str
    created_at: str
    label: str = ""
    git_sha: str | None = None
    #: What was asked for: experiments, benchmarks, strategy knobs,
    #: jobs, cache — anything that shaped the run.
    config: dict = field(default_factory=dict)
    config_digest: str = ""
    #: Digest over the loop population the run covered.
    corpus_digest: str = ""
    #: Headline data per experiment (figure1 IIs, table speedups).
    experiments: dict = field(default_factory=dict)
    #: Per-loop metrics: {benchmark: {loop: {variant: {ii, ...}}}}.
    loops: dict = field(default_factory=dict)
    #: Deterministic effort totals (kl_probes, sched_attempts, ...).
    #: ``kl_probe_cache_hits`` is no longer written: the probe cache it
    #: counted was removed.  Older records may still carry it.
    effort: dict = field(default_factory=dict)
    #: Per-(benchmark, variant) telemetry rows (includes wall_ms).
    telemetry: dict = field(default_factory=dict)
    #: How this run obtained its results (not comparable).
    jobs: int = 1
    cache: dict = field(default_factory=dict)
    wall_s: float = 0.0
    #: Translation-validation outcome, when checks ran.
    check: dict | None = None
    #: Oracle certification outcome, when the oracle ran.
    oracle: dict | None = None
    #: The run's call-tree profile document (``Profile.to_dict()``),
    #: when the run was profiled.  Older records may hold a file path
    #: here instead; ``dashboard compare`` reports per-phase deltas only
    #: when both records hold a document.
    profile: dict | None = None
    #: Free-form notes/remarks worth surfacing in the dashboard.
    notes: list = field(default_factory=list)
    schema_version: int = LEDGER_SCHEMA_VERSION

    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        *,
        config: dict,
        loops: dict,
        run_id: str | None = None,
        created_at: str | None = None,
        git_sha: str | None = None,
        repo: str | None = ".",
        **fields: Any,
    ) -> "RunRecord":
        """A new record, stamped and digested.

        ``created_at`` is now and ``run_id`` is taken from it; ``git_sha``
        is the commit checked out in ``repo`` (``repo=None`` stamps no
        commit).  ``config_digest`` covers ``config`` and
        ``corpus_digest`` the loop names of each group in ``loops``.
        The stamps can be given instead (tests, shard merges).
        """
        created_at = created_at or utc_now_iso()
        if git_sha is None and repo is not None:
            git_sha = current_git_sha(repo)
        corpus = {group: sorted(rows) for group, rows in loops.items()}
        return cls(
            run_id=run_id or new_run_id(created_at),
            created_at=created_at,
            git_sha=git_sha,
            config=config,
            config_digest=digest_of(config),
            corpus_digest=digest_of(corpus),
            loops=loops,
            **fields,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: dict) -> "RunRecord":
        """The record ``document`` holds.  Raises ``ValueError`` for a
        document without its identity or with a container field of the
        wrong type, which the ledger reader skips as unreadable."""
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in document.items() if k in known}
        missing = {"run_id", "created_at"} - set(fields)
        if missing:
            raise ValueError(f"run record missing {sorted(missing)}")
        for name, expected in _CONTAINER_FIELDS.items():
            if name in fields and not isinstance(fields[name], expected):
                raise ValueError(
                    f"run record field {name!r} is a "
                    f"{type(fields[name]).__name__}"
                )
        return cls(**fields)

    def comparable_dict(self) -> dict:
        """The deterministic portion: identity and wall fields removed.

        Two runs of the same compiler over the same corpus — serial or
        sharded, cold or warm, any machine — must produce equal
        comparable dicts; anything that differs is a real change.
        """
        tree = self.to_dict()
        for key in CIRCUMSTANTIAL_FIELDS:
            tree.pop(key, None)
        tree.pop("profile", None)
        tree.pop("notes", None)
        return strip_wall_fields(tree)  # type: ignore[return-value]

    def content_digest(self) -> str:
        return digest_of(self.comparable_dict())

    # ------------------------------------------------------------------

    def effort_total(self) -> int:
        return sum(
            int(v) for v in self.effort.values() if isinstance(v, (int, float))
        )

    def loop_count(self) -> int:
        return sum(
            len(loops_by_name) for loops_by_name in self.loops.values()
        )

    def summary_line(self) -> str:
        sha = (self.git_sha or "-")[:8]
        exps = ",".join(sorted(self.experiments)) or "-"
        return (
            f"{self.run_id}  {self.created_at}  {sha:<8}  "
            f"{self.label or '-':<10}  {exps}"
        )


# ----------------------------------------------------------------------
# Builders


def record_from_payloads(
    payloads: dict[str, dict],
    perf: dict | None = None,
    *,
    run_id: str | None = None,
    created_at: str | None = None,
    label: str = "",
    git_sha: str | None = None,
    repo: str = ".",
    config: dict | None = None,
    check: dict | None = None,
    oracle: dict | None = None,
    profile: dict | None = None,
    notes: list | None = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from the ``BENCH_*`` payloads the
    evaluation harness already produces.

    ``payloads`` maps experiment name to its artifact payload (the
    ``bench_io.collect_experiment`` shape); ``perf`` is the
    ``compile_perf`` payload carrying effort totals and cache traffic.
    """
    experiments: dict = {}
    loops: dict = {}
    telemetry: dict = {}
    for experiment, payload in sorted(payloads.items()):
        if experiment == "compile_perf":
            perf = perf or payload
            continue
        experiments[experiment] = payload.get("data", {})
        for bench, rows in (payload.get("loops") or {}).items():
            loops.setdefault(bench, {}).update(rows)
        for bench, variants in (payload.get("telemetry") or {}).items():
            telemetry.setdefault(bench, {}).update(variants)
    perf = perf or {}
    effort = dict(perf.get("effort") or {})
    cache = {
        "hits": int(perf.get("cache_hits") or 0),
        "misses": int(perf.get("cache_misses") or 0),
        "compile_cache": bool(perf.get("compile_cache")),
    }
    config = dict(config or {})
    config.setdefault("experiments", sorted(experiments))
    return RunRecord.create(
        config=config,
        loops=loops,
        run_id=run_id,
        created_at=created_at,
        git_sha=git_sha,
        repo=repo,
        label=label,
        experiments=experiments,
        effort=effort,
        telemetry=telemetry,
        jobs=int(perf.get("jobs") or 1),
        cache=cache,
        wall_s=float(perf.get("wall_s") or 0.0),
        check=check,
        oracle=oracle,
        profile=profile,
        notes=list(notes or []),
    )
