"""The call-tree profile: phases merged by path, wall + effort per phase.

A :class:`Profile` is built from one recorder session
(:meth:`Profile.from_recorder`).  Spans are *merged by phase path*: every
``compile_loop/compile_unit/modulo_schedule`` span in the session folds
into one :class:`PhaseProfile` node accumulating call count, total and
self wall time, and the effort counters attributed to exactly that
phase.  Merging by path is what makes two profiles comparable —
``dashboard compare`` aligns two runs' profiles by their unique paths.

Wall time is machine noise; the effort counters are not.  They are pure
functions of (loop corpus, machine, compiler version), so two runs of
the same build must agree on them exactly — the property the exact
per-phase counter deltas of ``dashboard compare`` and the
profile-vs-telemetry test both lean on.

The JSON form (:func:`write_profile` / :func:`load_profile`) is its own
small schema (``repro-profile`` version 1), independent of the trace
schema so a profile stays loadable even as the trace grows new fields.
A ledger record embeds the same document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.observability.recorder import Recorder

PROFILE_SCHEMA_VERSION = 1
PROFILE_KIND = "repro-profile"

#: Root node name: the synthetic parent of the session's top-level spans.
ROOT_NAME = "(session)"

@dataclass
class PhaseProfile:
    """One phase (unique by path) of the merged call tree."""

    name: str
    path: str
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    children: dict[str, "PhaseProfile"] = field(default_factory=dict)

    def child(self, name: str) -> "PhaseProfile":
        node = self.children.get(name)
        if node is None:
            child_path = f"{self.path}/{name}" if self.path else name
            node = self.children[name] = PhaseProfile(name, child_path)
        return node

    def walk(self):
        """This node and every descendant, preorder."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def cumulative_counters(self) -> dict[str, int]:
        """Self counters plus every descendant's, by name."""
        totals: dict[str, int] = {}
        for node in self.walk():
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "path": self.path,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counters": dict(sorted(self.counters.items())),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PhaseProfile":
        node = cls(
            name=str(data["name"]),
            path=str(data["path"]),
            calls=int(data["calls"]),  # type: ignore[arg-type]
            total_ns=int(data["total_ns"]),  # type: ignore[arg-type]
            self_ns=int(data["self_ns"]),  # type: ignore[arg-type]
            counters={
                str(k): int(v)
                for k, v in dict(data.get("counters") or {}).items()
            },
        )
        for child_data in data.get("children") or []:  # type: ignore[union-attr]
            child = cls.from_dict(child_data)
            node.children[child.name] = child
        return node


@dataclass
class Profile:
    """One session's merged call-tree profile.

    ``root`` is a synthetic node whose children are the session's
    top-level phases; counters recorded while *no* span was open land on
    the root itself, so :meth:`counter_totals` always reproduces the
    session's flat counter registry exactly.
    """

    root: PhaseProfile
    meta: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "Profile":
        root = PhaseProfile(ROOT_NAME, "")
        root.calls = 1
        for span in recorder.tracer.roots:
            _merge_span(root, span)
        root.total_ns = sum(c.total_ns for c in root.children.values())
        # Counters recorded outside any span stay on the root so flat
        # totals are always recoverable from the tree alone.
        attributed = root.cumulative_counters()
        for name, flat in sorted(recorder.stats.counters.items()):
            missing = flat - attributed.get(name, 0)
            if missing:
                root.counters[name] = root.counters.get(name, 0) + missing
        return cls(root=root)

    def walk(self):
        yield from self.root.walk()

    def phases(self) -> dict[str, PhaseProfile]:
        """Every node keyed by its unique phase path (root at ``""``)."""
        return {node.path: node for node in self.walk()}

    def counter_totals(self) -> dict[str, int]:
        """Flat counter totals recovered from the per-phase attribution."""
        return self.root.cumulative_counters()

    @property
    def total_ns(self) -> int:
        return self.root.total_ns

    def self_ns_sum(self) -> int:
        """Sum of self times over every phase (== total, by construction)."""
        return sum(node.self_ns for node in self.walk())

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "kind": PROFILE_KIND,
            "meta": dict(self.meta),
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Profile":
        if data.get("kind") != PROFILE_KIND:
            raise ValueError(
                f"not a {PROFILE_KIND} document (kind={data.get('kind')!r})"
            )
        version = data.get("schema_version")
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported profile schema_version {version!r} "
                f"(expected {PROFILE_SCHEMA_VERSION})"
            )
        return cls(
            root=PhaseProfile.from_dict(data["root"]),  # type: ignore[arg-type]
            meta=dict(data.get("meta") or {}),  # type: ignore[call-overload]
        )


def _merge_span(parent: PhaseProfile, span) -> None:
    node = parent.child(span.name)
    node.calls += 1
    node.total_ns += span.duration_ns
    node.self_ns += span.self_ns
    for name, value in span.counters.items():
        node.counters[name] = node.counters.get(name, 0) + value
    for child in span.children:
        _merge_span(node, child)


def write_profile(profile: Profile, path: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(profile.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_profile(source: str | dict[str, object]) -> Profile:
    if isinstance(source, str):
        with open(source, encoding="utf-8") as f:
            source = json.load(f)
    return Profile.from_dict(source)


def check_profile(profile: Profile) -> list[str]:
    """Structural invariants every profile must satisfy; returns the
    violations (empty = sound).

    * self times are the total minus the children's totals, so the self
      sum over the whole tree equals the root total exactly;
    * no phase has negative self time (children cannot outlast their
      parent) or negative counters;
    * every child total is contained in its parent's total.
    """
    problems: list[str] = []
    if profile.self_ns_sum() != profile.total_ns:
        problems.append(
            f"self-time sum {profile.self_ns_sum()} ns != "
            f"total {profile.total_ns} ns"
        )
    for node in profile.walk():
        label = node.path or ROOT_NAME
        if node.self_ns < 0:
            problems.append(f"{label}: negative self time {node.self_ns} ns")
        child_total = sum(c.total_ns for c in node.children.values())
        if child_total > node.total_ns:
            problems.append(
                f"{label}: children total {child_total} ns exceeds "
                f"phase total {node.total_ns} ns"
            )
        for name, value in node.counters.items():
            if value < 0:
                problems.append(f"{label}: negative counter {name}={value}")
    return problems
