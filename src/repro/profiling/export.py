"""Profile exporters: text tree, collapsed stacks, speedscope JSON.

* :func:`render_tree` — the human-readable call tree ``--profile``
  prints: per phase calls, total/self wall time, percent of the session,
  and (optionally) the effort counters attributed to the phase.
* :func:`to_collapsed` — ``flamegraph.pl`` input: one
  ``phase;sub;subsub <self-microseconds>`` line per phase.
* :func:`to_speedscope` — a `speedscope <https://www.speedscope.app>`_
  sampled profile: one sample per phase (its full stack) weighted by the
  phase's self time, in nanoseconds.

:func:`emit_profile` is what ``--profile[=PATH]`` and ``REPRO_PROFILE``
do with a finished recorder: print the tree, or write the JSON.
"""

from __future__ import annotations

from repro.observability.recorder import Recorder
from repro.profiling.profile import PhaseProfile, Profile, write_profile

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _ms(ns: int) -> str:
    return f"{ns / 1e6:.3f}"


def render_tree(
    profile: Profile,
    *,
    max_depth: int | None = None,
    counters: bool = False,
    min_total_ns: int = 0,
) -> str:
    """The text call tree, children sorted by total time descending."""
    total = max(profile.total_ns, 1)
    lines = [
        "== profile ==",
        f"{'phase':<44} {'calls':>7} {'total ms':>10} {'self ms':>10} {'total %':>8}",
    ]

    def visit(node: PhaseProfile, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        if node.total_ns < min_total_ns:
            return
        label = ("  " * depth + node.name)[:44]
        lines.append(
            f"{label:<44} {node.calls:>7} {_ms(node.total_ns):>10} "
            f"{_ms(node.self_ns):>10} {100.0 * node.total_ns / total:>7.1f}%"
        )
        if counters and node.counters:
            for name, value in sorted(node.counters.items()):
                lines.append("  " * (depth + 1) + f"· {name} = {value}")
        for child in sorted(
            node.children.values(), key=lambda c: -c.total_ns
        ):
            visit(child, depth + 1)

    visit(profile.root, 0)
    return "\n".join(lines)


def emit_profile(
    recorder: Recorder, target: str, *, quiet: bool = False
) -> Profile:
    """Build ``recorder``'s profile and emit it: ``-`` prints the call
    tree with its counters; any other ``target`` is the path the
    profile JSON is written to, announced on stdout unless ``quiet``."""
    profile = Profile.from_recorder(recorder)
    if target == "-":
        print(render_tree(profile, counters=True))
    else:
        write_profile(profile, target)
        if not quiet:
            print(f"wrote profile to {target}")
    return profile


def to_collapsed(profile: Profile) -> str:
    """Collapsed-stack form (``flamegraph.pl`` input), weights in
    microseconds of self time.  Zero-self phases are omitted — they
    carry no area of their own."""
    lines: list[str] = []

    def visit(node: PhaseProfile, stack: list[str]) -> None:
        frames = stack + [node.name]
        weight_us = node.self_ns // 1000
        if weight_us > 0:
            lines.append(";".join(frames) + f" {weight_us}")
        for child in node.children.values():
            visit(child, frames)

    for child in profile.root.children.values():
        visit(child, [])
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(
    profile: Profile, name: str = "repro compile profile"
) -> dict[str, object]:
    """A speedscope ``sampled`` profile document: one sample per phase,
    weighted by its self time (nanoseconds)."""
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame(frame_name: str) -> int:
        if frame_name not in frame_index:
            frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return frame_index[frame_name]

    samples: list[list[int]] = []
    weights: list[int] = []

    def visit(node: PhaseProfile, stack: list[int]) -> None:
        frames_here = stack + [frame(node.name)]
        if node.self_ns > 0:
            samples.append(frames_here)
            weights.append(node.self_ns)
        for child in node.children.values():
            visit(child, frames_here)

    for child in profile.root.children.values():
        visit(child, [])

    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro.profiling",
    }
