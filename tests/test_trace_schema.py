"""Trace-schema guarantees: round-trip property and golden fixture.

Two protections against schema drift:

* a property test — any session the recorder can produce re-parses under
  the schema reader after a JSON round trip;
* a frozen golden fixture (``tests/data/golden_trace.json``) — the exact
  document a scripted session emits under a fake clock.  Any change to
  the trace shape shows up as a diff against the fixture, forcing a
  deliberate schema-version bump instead of silent drift.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.observability.trace as trace_mod
from repro.observability import recording
from repro.observability.export import TRACE_SCHEMA_VERSION, recorder_to_dict
from repro.observability.schema import (
    SUPPORTED_TRACE_VERSIONS,
    TraceSchemaError,
    load_trace,
    validate_trace,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

_names = st.sampled_from(
    ["compile_loop", "partition", "modulo_schedule", "regalloc", "check"]
)
_counter_names = st.sampled_from(
    ["kl.pack_steps", "sched.ii_attempts", "mii.bf_relaxations"]
)
_counters = st.lists(
    st.tuples(_counter_names, st.integers(min_value=0, max_value=10_000)),
    max_size=3,
)

# A span tree: (name, counters, emit_remark, children).
_span_trees = st.recursive(
    st.tuples(_names, _counters, st.booleans(), st.just([])),
    lambda children: st.tuples(
        _names,
        _counters,
        st.booleans(),
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)


def _replay(rec, node) -> None:
    name, counters, emit_remark, children = node
    with rec.span(name, loop="prop_loop"):
        for counter, n in counters:
            rec.count(counter, n)
        if emit_remark:
            rec.remark(name, "prop_loop", "because", "property remark", k=1)
        for child in children:
            _replay(rec, child)


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(forest=st.lists(_span_trees, max_size=3))
    def test_any_session_reparses_under_the_schema(self, forest):
        with recording() as rec:
            for tree in forest:
                _replay(rec, tree)
            rec.count("outside.spans", 2)
        document = json.loads(json.dumps(recorder_to_dict(rec)))
        loaded = load_trace(document)
        assert loaded["schema_version"] == TRACE_SCHEMA_VERSION
        assert set(loaded) == {"schema_version", "spans", "counters", "remarks"}
        # Everything emitted survives the round trip.
        assert len(loaded["spans"]) == len(rec.tracer.roots)
        assert loaded["remarks"] == rec.remarks.to_dict()
        assert loaded["counters"] == rec.stats.counters
        # Per-span counter attribution sums back to the flat registry.
        attributed: dict[str, int] = {}

        def fold(span):
            for name, value in span["counters"].items():
                attributed[name] = attributed.get(name, 0) + value
            for child in span["children"]:
                fold(child)

        for span in loaded["spans"]:
            fold(span)
        for name, value in attributed.items():
            assert value <= loaded["counters"][name]


class TestGoldenFixture:
    def _golden_session(self):
        """The scripted session the fixture was generated from (fake
        clock: one tick = 1 ms, so durations are deterministic)."""
        ticks = itertools.count(1_000_000, 1_000_000)
        real = trace_mod.time.perf_counter_ns
        trace_mod.time.perf_counter_ns = lambda: next(ticks)
        try:
            with recording() as rec:
                with rec.span(
                    "compile_loop", loop="golden", strategy="selective"
                ):
                    with rec.span("dependence", loop="golden"):
                        rec.count("mii.bf_runs", 1)
                        rec.count("mii.bf_relaxations", 4)
                    with rec.span("partition", loop="golden"):
                        rec.count("kl.iterations", 2)
                        rec.count("kl.pack_steps", 7)
                    with rec.span("modulo_schedule", loop="golden"):
                        rec.count("sched.ii_attempts", 3)
                        rec.count("sched.height_relaxations", 5)
                    rec.remark(
                        "sched",
                        "golden",
                        "ii-found",
                        "II=2 after 3 attempt(s)",
                        ii=2,
                        attempts=3,
                    )
                rec.count("session.flushes", 1)
        finally:
            trace_mod.time.perf_counter_ns = real
        return rec

    def test_golden_fixture_validates(self):
        loaded = load_trace(str(GOLDEN_PATH))
        assert loaded["schema_version"] == TRACE_SCHEMA_VERSION
        assert loaded["spans"][0]["name"] == "compile_loop"

    def test_emitted_trace_matches_frozen_fixture(self):
        document = json.loads(
            json.dumps(recorder_to_dict(self._golden_session()), sort_keys=True)
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert document == golden, (
            "trace document shape drifted from tests/data/golden_trace.json "
            "— if intentional, bump TRACE_SCHEMA_VERSION, teach "
            "repro.observability.schema the new shape, and regenerate the "
            "fixture"
        )


class TestValidation:
    def _minimal(self, version=TRACE_SCHEMA_VERSION):
        return {
            "schema_version": version,
            "spans": [],
            "counters": {},
            "remarks": [],
        }

    def test_supported_versions_include_current(self):
        assert TRACE_SCHEMA_VERSION in SUPPORTED_TRACE_VERSIONS

    def test_minimal_documents_validate(self):
        for version in SUPPORTED_TRACE_VERSIONS:
            validate_trace(self._minimal(version))

    def test_unsupported_version_rejected(self):
        for version in (3, 99):
            with pytest.raises(TraceSchemaError, match="schema_version"):
                validate_trace(self._minimal(version))

    def test_span_missing_key_rejected(self):
        doc = self._minimal()
        doc["spans"] = [{"name": "x", "attrs": {}, "start_ns": 0}]
        with pytest.raises(TraceSchemaError, match=r"spans\[0\]"):
            validate_trace(doc)
        doc["spans"] = [
            {
                "name": "x",
                "attrs": {},
                "start_ns": 0,
                "duration_ns": 1,
                "children": [],
            }
        ]
        with pytest.raises(TraceSchemaError, match=r"spans\[0\]\.counters"):
            validate_trace(doc)

    def test_non_integer_counter_rejected(self):
        doc = self._minimal()
        doc["counters"] = {"kl.pack_steps": "7"}
        with pytest.raises(TraceSchemaError, match="integer"):
            validate_trace(doc)

    def test_bool_span_counter_rejected(self):
        doc = self._minimal()
        doc["spans"] = [
            {
                "name": "x",
                "attrs": {},
                "start_ns": 0,
                "duration_ns": 1,
                "children": [],
                "counters": {"n": True},
            }
        ]
        with pytest.raises(TraceSchemaError, match="counter"):
            validate_trace(doc)

    def test_missing_top_level_key_rejected(self):
        for key in ("spans", "counters", "remarks"):
            doc = self._minimal()
            del doc[key]
            with pytest.raises(TraceSchemaError, match=key):
                validate_trace(doc)
