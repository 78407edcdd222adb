"""The run ledger: append-only durability, shard merge, run resolution.

The centerpiece property (hypothesis): **splitting a run into shards and
merging the shard records equals the serial record modulo wall clock** —
the deterministic content (experiments, loops, effort, digests) is
byte-identical, only circumstantial fields (wall, cache traffic) differ.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import (
    Ledger,
    RunRecord,
    merge_records,
    record_from_payloads,
    strip_wall_fields,
)
from repro.ledger.record import VOLATILE_FIELDS, WALL_FIELDS

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baseline",
)

BENCH_POOL = ("alpha", "beta.2", "gamma", "delta")
COUNTERS = ("sched_attempts", "kl_pack_steps", "kl_probes")


def _payloads_for(corpus: dict[str, dict[str, dict]], wall_ms: float):
    """One experiment payload + perf payload over a benchmark subset,
    shaped like ``bench_io.collect_experiment`` output."""
    data = {
        bench: {"selective": 1.0 + len(loops) / 10.0}
        for bench, loops in corpus.items()
    }
    loops = {
        bench: {
            loop: {"selective": dict(metrics)}
            for loop, metrics in loops_by_name.items()
        }
        for bench, loops_by_name in corpus.items()
    }
    telemetry = {
        bench: {
            "selective": {
                "loops": len(loops_by_name),
                "wall_ms": wall_ms,
                **{
                    counter: sum(
                        metrics[counter]
                        for metrics in loops_by_name.values()
                    )
                    for counter in COUNTERS
                },
            }
        }
        for bench, loops_by_name in corpus.items()
    }
    effort = {
        counter: sum(
            metrics[counter]
            for loops_by_name in corpus.values()
            for metrics in loops_by_name.values()
        )
        for counter in COUNTERS
    }
    payloads = {
        "table2": {"data": data, "loops": loops, "telemetry": telemetry}
    }
    perf = {
        "effort": effort,
        "wall_s": wall_ms / 1e3,
        "jobs": 1,
        "cache_hits": 0,
        "cache_misses": sum(len(v) for v in corpus.values()),
    }
    return payloads, perf


def _record_for(corpus, label, wall_ms=7.5):
    payloads, perf = _payloads_for(corpus, wall_ms)
    return record_from_payloads(
        payloads,
        perf,
        label=label,
        git_sha="deadbeef",
        config={"benchmarks": sorted(corpus)},
    )


corpus_strategy = st.dictionaries(
    st.sampled_from(BENCH_POOL),
    st.dictionaries(
        st.sampled_from(["L0", "L1", "L2"]),
        st.fixed_dictionaries(
            {
                "ii": st.integers(1, 40),
                **{c: st.integers(0, 500) for c in COUNTERS},
            }
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=4,
)


class TestShardMerge:
    @settings(max_examples=40, deadline=None)
    @given(corpus=corpus_strategy, data=st.data())
    def test_merge_of_shards_equals_serial_modulo_wall(self, corpus, data):
        serial = _record_for(corpus, label="serial", wall_ms=100.0)
        benches = sorted(corpus)
        n_shards = data.draw(st.integers(1, len(benches)))
        assignment = data.draw(
            st.lists(
                st.integers(0, n_shards - 1),
                min_size=len(benches),
                max_size=len(benches),
            )
        )
        shards = []
        for shard_index in range(n_shards):
            subset = {
                bench: corpus[bench]
                for bench, owner in zip(benches, assignment)
                if owner == shard_index
            }
            if not subset:
                continue
            shards.append(
                _record_for(
                    subset,
                    label="shard",
                    wall_ms=float(10 * (shard_index + 1)),
                )
            )
        merged = merge_records(shards, label="serial")
        assert merged.comparable_dict() == serial.comparable_dict()
        assert merged.content_digest() == serial.content_digest()
        # Circumstantial wall clock sums across shards instead.
        assert merged.wall_s == pytest.approx(
            sum(s.wall_s for s in shards)
        )

    def test_merge_rejects_disagreeing_shards(self):
        a = _record_for({"alpha": {"L0": {"ii": 4, **{c: 1 for c in COUNTERS}}}}, "a")
        b = _record_for({"alpha": {"L0": {"ii": 5, **{c: 1 for c in COUNTERS}}}}, "b")
        with pytest.raises(ValueError, match="disagree"):
            merge_records([a, b])

    def test_merge_rejects_mixed_commits(self):
        a = _record_for({"alpha": {"L0": {"ii": 4, **{c: 1 for c in COUNTERS}}}}, "a")
        b = _record_for({"beta.2": {"L0": {"ii": 5, **{c: 1 for c in COUNTERS}}}}, "b")
        b.git_sha = "cafef00d"
        with pytest.raises(ValueError, match="commits"):
            merge_records([a, b])


class TestStore:
    def test_append_roundtrip_and_index(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        r1 = _record_for({"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, "one")
        r2 = _record_for({"beta.2": {"L0": {"ii": 6, **{c: 3 for c in COUNTERS}}}}, "two")
        ledger.append(r1)
        ledger.append(r2)
        records = ledger.records()
        assert [r.run_id for r in records] == [r1.run_id, r2.run_id]
        assert records[0].to_dict() == r1.to_dict()
        # The log is the whole ledger: no index or side file beside it.
        assert os.listdir(tmp_path / "ledger") == ["runs.jsonl"]

    def test_torn_tail_is_skipped_with_warning(self, tmp_path):
        warnings: list[str] = []
        ledger = Ledger(str(tmp_path / "ledger"), warn=warnings.append)
        r1 = _record_for({"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, "ok")
        ledger.append(r1)
        # A writer crashed mid-append: half a record, no newline.
        with open(ledger.runs_path, "ab") as f:
            f.write(b'{"run_id": "torn-run", "created')
        records = ledger.records()
        assert [r.run_id for r in records] == [r1.run_id]
        assert any("torn" in w for w in warnings)

    def test_corrupt_middle_line_is_skipped_with_warning(self, tmp_path):
        warnings: list[str] = []
        ledger = Ledger(str(tmp_path / "ledger"), warn=warnings.append)
        r1 = _record_for({"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, "a")
        ledger.append(r1)
        with open(ledger.runs_path, "ab") as f:
            f.write(b"this is not json\n")
            f.write(b'{"created_at": "2026-01-01T00:00:00Z"}\n')  # no run_id
            f.write(b"[1, 2]\n")  # JSON, but not an object
            # Objects whose container fields have the wrong type.
            f.write(
                b'{"run_id":"r1","created_at":"2026-01-01T00:00:00Z",'
                b'"loops":[1]}\n'
            )
            f.write(
                b'{"run_id":"r2","created_at":"2026-01-01T00:00:00Z",'
                b'"effort":[1]}\n'
            )
        r2 = _record_for({"gamma": {"L0": {"ii": 5, **{c: 2 for c in COUNTERS}}}}, "b")
        ledger.append(r2)
        records = ledger.records()
        assert [r.run_id for r in records] == [r1.run_id, r2.run_id]
        assert len([w for w in warnings if "unreadable" in w]) == 5

    def test_append_is_a_single_complete_line(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        record = _record_for(
            {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, "x"
        )
        ledger.append(record)
        raw = open(ledger.runs_path, "rb").read()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_resolve_references(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        rs = [
            _record_for(
                {"alpha": {"L0": {"ii": i, **{c: 1 for c in COUNTERS}}}},
                f"r{i}",
            )
            for i in (1, 2, 3)
        ]
        for r in rs:
            ledger.append(r)
        assert ledger.resolve("latest").run_id == rs[2].run_id
        assert ledger.resolve("prev").run_id == rs[1].run_id
        assert ledger.resolve("-3").run_id == rs[0].run_id
        assert ledger.resolve(rs[0].run_id).run_id == rs[0].run_id
        # A unique prefix resolves; an unknown one raises.
        assert (
            ledger.resolve(rs[1].run_id[:-2]).run_id == rs[1].run_id
        )
        with pytest.raises(KeyError):
            ledger.resolve("no-such-run")

    def test_missing_ledger_reads_empty(self, tmp_path):
        ledger = Ledger(str(tmp_path / "nope"))
        assert ledger.records() == []
        with pytest.raises(KeyError):
            ledger.resolve("latest")


class TestRecord:
    def test_comparable_dict_drops_volatile_and_identity(self):
        record = _record_for(
            {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}},
            "cold",
            wall_ms=500.0,
        )
        tree = record.comparable_dict()
        blob = json.dumps(tree)
        for key in ("run_id", "created_at", "label", "wall_ms", "wall_s"):
            assert f'"{key}"' not in blob
        assert "cache_hits" not in blob and "cache_misses" not in blob

    def test_cold_and_warm_runs_share_a_content_digest(self):
        corpus = {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}
        cold = _record_for(corpus, "cold", wall_ms=900.0)
        warm = _record_for(corpus, "warm", wall_ms=30.0)
        warm.cache = {"hits": 9, "misses": 0, "compile_cache": True}
        assert cold.content_digest() == warm.content_digest()

    def test_strip_wall_fields_is_recursive(self):
        tree = {
            "wall_s": 1.0,
            "keep": {"cache_hits": 3, "ii": 4, "inner": [{"wall_ms": 9}]},
        }
        assert strip_wall_fields(tree) == {
            "keep": {"ii": 4, "inner": [{}]}
        }
        assert WALL_FIELDS < VOLATILE_FIELDS

    def test_from_dict_requires_identity(self):
        with pytest.raises(ValueError, match="run_id"):
            RunRecord.from_dict({"created_at": "2026-01-01T00:00:00Z"})

    def test_from_dict_ignores_unknown_fields(self):
        record = RunRecord.from_dict(
            {
                "run_id": "r",
                "created_at": "2026-01-01T00:00:00Z",
                "some_future_field": 42,
            }
        )
        assert record.run_id == "r"


class TestConcurrentAppend:
    def test_interleaved_appends_all_survive(self, tmp_path):
        """Two processes appending concurrently interleave whole lines."""
        import multiprocessing

        root = str(tmp_path / "ledger")
        corpus = {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}
        Ledger(root).append(_record_for(corpus, "seed"))

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_append_many, args=(root, corpus, i))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        records = Ledger(root).records()
        assert len(records) == 1 + 4 * 5
        assert len({r.run_id for r in records}) == len(records)


def _append_many(root: str, corpus: dict, worker: int) -> None:
    ledger = Ledger(root)
    for i in range(5):
        ledger.append(_record_for(corpus, f"w{worker}.{i}"))


class TestBenchArtifacts:
    def test_every_write_lands_on_disk(self, tmp_path):
        """Each run overwrites its artifact, even when only wall clock
        moved: the file holds the latest run's timings."""
        from repro.evaluation.bench_io import write_bench_json

        payload = {"experiment": "sweep", "data": {"rate_per_s": 100.0}}
        write_bench_json("sweep", payload, str(tmp_path))
        payload["data"]["rate_per_s"] = 250.0
        path = write_bench_json("sweep", payload, str(tmp_path))
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        assert raw.endswith("}\n")
        assert json.loads(raw)["data"]["rate_per_s"] == 250.0
        assert os.listdir(tmp_path) == ["BENCH_sweep.json"]


class TestRecordFromPayloads:
    def test_compile_perf_payload_is_used_not_duplicated(self):
        payloads, perf = _payloads_for(
            {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, 5.0
        )
        payloads["compile_perf"] = perf
        record = record_from_payloads(payloads, git_sha="deadbeef")
        assert "compile_perf" not in record.experiments
        assert record.effort == perf["effort"]
        assert record.config["experiments"] == ["table2"]

    def test_corpus_digest_tracks_loop_population(self):
        small = _record_for(
            {"alpha": {"L0": {"ii": 4, **{c: 2 for c in COUNTERS}}}}, "s"
        )
        large = _record_for(
            {
                "alpha": {
                    "L0": {"ii": 4, **{c: 2 for c in COUNTERS}},
                    "L1": {"ii": 6, **{c: 2 for c in COUNTERS}},
                }
            },
            "l",
        )
        assert small.corpus_digest != large.corpus_digest


class TestCommittedBaseline:
    """The committed ledger ``benchmarks/baseline`` holds the reference
    records the regression gate compares every run against, newest
    last (a refresh appends one)."""

    @pytest.fixture(scope="class")
    def latest(self):
        ledger = Ledger(BASELINE_DIR, warn=lambda message: None)
        records = ledger.records()
        assert records and ledger.warnings == []
        return records[-1]

    def test_latest_record_is_clean_over_every_experiment(self, latest):
        from repro.evaluation.bench_io import EXPERIMENTS
        from repro.workloads.spec import BENCHMARK_NAMES

        assert sorted(latest.experiments) == sorted(EXPERIMENTS)
        assert sorted(latest.loops) == sorted(BENCHMARK_NAMES)
        assert latest.config["benchmarks"] == sorted(BENCHMARK_NAMES)
        assert latest.check is not None and latest.check["errors"] == 0

    def test_figure1_matches_a_fresh_run(self, latest):
        from repro.evaluation.experiments import figure1_iis

        assert latest.experiments["figure1"] == figure1_iis()

    def test_trend_reads_the_committed_baseline(self, latest, capsys):
        from repro.dashboard.__main__ import main as dashboard_main

        assert (
            dashboard_main(
                ["trend", "effort.sched_attempts", "--ledger", BASELINE_DIR]
            )
            == 0
        )
        last_row = capsys.readouterr().out.splitlines()[-1]
        assert last_row.startswith(f"  {latest.run_id}")
        assert last_row.endswith(f" {latest.effort['sched_attempts']}")
