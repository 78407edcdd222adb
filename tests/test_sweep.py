"""Sharded, resumable sweep runner: determinism, crash-safety, resume.

The load-bearing property: the merged record of a sharded run — even one
that was killed mid-shard and resumed — is byte-for-byte equal (modulo
wall clocks) to an uninterrupted serial reference run.  That is what
lets ``--fail-on-exact`` gate sweeps in CI.
"""

import json
import os
import re

import pytest

from repro.ledger.store import Ledger
from repro.sweep.manifest import SweepManifest
from repro.sweep.runner import (
    SweepConfig,
    SweepError,
    run_sweep,
    shard_bounds,
    shard_path,
)
from repro.sweep.__main__ import EXIT_FAILED_SHARDS, main
from repro.workloads.generator import GENERATORS, CorpusSpec, corpus_plan

#: Small, fast corpus shared by the end-to-end tests.  Two cheap
#: archetypes keep a full compile of the corpus under a second.
SPEC = CorpusSpec(
    size=9,
    seed=7,
    archetypes=("copy_like", "fp_chain"),
    trip_counts=(16, 64),
)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The uninterrupted single-shard run every other run must match."""
    out = str(tmp_path_factory.mktemp("serial"))
    result = run_sweep(SweepConfig(spec=SPEC, shards=1), out)
    return result


class TestCorpusPlan:
    def test_plan_is_deterministic(self):
        assert corpus_plan(SPEC) == corpus_plan(SPEC)

    def test_items_are_slice_independent(self):
        """Item i is the same loop no matter which shard materializes
        it — the property that makes shard slices composable."""
        plan = corpus_plan(SPEC)
        assert plan[3:7] == corpus_plan(SPEC)[3:7]
        loop = plan[4].materialize()
        again = corpus_plan(SPEC)[4].materialize()
        assert loop.name == again.name
        assert [op.kind for op in loop.body] == [op.kind for op in again.body]

    def test_weights_steer_the_mix(self):
        spec = CorpusSpec(
            size=200,
            seed=1,
            archetypes=("copy_like", "stencil"),
            weights={"stencil": 50.0},
        )
        kinds = [item.archetype for item in corpus_plan(spec)]
        assert kinds.count("stencil") > kinds.count("copy_like")

    def test_spec_round_trips_through_dict(self):
        assert CorpusSpec.from_dict(SPEC.to_dict()) == CorpusSpec(
            size=SPEC.size,
            seed=SPEC.seed,
            archetypes=SPEC.archetypes,
            weights={n: 1.0 for n in SPEC.archetypes},
            trip_counts=SPEC.trip_counts,
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(size=0)
        with pytest.raises(KeyError):
            CorpusSpec(size=1, archetypes=("no_such_archetype",))
        with pytest.raises(KeyError):
            CorpusSpec(
                size=1, archetypes=("copy_like",), weights={"stencil": 2.0}
            )
        with pytest.raises(ValueError):
            CorpusSpec(size=1, trip_counts=(8, 4))
        # empty archetypes means the full generator mix
        names, weights = CorpusSpec(size=1).mix()
        assert names == tuple(GENERATORS)
        assert weights == (1.0,) * len(GENERATORS)


class TestShardBounds:
    @pytest.mark.parametrize(
        "size,shards", [(10, 3), (9, 9), (5, 8), (100, 7), (1, 1)]
    )
    def test_bounds_partition_the_plan(self, size, shards):
        bounds = shard_bounds(size, shards)
        assert len(bounds) == shards
        assert bounds[0][0] == 0 and bounds[-1][1] == size
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo  # contiguous, no gap and no overlap
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(spec=SPEC, shards=0)
        with pytest.raises(ValueError):
            SweepConfig(spec=SPEC, machine="vax")
        with pytest.raises(ValueError):
            SweepConfig(spec=SPEC, strategies=("no_such_strategy",))


class TestSerialRun:
    def test_bench_artifact_and_record(self, serial_reference, tmp_path):
        result = serial_reference
        assert result.loops == SPEC.size
        assert result.ran_shards == 1 and result.resumed_shards == 0
        with open(result.bench_path, encoding="utf-8") as f:
            payload = json.load(f)
        data = payload["data"]
        assert data["loops"] == SPEC.size
        assert data["shards"] == 1
        assert data["resumed_shards"] == 0
        assert data["effort"]["sched_attempts"] > 0
        assert data["per_loop"]["p50"]["wall_ms"] > 0
        assert len(result.merged.loops["sweep"]) == SPEC.size
        # Per-shard record config carries no shard count — that is what
        # makes serial and sharded merges comparable.
        assert "shards" not in result.merged.config.get("sweep", {})

    def test_ledger_append(self, tmp_path):
        out = str(tmp_path / "run")
        ledger = str(tmp_path / "ledger")
        spec = CorpusSpec(size=3, seed=2, archetypes=("copy_like",))
        result = run_sweep(
            SweepConfig(spec=spec), out, ledger_dir=ledger, run_label="t"
        )
        stored = Ledger(ledger).get(result.merged.run_id)
        assert stored.comparable_dict() == result.merged.comparable_dict()

    def test_fresh_run_refuses_existing_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        spec = CorpusSpec(size=2, seed=3, archetypes=("copy_like",))
        run_sweep(SweepConfig(spec=spec), out)
        with pytest.raises(SweepError, match="already holds a sweep"):
            run_sweep(SweepConfig(spec=spec), out)


class TestShardedEqualsSerial:
    def test_sharded_merge_matches_serial(self, serial_reference, tmp_path):
        out = str(tmp_path / "sharded")
        result = run_sweep(SweepConfig(spec=SPEC, shards=3), out)
        assert (
            result.merged.comparable_dict()
            == serial_reference.merged.comparable_dict()
        )


class TestKillAndResume:
    def test_killed_shard_resumes_bit_identically(
        self, serial_reference, tmp_path
    ):
        out = str(tmp_path / "killed")
        config = SweepConfig(spec=SPEC, shards=3)
        with pytest.raises(SweepError, match="1 shard\\(s\\) failed"):
            run_sweep(out_dir=out, config=config, fail_shard=1, fail_after=1)

        # The kill is durable-clean: the other shards landed (file plus
        # manifest line), the killed one left nothing behind.
        manifest = SweepManifest(out)
        done = manifest.completed_shards()
        assert sorted(done) == [0, 2]
        assert not os.path.exists(shard_path(out, 1))
        assert os.path.exists(shard_path(out, 0))
        assert not os.path.exists(os.path.join(out, "BENCH_sweep.json"))

        resumed = run_sweep(config, out, resume=True)
        assert resumed.resumed_shards == 2
        assert resumed.ran_shards == 1
        assert (
            resumed.merged.comparable_dict()
            == serial_reference.merged.comparable_dict()
        )
        with open(resumed.bench_path, encoding="utf-8") as f:
            assert json.load(f)["data"]["resumed_shards"] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_shard_is_collected_and_resumable(
        self, jobs, serial_reference, tmp_path, monkeypatch, capsys
    ):
        """A shard whose compile raises is named in the ``SweepError``
        and the other shards land, serial or pooled; the CLI exits 3,
        and a resume finishes bit-identically to the serial run."""
        import repro.sweep.runner as runner

        target = corpus_plan(SPEC)[4].name  # shard 1 of 3
        real_compile_one = runner.compile_one

        def compile_one(request):
            if request.loop.name == target:
                raise RuntimeError(f"cannot compile {target}")
            return real_compile_one(request)

        # Forked pool workers inherit the patch.
        monkeypatch.setattr(runner, "compile_one", compile_one)
        config = SweepConfig(spec=SPEC, shards=3, jobs=jobs)
        out = str(tmp_path / "api")
        expected = f"shard 1: RuntimeError: cannot compile {target}"
        with pytest.raises(SweepError, match=re.escape(expected)):
            run_sweep(config, out)
        assert sorted(SweepManifest(out).completed_shards()) == [0, 2]

        cli_args = [
            "run",
            "--size",
            str(SPEC.size),
            "--seed",
            str(SPEC.seed),
            "--archetypes",
            ",".join(SPEC.archetypes),
            "--trip",
            "{}:{}".format(*SPEC.trip_counts),
            "--shards",
            "3",
            "--jobs",
            str(jobs),
            "--out",
            str(tmp_path / "cli"),
        ]
        assert main(cli_args) == EXIT_FAILED_SHARDS
        assert expected in capsys.readouterr().err

        monkeypatch.undo()
        resumed = run_sweep(config, out, resume=True)
        assert resumed.resumed_shards == 2 and resumed.ran_shards == 1
        assert (
            resumed.merged.content_digest()
            == serial_reference.merged.content_digest()
        )

    def test_resume_requires_matching_config(self, tmp_path):
        out = str(tmp_path / "run")
        spec = CorpusSpec(size=4, seed=5, archetypes=("copy_like",))
        config = SweepConfig(spec=spec, shards=2)
        with pytest.raises(SweepError):
            run_sweep(config, out, fail_shard=0, fail_after=0)
        # different shard split
        with pytest.raises(SweepError, match="resume config mismatch"):
            run_sweep(SweepConfig(spec=spec, shards=4), out, resume=True)
        # different corpus
        other = CorpusSpec(size=5, seed=5, archetypes=("copy_like",))
        with pytest.raises(SweepError, match="resume config mismatch"):
            run_sweep(SweepConfig(spec=other, shards=2), out, resume=True)
        # jobs is parallelism, not content: resuming with a different
        # pool size is fine.
        result = run_sweep(
            SweepConfig(spec=spec, shards=2, jobs=2), out, resume=True
        )
        assert result.loops == spec.size

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(SweepError, match="nothing to resume"):
            run_sweep(
                SweepConfig(spec=SPEC), str(tmp_path / "empty"), resume=True
            )


class TestManifest:
    def test_torn_tail_is_skipped_with_warning(self, tmp_path):
        out = str(tmp_path)
        manifest = SweepManifest(out)
        manifest.append({"event": "sweep", "run_id": "r", "digest": "d"})
        manifest.append({"event": "shard", "status": "done", "shard": 0})
        with open(manifest.path, "ab") as f:
            f.write(b'{"event": "shard", "status": "do')  # torn mid-write
        warnings: list[str] = []
        readable = SweepManifest(out, warn=warnings.append)
        assert [e["event"] for e in readable.events()] == ["sweep", "shard"]
        assert readable.completed_shards().keys() == {0}
        assert any("torn" in w for w in warnings)

    def test_corrupt_line_is_skipped(self, tmp_path):
        out = str(tmp_path)
        manifest = SweepManifest(out)
        manifest.append({"event": "sweep", "run_id": "r", "digest": "d"})
        with open(manifest.path, "ab") as f:
            f.write(b"\xff\xfe not json \n")
        manifest.append({"event": "shard", "status": "done", "shard": 3})
        warnings: list[str] = []
        readable = SweepManifest(out, warn=warnings.append)
        assert readable.completed_shards().keys() == {3}
        assert any("unreadable" in w for w in warnings)

    def test_header_of_missing_manifest(self, tmp_path):
        manifest = SweepManifest(str(tmp_path / "none"))
        assert not manifest.exists()
        assert manifest.events() == []
        assert manifest.header() is None


class TestCLI:
    def _base_args(self, out):
        return [
            "run",
            "--size",
            "4",
            "--seed",
            "11",
            "--archetypes",
            "copy_like",
            "--shards",
            "2",
            "--out",
            out,
        ]

    def test_induced_failure_then_resume(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        code = main(
            self._base_args(out) + ["--fail-shard", "1", "--fail-after", "0"]
        )
        assert code == EXIT_FAILED_SHARDS
        assert "resume" in capsys.readouterr().err

        code = main(["status", "--out", out])
        assert code == 0
        status = capsys.readouterr().out
        assert "1/2 shard(s) done" in status
        assert "--resume" in status

        code = main(self._base_args(out) + ["--resume"])
        assert code == 0
        text = capsys.readouterr().out
        assert "1 ran, 1 resumed" in text
        assert os.path.exists(os.path.join(out, "BENCH_sweep.json"))

    def test_status_without_manifest(self, tmp_path, capsys):
        assert main(["status", "--out", str(tmp_path / "none")]) == 1
        assert "no manifest" in capsys.readouterr().out

    def test_summary_line_uses_the_artifact_percentile(self, tmp_path, capsys, monkeypatch):
        """The printed per-loop p50/p99 follow the same nearest-rank rule
        as ``BENCH_sweep.json``: for an even sample the median is the
        lower middle sample, not ``wall[n // 2]``."""
        import repro.sweep.__main__ as cli
        from repro.sweep.runner import SweepResult

        def fake_run_sweep(config, out, **kwargs):
            return SweepResult(
                merged=None,
                bench_path=os.path.join(out, "BENCH_sweep.json"),
                out_dir=out,
                loops=10,
                compiles=10,
                wall_s=1.0,
                shard_wall_s=1.0,
                ran_shards=1,
                loop_wall_ms=[float(ms) for ms in range(1, 11)],
            )

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        assert main(["run", "--size", "10", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "per-loop p50 5.0ms p99 10.0ms" in text
