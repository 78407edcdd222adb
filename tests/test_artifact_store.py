"""The shared artifact store: LRU eviction, torn-entry safety, and
concurrent access.

The property under test everywhere: a load returns *the* artifact
stored under its key or a miss — never a torn pickle, never another
key's artifact — no matter how stores, loads, and evictions interleave
across threads of control or processes (the torn-tail discipline of
``tests/test_ledger.py``, applied to the compile cache).  A damaged
entry is a miss before anything in it is unpickled, and a summary read
never unpickles the compiled loop.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.driver import CompiledLoop
from repro.compiler.service import (
    CompiledLoopPayload,
    CompileRequest,
    compile_one,
    summarize,
)
from repro.compiler.strategies import Strategy
from repro.evaluation.compile_cache import CompileCache
from repro.machine.configs import paper_machine
from repro.observability import recording
from repro.serve.store import ArtifactStore
from repro.workloads.generator import generate

KEYS = ("aa" + "0" * 62, "ab" + "1" * 62, "ba" + "2" * 62)


@pytest.fixture(scope="module")
def artifacts():
    """Three distinct real compiled loops, compiled once per module."""
    machine = paper_machine()
    out = {}
    for key, seed in zip(KEYS, (1, 2, 3)):
        out[key] = compile_one(
            CompileRequest(
                loop=generate("copy_like", seed, f"store_{seed}"),
                machine=machine,
                strategy=Strategy("selective"),
            )
        ).compiled
    return out


def _count_loop_unpickles(monkeypatch) -> list[int]:
    """Install a counting ``CompiledLoop.__setstate__``: every unpickled
    compiled loop appends to the returned list."""
    unpickled: list[int] = []

    def setstate(self, state):
        unpickled.append(1)
        self.__dict__.update(state)

    monkeypatch.setattr(CompiledLoop, "__setstate__", setstate, raising=False)
    return unpickled


def _entry_size(tmp_path, artifacts) -> int:
    probe = CompileCache(str(tmp_path / "probe"))
    probe.store(KEYS[0], artifacts[KEYS[0]])
    return probe.total_bytes()


class TestRoundtripAndTorn:
    def test_roundtrip_counts_hit(self, tmp_path, artifacts):
        cache = CompileCache(str(tmp_path))
        assert cache.load(KEYS[0]) is None
        cache.store(KEYS[0], artifacts[KEYS[0]])
        loaded = cache.load(KEYS[0])
        assert loaded.source.name == artifacts[KEYS[0]].source.name
        assert cache.hits == 1
        assert cache.misses == 1

    def test_torn_entry_reads_as_miss(self, tmp_path, artifacts):
        cache = CompileCache(str(tmp_path))
        cache.store(KEYS[0], artifacts[KEYS[0]])
        path = cache._path(KEYS[0])
        with open(path, "rb") as f:
            whole = f.read()
        with open(path, "wb") as f:
            f.write(whole[: len(whole) // 2])
        assert cache.load(KEYS[0]) is None
        assert cache.load_summary(KEYS[0]) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_garbage_entry_reads_as_miss(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        path = cache._path(KEYS[1])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(b"not a pickle at all")
        assert cache.load(KEYS[1]) is None
        assert cache.load_summary(KEYS[1]) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_store_returns_the_payload_summary(self, tmp_path, artifacts):
        """The summary written in front of the loop is exactly the
        payload's summary, and it reads back equal."""
        cache = CompileCache(str(tmp_path))
        for key in KEYS:
            compiled = artifacts[key]
            request = CompileRequest(
                loop=compiled.source,
                machine=compiled.machine,
                strategy=compiled.strategy,
            )
            expected = CompiledLoopPayload(request, compiled).summary()
            assert cache.store(key, compiled) == expected
            assert cache.load_summary(key) == expected

    def test_summary_read_bumps_recency_and_counts(self, tmp_path, artifacts):
        cache = CompileCache(str(tmp_path))
        cache.store(KEYS[0], artifacts[KEYS[0]])
        os.utime(cache._path(KEYS[0]), (1000, 1000))
        with recording() as rec:
            assert cache.load_summary(KEYS[0]) is not None
            assert cache.load_summary(KEYS[1]) is None
        assert os.path.getmtime(cache._path(KEYS[0])) > 1000
        assert rec.counter("compile_cache.hits") == 1
        assert rec.counter("compile_cache.misses") == 1

    def test_recorder_sees_cache_traffic(self, tmp_path, artifacts):
        cache = CompileCache(str(tmp_path))
        with recording() as rec:
            cache.load(KEYS[0])
            cache.store(KEYS[0], artifacts[KEYS[0]])
            cache.load(KEYS[0])
        assert rec.counter("compile_cache.misses") == 1
        assert rec.counter("compile_cache.hits") == 1


class TestEviction:
    def test_store_evicts_oldest_beyond_budget(self, tmp_path, artifacts):
        size = _entry_size(tmp_path, artifacts)
        cache = CompileCache(str(tmp_path / "c"), max_bytes=int(2.5 * size))
        cache.store(KEYS[0], artifacts[KEYS[0]])
        cache.store(KEYS[1], artifacts[KEYS[1]])
        os.utime(cache._path(KEYS[0]), (1000, 1000))
        os.utime(cache._path(KEYS[1]), (2000, 2000))
        cache.store(KEYS[2], artifacts[KEYS[2]])
        assert cache.load(KEYS[0]) is None  # oldest went
        assert cache.load(KEYS[1]) is not None
        assert cache.load(KEYS[2]) is not None
        assert cache.evictions == 1
        assert cache.total_bytes() <= cache.max_bytes

    def test_hit_refreshes_recency(self, tmp_path, artifacts):
        size = _entry_size(tmp_path, artifacts)
        cache = CompileCache(str(tmp_path / "c"), max_bytes=int(2.5 * size))
        cache.store(KEYS[0], artifacts[KEYS[0]])
        cache.store(KEYS[1], artifacts[KEYS[1]])
        os.utime(cache._path(KEYS[0]), (1000, 1000))
        os.utime(cache._path(KEYS[1]), (2000, 2000))
        # The hit bumps KEYS[0] ahead of KEYS[1], flipping who survives.
        assert cache.load(KEYS[0]) is not None
        cache.store(KEYS[2], artifacts[KEYS[2]])
        assert cache.load(KEYS[0]) is not None
        assert cache.load(KEYS[1]) is None

    def test_just_stored_key_never_evicted(self, tmp_path, artifacts):
        size = _entry_size(tmp_path, artifacts)
        # Budget below one entry: the newest store must still survive.
        cache = CompileCache(str(tmp_path / "c"), max_bytes=max(1, size // 2))
        for key in KEYS:
            cache.store(key, artifacts[key])
            assert cache.load(key) is not None

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            CompileCache(str(tmp_path), max_bytes=0)


@pytest.fixture(scope="module")
def whole_entry(artifacts, tmp_path_factory) -> bytes:
    """The bytes of one real stored entry."""
    cache = CompileCache(str(tmp_path_factory.mktemp("entry")))
    cache.store(KEYS[0], artifacts[KEYS[0]])
    with open(cache._path(KEYS[0]), "rb") as f:
        return f.read()


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_a_damaged_entry_is_a_miss_before_any_unpickle(data, whole_entry):
    """Hypothesis: a real entry cut at any length, or with one to three
    bytes flipped anywhere, is a miss for both reads; nothing raises and
    no compiled loop is unpickled."""
    size = len(whole_entry)
    if data.draw(st.booleans(), label="cut"):
        damaged = whole_entry[: data.draw(st.integers(0, size - 1), label="at")]
    else:
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                min_size=1,
                max_size=3,
                unique_by=lambda flip: flip[0],
            ),
            label="flips",
        )
        entry = bytearray(whole_entry)
        for at, mask in flips:
            entry[at] ^= mask
        damaged = bytes(entry)
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        unpickled = _count_loop_unpickles(mp)
        cache = CompileCache(root)
        path = cache._path(KEYS[0])
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            f.write(damaged)
        assert cache.load_summary(KEYS[0]) is None
        assert cache.load(KEYS[0]) is None
        assert (cache.hits, cache.misses) == (0, 2)
        assert unpickled == []


@settings(deadline=None, max_examples=25)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["store", "load"]), st.sampled_from(KEYS)
        ),
        max_size=12,
    ),
    bounded=st.booleans(),
)
def test_store_behaves_like_a_map_modulo_eviction(ops, bounded, artifacts):
    """Hypothesis: under any store/load interleaving, a load returns the
    exact artifact of its key or a miss; an unbounded cache never
    forgets; a bounded cache stays within budget after every store."""
    with tempfile.TemporaryDirectory() as root:
        size = _entry_size_in(root, artifacts)
        budget = int(2.2 * size) if bounded else None
        cache = CompileCache(os.path.join(root, "c"), max_bytes=budget)
        stored: set[str] = set()
        for op, key in ops:
            if op == "store":
                cache.store(key, artifacts[key])
                stored.add(key)
                if budget is not None:
                    assert cache.total_bytes() <= budget
                assert cache.load(key) is not None
            else:
                got = cache.load(key)
                if got is not None:
                    assert got.source.name == artifacts[key].source.name
                    assert key in stored
                elif budget is None:
                    assert key not in stored


def _entry_size_in(root: str, artifacts) -> int:
    probe = CompileCache(os.path.join(root, "probe"))
    probe.store(KEYS[0], artifacts[KEYS[0]])
    return probe.total_bytes()


def _hammer(directory: str, max_bytes: int | None, seed: int, rounds: int):
    """Child-process body: interleave stores, loads, and (via bounded
    budget) evictions; exit nonzero if any load is torn or wrong."""
    import random

    machine = paper_machine()
    local = {
        key: compile_one(
            CompileRequest(
                loop=generate("copy_like", s, f"store_{s}"),
                machine=machine,
                strategy=Strategy("selective"),
            )
        ).compiled
        for key, s in zip(KEYS, (1, 2, 3))
    }
    cache = CompileCache(directory, max_bytes=max_bytes)
    rng = random.Random(seed)
    for _ in range(rounds):
        key = rng.choice(KEYS)
        if rng.random() < 0.5:
            cache.store(key, local[key])
        else:
            got = cache.load(key)
            if got is not None and got.source.name != local[key].source.name:
                os._exit(17)
    os._exit(0)


@pytest.mark.parametrize("bounded", [False, True])
def test_concurrent_readers_writers_and_eviction(tmp_path, artifacts, bounded):
    """Multiprocess: concurrent stores, loads, and eviction racing reads
    never surface a torn or wrong artifact (each child re-verifies every
    load against its own reference compile)."""
    size = _entry_size(tmp_path, artifacts)
    budget = int(2.2 * size) if bounded else None
    directory = str(tmp_path / "shared")
    ctx = multiprocessing.get_context("fork")
    children = [
        ctx.Process(target=_hammer, args=(directory, budget, seed, 25))
        for seed in (11, 22, 33)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
        assert child.exitcode == 0


class TestArtifactStore:
    def test_summary_memo_and_stats(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path))
        request = CompileRequest(
            loop=generate("copy_like", 1, "store_1"),
            machine=paper_machine(),
            strategy=Strategy("selective"),
        )
        key = KEYS[0]
        assert store.get_summary(key, request) is None
        payload = compile_one(request)
        summary = store.put(key, payload)
        assert store.get_summary(key, request) == summary
        assert store.memo_hits == 1
        # A cold store instance reads the summary from disk, equally.
        cold = ArtifactStore(str(tmp_path))
        assert cold.get_summary(key, request) == summary
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["memo_hits"] == 1

    def test_cold_summary_read_unpickles_no_loop(
        self, tmp_path, monkeypatch
    ):
        """A cold store answers a stored key from the summary in front
        of the entry; only ``load_compiled`` unpickles the loop."""
        unpickled = _count_loop_unpickles(monkeypatch)
        request = CompileRequest(
            loop=generate("copy_like", 2, "store_2"),
            machine=paper_machine(),
            strategy=Strategy("selective"),
        )
        payload = compile_one(request)
        summary = ArtifactStore(str(tmp_path)).put(KEYS[1], payload)
        assert summary == payload.summary()
        cold = ArtifactStore(str(tmp_path))
        assert cold.get_summary(KEYS[1], request) == summary
        assert (cold.cache.hits, cold.memo_hits) == (1, 0)
        assert unpickled == []
        loaded = cold.load_compiled(KEYS[1])
        assert unpickled == [1]
        assert summarize(loaded) == summary

    def test_shares_layout_with_compile_cache(self, tmp_path, artifacts):
        """The store and the evaluation cache are the same on-disk
        artifact space: either side reads the other's writes."""
        cache = CompileCache(str(tmp_path))
        cache.store(KEYS[0], artifacts[KEYS[0]])
        store = ArtifactStore(str(tmp_path))
        assert store.load_compiled(KEYS[0]) is not None
        request = CompileRequest(
            loop=generate("copy_like", 1, "store_1"),
            machine=paper_machine(),
            strategy=Strategy("selective"),
        )
        assert store.get_summary(KEYS[0], request) is not None
