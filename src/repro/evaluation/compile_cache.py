"""On-disk, content-addressed cache of compiled loops.

A cache entry holds the :class:`~repro.compiler.driver.CompiledLoop`
produced by one ``compile_loop`` invocation, stored under a SHA-256 key
derived from everything that determines its output:

* the loop IR and the machine description (canonically pickled — lazy
  memo attributes are excluded from pickles precisely so equal inputs
  hash equally),
* the strategy and partition/unroll/optimization knobs, and
* a *code version*: the hash of every ``repro`` source file, so any
  compiler change invalidates the whole cache rather than serving stale
  results.

An entry is ``digest ‖ summary length ‖ summary pickle ‖ CompiledLoop
pickle``: the loop's response summary
(:func:`~repro.compiler.service.summarize`) sits in front of the loop,
so :meth:`CompileCache.load_summary` answers a served key without
unpickling the loop, and :meth:`CompileCache.load` skips the summary.
The SHA-256 digest covers everything after it.  Both reads check the
digest and the length before they unpickle anything, so a torn,
truncated or corrupt entry reads as a miss.  A key hashes the code
version, so no reader ever meets an entry in another layout.

The cache is safe to share between processes: entries are written to a
temporary file and atomically renamed into place, and concurrent
writers of the same key converge on identical content.  Enable it by
passing a directory to :class:`CompileCache` (the evaluation CLI wires
``--compile-cache`` to this).

With ``max_bytes`` set the cache is additionally size-bounded: every
hit bumps the entry's mtime, and after each store the least-recently
used entries are evicted until the directory fits the budget.  An
eviction racing a reader degrades to a miss on the reader's side (the
open fails, the caller recompiles) — never a torn or wrong artifact,
because entries only ever appear via atomic rename and only ever
disappear whole.  Hit/miss/eviction counts flow through the recorder
(``compile_cache.hits`` / ``.misses`` / ``.evictions``) so profiles
and ledger records can attribute them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import replace

from repro.compiler.driver import CompiledLoop
from repro.compiler.service import summarize
from repro.observability.recorder import active_recorder

_PICKLE_PROTOCOL = 4

#: An entry's leading SHA-256 digest, then its summary pickle's length.
_DIGEST_BYTES = hashlib.sha256().digest_size
_SUMMARY_LENGTH = struct.Struct("<I")
_HEADER_BYTES = _DIGEST_BYTES + _SUMMARY_LENGTH.size

_code_version: str | None = None


def canonical_loop(loop):
    """``loop`` with operation uids renumbered to position order.

    Operation uids come from a process-global counter, so two builds of
    the same workload loop carry different absolute uids.  Every
    uid-bearing field (``uid`` itself and the ``origin`` provenance
    link) is remapped onto a dense 0..n-1 numbering over preheader+body
    order; registers and arrays are already name-based.  The result
    hashes equally for logically identical loops regardless of build
    order, and remains injective per loop, so distinct loops cannot
    collide through the renumbering."""
    ops = list(loop.preheader) + list(loop.body)
    remap = {op.uid: i for i, op in enumerate(ops)}

    def fix(op):
        origin = op.origin
        if origin is not None:
            origin = remap.get(origin, origin)
        return replace(op, uid=remap[op.uid], origin=origin)

    return replace(
        loop,
        preheader=tuple(fix(op) for op in loop.preheader),
        body=tuple(fix(op) for op in loop.body),
    )


def code_version() -> str:
    """SHA-256 over every ``repro`` source file (path and content).

    Computed once per process.  Any edit to the compiler — not just to
    modules a compilation happens to import — changes the version, which
    keeps cache keys conservative.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        _code_version = digest.hexdigest()
    return _code_version


def cache_key(
    loop,
    machine,
    strategy,
    partition_config=None,
    baseline_unroll=None,
    optimize=False,
    allow_reassociation=False,
) -> str:
    """Content hash of one ``compile_loop`` invocation's inputs."""
    blob = pickle.dumps(
        (
            code_version(),
            canonical_loop(loop),
            machine,
            strategy.value,
            partition_config,
            baseline_unroll,
            optimize,
            allow_reassociation,
        ),
        protocol=_PICKLE_PROTOCOL,
    )
    return hashlib.sha256(blob).hexdigest()


def _split_entry(entry: memoryview) -> tuple[memoryview, memoryview] | None:
    """The summary pickle and the loop pickle of ``entry``, or ``None``
    unless its length and digest check out."""
    if len(entry) < _HEADER_BYTES:
        return None
    body = entry[_DIGEST_BYTES:]
    end = _HEADER_BYTES + _SUMMARY_LENGTH.unpack_from(body)[0]
    if end > len(entry) or hashlib.sha256(body).digest() != entry[:_DIGEST_BYTES]:
        return None
    return entry[_HEADER_BYTES:end], entry[end:]


class CompileCache:
    """Directory-backed store of compiled loops keyed by content hash.

    Each entry carries the loop's response summary in front of the loop
    and a digest over both (see the module docstring): :meth:`load`
    returns the loop and :meth:`load_summary` the summary, each
    unpickling only its own part of a verified entry.  ``max_bytes``
    bounds the total size of stored entries: hits refresh recency
    (mtime), and each store evicts least-recently-used entries until
    the cache fits.  ``hits`` / ``misses`` / ``evictions`` count this
    instance's traffic; the same counts are emitted through the active
    recorder when one is installed.
    """

    def __init__(self, directory: str, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.directory = directory
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.pkl")

    def _count(self, name: str, n: int = 1) -> None:
        rec = active_recorder()
        if rec is not None:
            rec.count(f"compile_cache.{name}", n)

    def _read(self, key: str) -> tuple[memoryview, memoryview] | None:
        """The summary pickle and the loop pickle of ``key``'s verified
        entry, or ``None`` on a miss: a missing, torn, truncated or
        corrupt entry.  Counts the hit or miss; a hit bumps the entry's
        recency."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                parts = _split_entry(memoryview(f.read()))
        except OSError:
            parts = None
        if parts is None:
            self.misses += 1
            self._count("misses")
            return None
        self.hits += 1
        self._count("hits")
        try:
            # Recency bump: LRU eviction orders entries by mtime.
            os.utime(path)
        except OSError:
            pass
        return parts

    def load(self, key: str) -> CompiledLoop | None:
        """The cached compile result, or ``None`` on a miss (including a
        missing, torn, or corrupt entry).  The summary in front of it is
        skipped, not unpickled."""
        parts = self._read(key)
        return None if parts is None else pickle.loads(parts[1])

    def load_summary(self, key: str) -> dict | None:
        """The cached compile result's response summary, or ``None`` on
        a miss, exactly as :meth:`load` would miss; the compiled loop
        behind it is not unpickled."""
        parts = self._read(key)
        return None if parts is None else pickle.loads(parts[0])

    def store(self, key: str, compiled: CompiledLoop) -> dict:
        """Atomically persist one compile result under ``key``, with its
        response summary in front; returns that summary."""
        summary = summarize(compiled)
        head = pickle.dumps(summary, protocol=_PICKLE_PROTOCOL)
        body = (
            _SUMMARY_LENGTH.pack(len(head))
            + head
            + pickle.dumps(compiled, protocol=_PICKLE_PROTOCOL)
        )
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(hashlib.sha256(body).digest())
                f.write(body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._evict(keep=key)
        return summary

    def entries(self) -> list[tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` for every complete entry.

        In-flight ``.tmp`` spool files are not entries; a file that
        vanishes mid-scan (concurrent eviction) is simply skipped.
        """
        found: list[tuple[str, int, float]] = []
        try:
            shards = sorted(os.scandir(self.directory), key=lambda e: e.name)
        except OSError:
            return found
        for shard in shards:
            if not shard.is_dir():
                continue
            try:
                files = sorted(os.scandir(shard.path), key=lambda e: e.name)
            except OSError:
                continue
            for entry in files:
                if not entry.name.endswith(".pkl"):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                found.append(
                    (entry.name[: -len(".pkl")], stat.st_size, stat.st_mtime)
                )
        return found

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
        }

    def _evict(self, keep: str | None = None) -> int:
        """Remove least-recently-used entries until the cache fits
        ``max_bytes``.  The ``keep`` key (the one just stored) is never
        evicted, so a store always leaves its own artifact readable.
        Returns the number of entries removed."""
        if self.max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        removed = 0
        # Oldest mtime first; key breaks ties deterministically.
        for key, size, _ in sorted(entries, key=lambda e: (e[2], e[0])):
            if total <= self.max_bytes:
                break
            if key == keep:
                continue
            try:
                os.unlink(self._path(key))
            except OSError:
                # Already gone (concurrent eviction): its bytes are
                # freed either way.
                pass
            total -= size
            removed += 1
        if removed:
            self.evictions += removed
            self._count("evictions", removed)
        return removed
