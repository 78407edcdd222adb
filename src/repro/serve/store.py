"""The server's shared artifact store.

The store *is* the PR 3 compile cache — the same sharded,
content-addressed, atomically written directory layout
(``<dir>/<key[:2]>/<key>.pkl``), the same torn-entry-reads-as-miss
contract, and (with ``max_bytes``) the same size-bounded LRU eviction.
Server workers and the evaluation harness can point at one directory
and share artifacts, because a key already encodes the compiler code
version alongside the full request.

Each entry carries its response summary in front of the compiled loop,
under a digest of both, so a store read verifies the entry and then
unpickles only the summary; a torn or corrupt entry is a miss, and the
server recompiles and rewrites it.  On top of the on-disk cache the
store keeps a small in-memory LRU of response *summaries*, so repeated
warm requests for the same key skip the disk read.  A summary is a pure
function of the artifact (and the artifact of the key), so a memoized
summary can outlive a disk eviction without ever becoming wrong — at
worst the disk copy is gone and the next cold process recompiles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.compiler.driver import CompiledLoop
from repro.compiler.service import (
    CompiledLoopPayload,
    CompileRequest,
)
from repro.evaluation.compile_cache import CompileCache

#: Summaries the in-memory memo keeps (LRU).  The memo pays: without it
#: the served p50 latency rose ~10% (see ``docs/performance.md``).
SUMMARY_SLOTS = 4096


class ArtifactStore:
    """Content-addressed compile artifacts plus a summary memo.

    :meth:`memoized` and :meth:`memoize_summary` touch only memory, so
    the server calls them on its event loop.  :meth:`get_summary` and
    :meth:`put` may read or write disk and unpickle: the server runs
    ``get_summary`` on a thread, once per key it has to look up, and
    its pool workers write artifacts through their own cache.  A
    ``get_summary`` that reaches disk unpickles only the summary at the
    front of the entry; :meth:`load_compiled` unpickles the loop.  A
    lock keeps the memo consistent between the loop and reader threads.
    """

    def __init__(self, directory: str, max_bytes: int | None = None) -> None:
        self.cache = CompileCache(directory, max_bytes=max_bytes)
        self._summaries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self.memo_hits = 0

    @property
    def directory(self) -> str:
        return self.cache.directory

    def _memoize(self, key: str, summary: dict) -> dict:
        with self._lock:
            self._summaries[key] = summary
            self._summaries.move_to_end(key)
            while len(self._summaries) > SUMMARY_SLOTS:
                self._summaries.popitem(last=False)
        return summary

    def memoized(self, key: str) -> dict | None:
        """The memoized summary for ``key``, or ``None``; never touches
        disk."""
        with self._lock:
            summary = self._summaries.get(key)
            if summary is not None:
                self._summaries.move_to_end(key)
                self.memo_hits += 1
        return summary

    def get_summary(self, key: str, request: CompileRequest) -> dict | None:
        """The stored response summary for ``key``, or ``None`` on a miss
        (including a torn or corrupt entry).

        The memo answers without touching disk; otherwise the summary
        is read from the front of the on-disk entry (counting a cache
        hit or miss), and the compiled loop behind it is not unpickled.
        The read needs only ``key``; ``request`` is not read, and stays
        in the signature its callers use.
        """
        memo = self.memoized(key)
        if memo is not None:
            return memo
        summary = self.cache.load_summary(key)
        if summary is None:
            return None
        return self._memoize(key, summary)

    def put(self, key: str, payload: CompiledLoopPayload) -> dict:
        """Persist one compiled artifact and memoize the summary the
        write put in front of it."""
        return self._memoize(key, self.cache.store(key, payload.compiled))

    def memoize_summary(self, key: str, summary: dict) -> dict:
        """Adopt a summary computed elsewhere (a pool worker that
        already persisted the artifact) into the memo tier."""
        return self._memoize(key, summary)

    def load_compiled(self, key: str) -> CompiledLoop | None:
        return self.cache.load(key)

    def stats(self) -> dict:
        stats = self.cache.stats()
        stats["memo_hits"] = self.memo_hits
        stats["memo_entries"] = len(self._summaries)
        return stats
