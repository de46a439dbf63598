"""Segment-scan cache: the cold tier's memo of per-segment selections.

Cold segments are immutable, so a segment's survivors under one filter
never change: :class:`ScanCache` memoizes them, keyed by ``(segment file,
filter fingerprint)`` where the fingerprint is the canonicalized hashable
form of an :class:`~repro.storage.filters.EventFilter` (see
:func:`repro.storage.filters.filter_fingerprint`).  Properties:

* **LRU-bounded** — at most ``max_entries`` cached segment scans.
* **Single-flight** — concurrent misses on the same key execute the scan
  once; the other callers wait on the winner's future.
* **Generation keying** — callers tag a value with the *block generation*
  of its source (see :mod:`repro.storage.blocks`); a hit whose recorded
  generation differs from the caller's is a miss, so a re-decoded block
  can never serve another block's positions.

Nothing invalidates an entry: the sources are immutable, and entries only
age out of the LRU.  Cached values are immutable from the cache's point of
view (selection vectors over sealed blocks), so sharing them across
threads is safe.

Besides this cache the read path has two memo levels, neither of which
data invalidates:

1. **plan** (:mod:`repro.engine.plan_cache`) — canonical query text to its
   compiled ``QueryContext``; plans hold no data, so they only age out of a
   256-plan LRU.  Each plan pattern owns its compiled scan kernel, so
   kernels live and age out with their plans; a scan hands the kernel its
   window and id sets, and nothing looks a kernel up by fingerprint;
2. **index answers** (:class:`repro.storage.index.HashIndex`) — an entity
   constraint to the ids it resolves to; the keyspace is append-only, so
   an insert extends an answer (new keys are tested, new ids under matched
   keys collected) instead of discarding it.

Hot partitions are never memoized: every hot scan computes its selection.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.storage.filters import filter_fingerprint

_Key = Tuple[Hashable, Hashable]  # (segment file, filter fingerprint)

_V = TypeVar("_V")

# Scheduler-narrowed sub-queries can carry join-derived id sets with
# thousands of members; their fingerprints are one-off (query-result-
# dependent), so caching them churns the LRU and evicts the reusable
# base-pattern entries.  The guard of the cold per-segment result cache.
CACHEABLE_ID_SET_LIMIT = 128


def cache_fingerprint(
    flt, limit: int = CACHEABLE_ID_SET_LIMIT
) -> Optional[tuple]:
    """The cold per-segment cache's key policy, in one place.

    Returns the canonical :func:`~repro.storage.filters.filter_fingerprint`
    for cacheable filters and ``None`` for ones that should bypass the
    cache (giant scheduler-narrowed id sets: one-off keys whose
    fingerprints cost an O(n log n) sort each).
    """
    if len(flt.subject_ids or ()) + len(flt.object_ids or ()) > limit:
        return None
    return filter_fingerprint(flt)


class ScanCache:
    """Thread-safe LRU cache of per-segment scan results."""

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # entry: (source block generation or None, value as computed)
        self._entries: "OrderedDict[_Key, Tuple[Optional[int], object]]" = (
            OrderedDict()
        )
        self._inflight: Dict[_Key, "Future[object]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.shared_waits = 0
        self.generation_mismatches = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compute(
        self,
        segment: Hashable,
        fingerprint: Hashable,
        compute: Callable[[], _V],
        generation: Optional[int] = None,
    ) -> _V:
        """Cached scan result for ``(segment, fingerprint)``.

        On a miss, ``compute`` runs exactly once even under concurrent
        callers (single-flight) and its result is cached as returned.
        ``generation``, when given, is the block generation of the value's
        source: a cached entry recorded under a different generation is
        treated as a miss (and replaced), so selections over one decoded
        block are never served against another.
        """
        key = (segment, fingerprint)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                if cached[0] == generation:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return cached[1]  # type: ignore[return-value]
                # Stale generation: the source block was re-decoded, so the
                # cached selection can never be served again.  Evict it
                # now (the recompute below re-inserts under the new
                # generation) and count the mismatch distinctly from
                # plain misses — a high rate means block churn, not a
                # cold cache.
                del self._entries[key]
                self.generation_mismatches += 1
            future = self._inflight.get(key)
            if future is not None:
                owner = False
                self.shared_waits += 1
            else:
                owner = True
                future = Future()
                self._inflight[key] = future
        if not owner:
            return future.result()  # type: ignore[return-value]
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            future.set_exception(exc)
            raise
        with self._lock:
            del self._inflight[key]
            self.misses += 1
            self._entries[key] = (generation, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        future.set_result(value)
        return value

    def stats(self) -> Dict[str, int]:
        """One consistent snapshot of the cache counters.

        Taken under the cache lock so hit/miss/eviction counts are
        mutually consistent; this is the canonical accounting surface
        (the metrics registry and ``AIQLSystem.stats`` read it) — the
        bare attributes exist for cheap in-band increments only.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "shared_waits": self.shared_waits,
                "generation_mismatches": self.generation_mismatches,
            }
