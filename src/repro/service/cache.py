"""Partition-scan cache: shareable, amortized scan work (ROADMAP scaling).

Investigation workloads repeat themselves: iterative refinement (paper
Sec. 6.2.1) re-issues the same event patterns with small variations, and
concurrent analysts fire queries whose data queries overlap.  The seed
implementation re-scanned every partition on every call.

:class:`ScanCache` memoizes per-partition scan results, keyed by
``(PartitionKey, filter fingerprint)`` where the fingerprint is the
canonicalized hashable form of an :class:`~repro.storage.filters.EventFilter`
(see :func:`repro.storage.filters.filter_fingerprint`).  Properties:

* **LRU-bounded** — at most ``max_entries`` cached partition scans.
* **Invalidation on ingest** — ``EventStore.add_event`` invalidates the
  entries of the partition the event lands in (and only those).
* **Single-flight** — concurrent misses on the same key execute the scan
  once; the other callers wait on the winner's future.  This is the
  storage-level half of the query service's sub-query deduplication.
* **Write-race safety** — a result computed while its partition was
  invalidated is returned to callers (equivalent to a scan racing an
  ingest without the cache) but never inserted into the cache.
* **Generation keying** — callers may tag a value with the *block
  generation* of its source (see :mod:`repro.storage.blocks`); a hit whose
  recorded generation differs from the caller's is a miss.  This is the
  shared invalidation path for selection-vector values: hot partition
  scans key on the partition's live block, cold segment scans on the
  decoded block, so a rebuilt/re-decoded block can never serve another
  block's positions.

Cached values are immutable from the cache's point of view (selection
vectors over append-only blocks, or tuples of frozen events), so sharing
them across threads is safe.

This is the innermost of the three read-side memo levels, and the only
one that data invalidates:

1. **plan** (:mod:`repro.engine.plan_cache`) — canonical query text to its
   compiled ``QueryContext``; plans hold no data, so nothing invalidates
   them and they only age out of a 256-plan LRU;
2. **index answers** (:class:`repro.storage.index.HashIndex`) — an entity
   constraint to the ids it resolves to; the keyspace is append-only, so
   an insert extends an answer (new keys are tested, new ids under matched
   keys collected) instead of discarding it;
3. **partition scans** (this module) — ``(partition, filter)`` to the rows
   selected; dropped when a batch lands in the partition or its block is
   rebuilt.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

_Key = Tuple[Hashable, Hashable]  # (partition key, filter fingerprint)

_V = TypeVar("_V")

# Scheduler-narrowed sub-queries can carry join-derived id sets with
# thousands of members; their fingerprints are one-off (query-result-
# dependent), so caching them churns the LRU and evicts the reusable
# base-pattern entries.  Shared by the hot partition-scan cache, the cold
# per-segment result cache and kernel memoization.
CACHEABLE_ID_SET_LIMIT = 128


def cacheable_filter(flt, limit: int = CACHEABLE_ID_SET_LIMIT) -> bool:
    """Whether ``flt`` is worth a cache entry (narrowed id sets bounded)."""
    ids = len(flt.subject_ids or ()) + len(flt.object_ids or ())
    return ids <= limit


def cache_fingerprint(
    flt, limit: int = CACHEABLE_ID_SET_LIMIT
) -> Optional[tuple]:
    """The fingerprint-keyed caches' shared key policy, in one place.

    Returns the canonical :func:`~repro.storage.filters.filter_fingerprint`
    for cacheable filters and ``None`` for ones that should bypass every
    fingerprint-keyed cache (giant scheduler-narrowed id sets: one-off
    keys whose fingerprints cost an O(n log n) sort each).  The kernel
    cache, the hot partition-scan cache and the cold per-segment cache all
    key through here instead of duplicating the guard+fingerprint pair.
    """
    if not cacheable_filter(flt, limit):
        return None
    # Imported lazily: storage modules import this one at module load.
    from repro.storage.filters import filter_fingerprint

    return filter_fingerprint(flt)


class ScanCache:
    """Thread-safe LRU cache of per-partition scan results."""

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
        self._generations: Dict[Hashable, int] = {}
        # Per-partition key index so ingest-time invalidation is
        # O(entries for that partition), not a walk of the whole cache.
        self._keys_by_partition: Dict[Hashable, set] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.shared_waits = 0
        self.generation_mismatches = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compute(
        self,
        partition: Hashable,
        fingerprint: Hashable,
        compute: Callable[[], _V],
        generation: Optional[int] = None,
    ) -> _V:
        """Cached scan result for ``(partition, fingerprint)``.

        On a miss, ``compute`` runs exactly once even under concurrent
        callers (single-flight); its result is cached as returned unless
        the partition was invalidated while it ran.  ``generation``, when
        given, is the block generation of the value's source: a cached
        entry recorded under a different generation is treated as a miss
        (and replaced), so selections over a rebuilt block are never
        served against its successor.
        """
        key = (partition, fingerprint)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                if cached[0] == generation:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return cached[1]  # type: ignore[return-value]
                # Stale generation: the source block was rebuilt, so the
                # cached selection can never be served again.  Evict it
                # now (the recompute below re-inserts under the new
                # generation) and count the mismatch distinctly from
                # plain misses — a high rate means block churn, not a
                # cold cache.
                del self._entries[key]
                self._discard_key(key)
                self.generation_mismatches += 1
            future = self._inflight.get(key)
            if future is not None:
                owner = False
                self.shared_waits += 1
            else:
                owner = True
                future = Future()
                self._inflight[key] = future
                invalidation_gen = self._generations.get(partition, 0)
        if not owner:
            return future.result()  # type: ignore[return-value]
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                if self._inflight.get(key) is future:
                    del self._inflight[key]
            future.set_exception(exc)
            raise
        with self._lock:
            # Invalidation may have detached this future and a fresh owner
            # may have registered since: only remove our own entry.
            if self._inflight.get(key) is future:
                del self._inflight[key]
            self.misses += 1
            if self._generations.get(partition, 0) == invalidation_gen:
                self._entries[key] = (generation, value)
                self._entries.move_to_end(key)
                self._keys_by_partition.setdefault(partition, set()).add(key)
                while len(self._entries) > self.max_entries:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._discard_key(evicted_key)
                    self.evictions += 1
        future.set_result(value)
        return value

    def _discard_key(self, key: _Key) -> None:
        keys = self._keys_by_partition.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._keys_by_partition[key[0]]

    def invalidate(self, partition: Hashable) -> int:
        """Drop every cached scan of ``partition``; returns entries dropped.

        Also bumps the partition's generation so in-flight scans started
        before the invalidation are not inserted when they complete.
        """
        with self._lock:
            self._generations[partition] = self._generations.get(partition, 0) + 1
            # Detach in-flight computes too: a miss arriving after this
            # invalidation must scan fresh (read-your-writes), not join a
            # single-flight started before the ingest.  The detached owner
            # still resolves its waiters; it just won't be cached/joined.
            for key in [k for k in self._inflight if k[0] == partition]:
                del self._inflight[key]
            stale = self._keys_by_partition.pop(partition, None)
            if not stale:
                return 0
            for key in stale:
                del self._entries[key]
            self.invalidations += 1
            return len(stale)

    def clear(self) -> None:
        """Drop everything (in-flight scans will not be inserted either)."""
        with self._lock:
            for key in self._inflight:
                partition = key[0]
                self._generations[partition] = (
                    self._generations.get(partition, 0) + 1
                )
            self._entries.clear()
            self._keys_by_partition.clear()

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
                "invalidations": self.invalidations,
                "shared_waits": self.shared_waits,
                "generation_mismatches": self.generation_mismatches,
            }
