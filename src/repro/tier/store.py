"""Tiered store: the partitioned hot store plus the cold on-disk tier.

:class:`TieredStore` wraps the in-memory :class:`~repro.storage.database.
EventStore` behind the same scan/ingest surface the engine already uses,
adding:

* a **cold-scan path** — scans merge the hot store's results with the
  zone-map-pruned cold tier, deduplicated by event id, so a query whose
  window reaches past the retention horizon still answers correctly;
* **compaction** (:meth:`compact`) — committed events older than the
  retention horizon migrate out of RAM into compressed cold segments.

Migration safety: a partition's events are written and published cold
*before* they are removed from the hot store, so a concurrent scan
always finds them in at least one tier; during the brief hand-off window
they are reachable in both, which the merge deduplicates.  Removal
rebuilds only the affected hot partitions and invalidates the
scan cache for exactly those partition keys.  All mutations (ingest
appends, migration removals, checkpoints) serialize on
:attr:`writer_lock`, preserving the single-writer/multi-reader contract
of the hot store — so a query never observes a partition
mid-migration, only pre- (hot), during- (both, deduplicated) or post-
(cold).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.events import SystemEvent
from repro.model.time import TimeWindow, day_of, day_start
from repro.obs.metrics import REGISTRY
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.partition import PartitionKey, PartitionScheme
from repro.tier.cold import ColdTier

_M_COMPACTIONS = REGISTRY.counter(
    "aiql_compaction_passes_total", "Hot-to-cold compaction passes that moved data"
)
_M_COMPACTED_EVENTS = REGISTRY.counter(
    "aiql_compaction_events_total", "Events migrated out of RAM into cold segments"
)
_M_COMPACTED_SEGMENTS = REGISTRY.counter(
    "aiql_compaction_segments_total", "Cold segments written by compaction"
)
_M_COMPACTED_BYTES = REGISTRY.counter(
    "aiql_compaction_bytes_total", "Compressed bytes written to cold segments"
)


@dataclass
class CompactionReport:
    """What one :meth:`TieredStore.compact` pass migrated."""

    cutoff_day: Optional[int] = None
    events_migrated: int = 0
    segments_written: int = 0
    partitions: Tuple[PartitionKey, ...] = ()
    cold_bytes: int = 0

    @property
    def moved(self) -> bool:
        return self.events_migrated > 0


class TieredStore:
    """Hot partitioned store + cold tier behind the common store interface."""

    def __init__(
        self,
        hot: EventStore,
        cold: ColdTier,
        retention_days: Optional[int] = None,
    ) -> None:
        if retention_days is not None and retention_days < 1:
            raise ValueError("retention_days must be >= 1 (or None)")
        self.hot = hot
        self.cold = cold
        self.retention_days = retention_days
        # Cold segments are keyed exactly like the hot partitions.
        self.partition_scheme: PartitionScheme = hot.scheme
        # Serializes ingest appends, migration removals and checkpoints:
        # the hot store is single-writer, and compaction is a
        # second mutator that must never interleave with an append.
        self.writer_lock = threading.RLock()
        # Serializes whole compaction passes (the background thread vs a
        # manual compact()): two concurrent passes would each scan the
        # same expired events and write duplicate cold segments.
        self._compact_lock = threading.Lock()
        self.compactions = 0
        self.events_migrated = 0

    # -- delegation ---------------------------------------------------------

    def __getattr__(self, name: str):
        # Long-tail surface (registry, entity_index, scan_cache, scheme,
        # partition_keys, ...) belongs to the hot store.
        if name == "hot":  # not yet set: avoid recursing during __init__
            raise AttributeError(name)
        return getattr(self.hot, name)

    # -- ingestion ----------------------------------------------------------

    def register_entity(self, entity) -> None:
        self.hot.register_entity(entity)

    def add_event(self, event: SystemEvent) -> None:
        with self.writer_lock:
            self.hot.add_event(event)

    def add_block(self, block: ColumnBlock, positions: Optional[Positions] = None):
        """The hot store's ``add_block`` under the writer lock."""
        with self.writer_lock:
            return self.hot.add_block(block, positions)

    def add_batch(self, block: ColumnBlock):
        """A commit's block, through the hot store's ``add_batch`` (the call
        the benchmark's layer trace times) under the writer lock."""
        with self.writer_lock:
            return self.hot.add_batch(block)

    # -- queries ------------------------------------------------------------

    @staticmethod
    def _merge(
        hot_events: List[SystemEvent], cold_events: List[SystemEvent]
    ) -> List[SystemEvent]:
        """Merge two (start_time, event_id)-sorted tier runs, deduplicated.

        Both tiers emit sorted runs (each store and the cold tier sort
        their results), so a mixed hot+cold window needs one linear merge
        — not a hot-id set plus a full re-sort of the concatenation.
        During a migration hand-off the same event can be reachable in
        both tiers; a duplicate pair shares its (start_time, event_id)
        sort key, so the copies meet at the merge point and the cold one
        drops (hot wins).
        """
        if not cold_events:
            return hot_events
        if not hot_events:
            return cold_events
        merged: List[SystemEvent] = []
        append = merged.append
        i = j = 0
        hot_len, cold_len = len(hot_events), len(cold_events)
        while i < hot_len and j < cold_len:
            hot = hot_events[i]
            cold = cold_events[j]
            hot_key = (hot.start_time, hot.event_id)
            cold_key = (cold.start_time, cold.event_id)
            if hot_key <= cold_key:
                append(hot)
                i += 1
                if hot_key == cold_key:
                    j += 1  # same event in both tiers: drop the cold copy
            else:
                append(cold)
                j += 1
        merged.extend(hot_events[i:])
        merged.extend(cold_events[j:])
        return merged

    def scan_columns(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> BlockScanResult:
        """Survivors across both tiers as block selections, deduplicated.

        Hot parts come first, so when a migration hand-off leaves an event
        reachable in both tiers, the merged handle list keeps the hot copy
        (the stable sort preserves part order for equal keys).
        """
        hot = self.hot.scan_columns(
            flt, parallel=parallel, use_entity_index=use_entity_index
        )
        cold_parts = self.cold.scan_selections(flt)
        if not cold_parts:
            return hot
        return BlockScanResult(list(hot.parts) + cold_parts, dedup=True)

    def scan(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.scan_columns(
            flt, parallel=parallel, use_entity_index=use_entity_index
        ).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        return self._merge(self.hot.full_scan(flt), self.cold.scan(flt))

    def estimated_events(self, flt: EventFilter) -> int:
        """Cost estimate spanning tiers: pruned hot size + unpruned cold
        zone-map counts (the scheduler's zone-map-aware cardinality input).
        """
        return self.hot.estimated_events(flt) + self.cold.estimated_events(flt)

    # -- compaction ---------------------------------------------------------

    def compact(
        self,
        retention_days: Optional[int] = None,
        now: Optional[float] = None,
    ) -> CompactionReport:
        """Migrate committed events older than the retention horizon cold.

        The horizon is measured in *data time*: the newest ``retention_days``
        day ordinals (relative to ``now``, defaulting to the newest event
        across both tiers) stay hot; every committed event on an older day
        moves into compressed cold segments.  Publication order (cold
        first, then hot removal under :attr:`writer_lock`) keeps every
        event reachable by concurrent scans throughout.
        """
        days = retention_days if retention_days is not None else self.retention_days
        if days is None:
            raise ValueError(
                "no retention horizon: pass retention_days or configure one"
            )
        if days < 1:
            raise ValueError("retention_days must be >= 1")
        with self._compact_lock:
            return self._compact_locked(days, now)

    def _compact_locked(
        self, days: int, now: Optional[float]
    ) -> CompactionReport:
        if now is None:
            hot_max = self.hot.time_range()[1]
            cold_max = self.cold.time_range()[1]
            candidates = [t for t in (hot_max, cold_max) if t is not None]
            now = max(candidates) if candidates else None
        if now is None:
            return CompactionReport()  # empty store
        cutoff_day = day_of(now) - days + 1
        cutoff_ts = day_start(cutoff_day)
        flt = EventFilter(window=TimeWindow(end=cutoff_ts))
        # Committed-only by construction: the hot scan path filters by the
        # store's committed-event watermark, so a batch mid-commit can
        # never be half-migrated.
        old = self.hot.scan(flt, parallel=False, use_entity_index=False)
        report = CompactionReport(cutoff_day=cutoff_day)
        if not old:
            return report
        by_key: Dict[PartitionKey, List[SystemEvent]] = {}
        for event in old:
            key = self.partition_scheme.key_for(event.agent_id, event.start_time)
            by_key.setdefault(key, []).append(event)
        for key in sorted(by_key, key=lambda k: (k.day, k.agent_group)):
            zone = self.cold.add_segment(key, by_key[key])
            report.segments_written += 1
            report.cold_bytes += (
                (self.cold.directory / zone.filename).stat().st_size
            )
        with self.writer_lock:
            removed = self.hot.remove_events({e.event_id for e in old})
        report.events_migrated = removed
        report.partitions = tuple(
            sorted(by_key, key=lambda k: (k.day, k.agent_group))
        )
        self.compactions += 1
        self.events_migrated += removed
        _M_COMPACTIONS.inc()
        _M_COMPACTED_EVENTS.inc(removed)
        _M_COMPACTED_SEGMENTS.inc(report.segments_written)
        _M_COMPACTED_BYTES.inc(report.cold_bytes)
        return report

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.hot) + self.cold.event_count

    def __iter__(self) -> Iterator[SystemEvent]:
        seen = set()
        for event in self.cold:
            seen.add(event.event_id)
            yield event
        for event in self.hot:
            if event.event_id not in seen:
                yield event

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        hot_min, hot_max = self.hot.time_range()
        cold_min, cold_max = self.cold.time_range()
        mins = [t for t in (hot_min, cold_min) if t is not None]
        maxs = [t for t in (hot_max, cold_max) if t is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    def stats(self) -> Dict[str, object]:
        stats = dict(self.hot.stats())
        stats["hot_events"] = len(self.hot)
        stats["events"] = len(self)
        stats["cold"] = self.cold.stats()
        stats["compactions"] = self.compactions
        stats["events_migrated"] = self.events_migrated
        return stats
