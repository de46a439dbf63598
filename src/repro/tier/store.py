"""Tiered store: the partitioned hot store plus the cold on-disk tier.

:class:`TieredStore` wraps the in-memory :class:`~repro.storage.database.
EventStore` behind the same scan/ingest surface the engine already uses
(``scan_columns``, ``add_block``/``add_batch``, ``estimated_events``, and
the explicit ``registry``/``entity_index`` it shares with the hot store;
nothing else is forwarded), adding:

* a **cold-scan path** — :meth:`~TieredStore.scan_columns` merges the hot
  store's selections with the zone-map-pruned cold tier's, deduplicated by
  event id, so a query whose window reaches past the retention horizon
  still answers correctly; :meth:`~TieredStore.column_blocks` is the raw
  view of both tiers, cold segments first;
* **compaction** (:meth:`compact`) — committed events older than the
  retention horizon migrate out of RAM into compressed cold segments.

Migration safety: a partition's events are written and published cold
*before* they are removed from the hot store, so a concurrent scan
always finds them in at least one tier; during the brief hand-off window
they are reachable in both, which the merge deduplicates.  Removal
rebuilds only the affected hot partitions.  All mutations (ingest
appends, migration removals, checkpoints) serialize on
:attr:`writer_lock`, preserving the single-writer/multi-reader contract
of the hot store — so a query never observes a partition
mid-migration, only pre- (hot), during- (both, deduplicated) or post-
(cold).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.model.time import TimeWindow, day_of, day_start
from repro.obs.metrics import REGISTRY
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.database import EventStore, narrow_with_index
from repro.storage.filters import EventFilter
from repro.storage.kernels import ScanKernel, constant_false, scan_kernel
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
    """Hot partitioned store + cold tier behind the common store interface.

    Like :class:`~repro.storage.database.EventStore` it neither routes nor
    logs degraded reads, and its write-ahead log belongs to the system that
    opened it: ``route``, ``completeness_mark`` and ``close`` are ``None``
    and ``durable`` is ``False``.
    """

    route = None
    completeness_mark = None
    durable = False
    close = None

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
        # One registry and one entity index across tiers: every entity a
        # cold segment references is indexed in the hot store.
        self.registry = hot.registry
        self.entity_index = hot.entity_index
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
        # Segments already on disk hold events this hot store never
        # committed (they were recovered, not compacted here): the scan
        # watermark starts above them.
        self._recovered_eid = cold.max_event_id()

    # -- ingestion ----------------------------------------------------------

    def register_entity(self, entity) -> None:
        self.hot.register_entity(entity)

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

    def scan_columns(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
        kernel: Optional[ScanKernel] = None,
    ) -> BlockScanResult:
        """Survivors across both tiers as block selections, deduplicated.

        Hot parts come first, so when a migration hand-off leaves an event
        reachable in both tiers, the merged handle list keeps the hot copy
        (the stable sort preserves part order for equal keys).  Both tiers
        run ``kernel`` (see :meth:`EventStore.scan_columns`); without one,
        ``flt`` compiles here once and both tiers share it.

        With ``use_entity_index`` the entity predicates the hot store's
        attribute index can serve resolve to id sets here, once, and both
        tiers scan that narrowed filter: the hot tier serves the ids from
        its postings, the cold tier prunes segments whose zone-map
        subjects/objects miss them and cuts a surviving segment's rows by
        id before any predicate runs.  The index covers every entity a
        cold segment references: the registry is one across tiers, every
        entity is indexed as it is registered (ingest, snapshot load and
        WAL replay alike), and migration never drops one.

        An entity is indexed before its first batch commits, not before
        the ids are resolved, so the narrowed filter is complete only for
        what had committed by then.  The committed watermark is therefore
        read before resolving, and both tiers drop rows above it (a cold
        segment holding such rows is scanned with ``flt`` itself, see
        :meth:`ColdTier.scan_selections`): a batch committing meanwhile
        is seen whole or not at all, even when a compaction moves part of
        it cold mid-scan.
        """
        hot_committed = self.hot.committed
        committed = max(hot_committed, self._recovered_eid)
        narrowed = (
            narrow_with_index(flt, self.hot.entity_index)
            if use_entity_index
            else flt
        )
        if kernel is None and not constant_false(narrowed):
            kernel = scan_kernel(narrowed)
        hot = self.hot.scan_columns(narrowed, use_entity_index=False, kernel=kernel)
        cold_parts = self.cold.scan_selections(flt, kernel, narrowed, committed)
        hot_parts = hot.parts
        if self.hot.committed != hot_committed:
            # A batch committed during the scan; the hot store's own,
            # later snapshot may have let it in.
            hot_parts = [part.committed_only(committed) for part in hot_parts]
        elif not cold_parts:
            return hot
        return BlockScanResult(list(hot_parts) + cold_parts, dedup=True)

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
        # never be half-migrated.  Each part is one hot partition, its
        # rows in (start_time, event_id) order: it becomes one segment,
        # gathered column by column into a fresh block.  The positions go
        # in as a list, never as the whole-block range whose summary fields
        # extend_rows would reuse: no writer lock is held here, so a late
        # event may land in the live partition meanwhile, and its time, id
        # and codes must not reach the segment's zone map.
        old = self.hot.scan_columns(flt, use_entity_index=False)
        report = CompactionReport(cutoff_day=cutoff_day)
        segments: Dict[PartitionKey, ColumnBlock] = {}
        for part in old.parts:
            if not len(part):
                continue
            block, first = part.block, part.positions[0]
            key = self.partition_scheme.key_for(
                block.agents[block.agent_codes[first]], block.t0[first]
            )
            segments.setdefault(key, ColumnBlock()).extend_rows(
                block, list(part.positions)
            )
        if not segments:
            return report
        keys = sorted(segments, key=lambda k: (k.day, k.agent_group))
        # One manifest rewrite for the whole pass, after every file.
        zones = self.cold.add_segments([(key, segments[key]) for key in keys])
        migrated: Set[int] = set()
        for key in keys:
            migrated.update(segments[key].event_ids)
        report.segments_written = len(zones)
        report.cold_bytes = sum(
            (self.cold.directory / zone.filename).stat().st_size
            for zone in zones
        )
        with self.writer_lock:
            removed = self.hot.remove_events(migrated)
        report.events_migrated = removed
        report.partitions = tuple(keys)
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

    @property
    def committed(self) -> int:
        """The committed-event watermark across both tiers (recovered cold
        segments hold events this hot store never committed)."""
        return max(self.hot.committed, self._recovered_eid)

    def column_blocks(self) -> Iterator[Tuple[ColumnBlock, int]]:
        """``(block, visible rows)`` per cold segment, then per hot
        partition: every stored row, unpruned.  During a migration hand-off
        an event sits in both tiers; a reader keeps the later (hot) copy.
        """
        yield from self.cold.column_blocks()
        yield from self.hot.column_blocks()

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
