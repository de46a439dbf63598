"""The AIQL-optimized event store (paper Sec. 3.2).

:class:`EventStore` is the domain-optimized storage backend: events are
partitioned by (day, agent-group), entities are indexed on the frequently
queried attributes, and scans prune partitions using the spatial/temporal
constraints of the data query.  Scans over many partitions may run in
parallel (the storage-level half of the paper's temporal & spatial
parallelization; the query-level half lives in :mod:`repro.engine.parallel`).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.model.entities import Entity, EntityRegistry, EntityType
from repro.model.events import SystemEvent
from repro.service.cache import CACHEABLE_ID_SET_LIMIT, ScanCache, cacheable_filter
from repro.service.pool import SharedExecutor, get_shared_executor
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions, Selection
from repro.storage.filters import (
    EventFilter,
    filter_fingerprint,
    top_level_equalities,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import active_trace
from repro.storage.index import DEFAULT_INDEXED_ATTRIBUTES, EntityAttributeIndex
from repro.storage.kernels import kernel_for, kernels_enabled
from repro.storage.partition import PartitionKey, PartitionScheme
from repro.storage.table import EventTable

# Hot-scan metrics: one increment batch per scan (never per row), keyed
# per call site below so the disabled cost is one flag check in
# scan_columns.
_M_SCANS = REGISTRY.counter("aiql_scan_total", "Hot-store scans executed")
_M_ROWS_SCANNED = REGISTRY.counter(
    "aiql_scan_rows_scanned_total",
    "Rows resident in the partitions each hot scan examined",
)
_M_ROWS_SELECTED = REGISTRY.counter(
    "aiql_scan_rows_selected_total", "Rows selected by hot scans"
)
_M_PARTS_SCANNED = REGISTRY.counter(
    "aiql_scan_partitions_scanned_total",
    "Partitions surviving pruning and scanned",
)
_M_PARTS_PRUNED = REGISTRY.counter(
    "aiql_scan_partitions_pruned_total",
    "Partitions eliminated by (day, agent-group) pruning",
)
_M_CACHE_HITS = REGISTRY.counter(
    "aiql_scan_cache_hits_total",
    "Partition selections served from the scan cache",
)
_M_CACHE_MISSES = REGISTRY.counter(
    "aiql_scan_cache_misses_total",
    "Partition selections computed (scan-cache miss or cache bypass)",
)


def narrow_with_index(flt: EventFilter, index: EntityAttributeIndex) -> EventFilter:
    """Fold index-servable entity predicates into id-set narrowings.

    Resolving candidates once per scan (instead of once per partition or
    segment) keeps index probing off the per-table hot path; tables then
    serve the id sets straight from their postings lists.
    """
    subject = index.candidates(
        EntityType.PROCESS, top_level_equalities(flt.subject_pred)
    )
    if subject is not None:
        flt = flt.narrowed(subject_ids=subject)
    if flt.object_type is not None:
        obj = index.candidates(
            flt.object_type, top_level_equalities(flt.object_pred)
        )
        if obj is not None:
            flt = flt.narrowed(object_ids=obj)
    return flt


class EventStore:
    """Partitioned, indexed storage for system monitoring data.

    Concurrency model: single writer, many readers.  One ingest thread may
    append while any number of query-service workers scan; index lookups
    are locked, dict iterations snapshot, and every candidate event is
    re-checked against the full filter, so a racing append is either
    visible or not-yet-visible but never corrupts a result.

    Batch commits are atomic across partitions: each partition publishes
    its sub-batch with one visibility bump, and readers additionally filter
    by the store's committed-event watermark (``_committed``), which is
    raised only after every partition of the batch has published.  A scan
    racing a multi-partition commit therefore sees the whole batch or none
    of it — never one partition's share without another's.
    """

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        scheme: Optional[PartitionScheme] = None,
        indexed_attributes=None,
        executor: Optional[SharedExecutor] = None,
        scan_cache: Optional[ScanCache] = None,
    ) -> None:
        self.registry = registry if registry is not None else EntityRegistry()
        self.scheme = scheme or PartitionScheme()
        self.entity_index = EntityAttributeIndex(
            indexed_attributes or DEFAULT_INDEXED_ATTRIBUTES
        )
        self._partitions: Dict[PartitionKey, EventTable] = {}
        self._indexed_entities: set[int] = set()
        self._event_count = 0
        # Highest event id whose commit has fully published (all partitions
        # bumped).  Readers drop rows above their snapshot of this, which is
        # what makes a multi-partition batch commit atomic to scans.
        self._committed = 0
        # Parallel scans run on the process-wide shared pool (never a
        # per-call one); the scan cache is optional and owner-provided so
        # several stores can share or disable it.
        self._executor = executor
        self.scan_cache = scan_cache

    # -- ingestion ---------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Index a (deduplicated) entity; idempotent per entity id."""
        if entity.id in self._indexed_entities:
            return
        self._indexed_entities.add(entity.id)
        self.entity_index.add(entity)

    def add_event(self, event: SystemEvent) -> None:
        key = self.scheme.key_for(event.agent_id, event.start_time)
        table = self._partitions.get(key)
        if table is None:
            table = EventTable(self.registry.get)
            self._partitions[key] = table
        table.append(event)
        self._event_count += 1
        if self.scan_cache is not None:
            self.scan_cache.invalidate(key)
        self._committed = max(self._committed, event.event_id)

    def add_block(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Tuple[PartitionKey, ...]:
        """Append rows ``positions`` of ``block`` (default: all; ascending)
        as one committed batch; returns the partitions it touched.

        The one batch path — a stream commit, WAL replay, snapshot load and
        a shard worker's slice all arrive here as a block.  The rows are
        split per partition from the start-time column and the agent
        dictionary (:meth:`PartitionScheme.split`), each partition extends
        its columns and publishes its share with one visibility bump, and
        the scan cache is invalidated once per *touched* partition — cached
        scans of partitions the batch did not touch stay warm, unlike the
        per-event exclusive path which pays one invalidation per event.
        The committed watermark is raised last (after every partition
        published and the touched cache entries were dropped), so a reader
        either filters the whole batch out or — once the watermark moves —
        finds every partition's share already published: no torn batches,
        and a post-commit query never gets a pre-commit cache entry.
        """
        split = self.scheme.split(block, positions)
        for key, rows in split.items():
            table = self._partitions.get(key)
            if table is None:
                table = EventTable(self.registry.get)
                self._partitions[key] = table
            table.append_block(block, rows)
        if self.scan_cache is not None:
            for key in split:
                self.scan_cache.invalidate(key)
        self._event_count += sum(len(rows) for rows in split.values())
        self._committed = max(self._committed, block.top_event_id(positions))
        return tuple(split)

    def add_batch(
        self, batch: Union[ColumnBlock, Sequence[SystemEvent]]
    ) -> Tuple[PartitionKey, ...]:
        """One committed batch — the block a commit built, or rows — through
        :meth:`add_block`."""
        return self.add_block(ColumnBlock.of(batch))

    def remove_events(self, event_ids: AbstractSet[int]) -> int:
        """Remove committed events by id (the cold-migration hand-off).

        Affected partitions are rebuilt from their own columns without the
        removed rows and swapped in atomically (readers mid-scan keep the
        old table, which is still correct — the tiered scan path
        deduplicates by event id while both copies are reachable); emptied
        partitions are dropped.  Must run on the single writer, serialized
        with appends.
        """
        removed = 0
        for key, table in list(self._partitions.items()):
            fresh = table.without(event_ids)
            if fresh is None:
                continue
            removed += len(table) - len(fresh)
            if len(fresh):
                self._partitions[key] = fresh
            else:
                del self._partitions[key]
            if self.scan_cache is not None:
                self.scan_cache.invalidate(key)
        self._event_count -= removed
        return removed

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        """(min, max) event start time over the hot partitions."""
        tables = list(self._partitions.values())
        mins = [t.min_time for t in tables if t.min_time is not None]
        maxs = [t.max_time for t in tables if t.max_time is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    # -- queries -----------------------------------------------------------

    @property
    def executor(self) -> SharedExecutor:
        if self._executor is None:
            self._executor = get_shared_executor()
        return self._executor

    def _pruned_keys(self, flt: EventFilter) -> List[PartitionKey]:
        # list() snapshots atomically; pruning must not iterate the live
        # dict while a single-writer ingest inserts a new partition.
        return self.scheme.prune(list(self._partitions), flt.agent_ids, flt.window)

    def _pruned(self, flt: EventFilter) -> List[EventTable]:
        """Tables surviving partition pruning (also a benchmark probe)."""
        tables = (self._partitions.get(key) for key in self._pruned_keys(flt))
        return [table for table in tables if table is not None]

    def estimated_events(self, flt: EventFilter) -> int:
        """Upper bound on matching events from partition pruning alone.

        The hot half of the tiered cost estimate: the scheduler's
        cardinality score model prefers this over ``len(store)`` because a
        spatially/temporally constrained pattern only ever touches its
        surviving partitions.
        """
        return sum(len(table) for table in self._pruned(flt))

    # Skip the cache for filters carrying giant scheduler-narrowed id sets
    # (one-off fingerprints; see service.cache.cacheable_filter).
    CACHEABLE_ID_SET_LIMIT = CACHEABLE_ID_SET_LIMIT

    @classmethod
    def _cacheable(cls, flt: EventFilter) -> bool:
        return cacheable_filter(flt, cls.CACHEABLE_ID_SET_LIMIT)

    def scan_columns(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> BlockScanResult:
        """Survivors of ``flt`` as per-partition selections over the blocks.

        The block-native scan: nothing is materialized here — callers read
        join keys, narrowing values and time bounds straight off the
        columns and only final results become rows (:meth:`scan` is this
        plus materialization).

        ``use_entity_index=False`` disables the attribute hash indexes and
        models engines whose B-tree indexes cannot serve leading-wildcard
        LIKE predicates (stock PostgreSQL/Greenplum seq-scan in that case);
        partition pruning and the time index still apply.

        Per-partition selections are served from :attr:`scan_cache` when
        one is attached; entries are keyed by the *narrowed* filter plus
        the partition block's generation (a rebuilt partition gets a fresh
        block, so its old selections can never be replayed), and the
        committed-watermark cut is applied per scan, never cached.
        """
        # Cacheability is judged on the incoming filter: id sets already
        # present were injected by the scheduler from join results (one-off
        # keys), while the index narrowing below derives from the stable
        # entity population and only shapes the cache key.
        committed = self._committed  # snapshot before touching any partition
        cache = self.scan_cache
        cacheable = cache is not None and self._cacheable(flt)
        obs = REGISTRY.enabled
        trace = active_trace()
        observing = obs or trace is not None
        considered = len(self._partitions) if observing else 0
        if use_entity_index:
            flt = narrow_with_index(flt, self.entity_index)
        # Compile the filter once for the whole scan; every surviving
        # partition shares the kernel.  A constant-false filter (empty
        # window, empty narrowed id set) skips pruning and scanning alike.
        kernel = kernel_for(flt) if kernels_enabled() else None
        if kernel is not None and kernel.always_false:
            if observing:
                self._observe_scan(obs, trace, considered, 0, 0, 0, 0, 0)
            return BlockScanResult(())
        keys = self._pruned_keys(flt)
        if not keys:
            if observing:
                self._observe_scan(obs, trace, considered, 0, 0, 0, 0, 0)
            return BlockScanResult(())
        # Cache accounting for *this* scan: pool workers don't inherit the
        # caller's contextvars, so per-partition outcomes are collected via
        # this thread-safe list and folded into span/metrics on the calling
        # thread after the gather.
        computed: List[None] = []
        # Partition sizes are recorded inside scan_one (same thread-safe
        # list pattern) so the observing path never re-fetches tables.
        sizes: Optional[List[int]] = [] if observing else None
        # .get: a partition may be migrated cold (popped) between pruning
        # and the per-partition scan; its events are then served by the
        # cold tier, so an empty result here is correct, not a lost read.
        if cacheable:
            fingerprint = filter_fingerprint(flt)

            def scan_one(key: PartitionKey) -> Optional[Selection]:
                table = self._partitions.get(key)
                if table is None:
                    return None
                if sizes is not None:
                    sizes.append(len(table))

                def compute() -> Selection:
                    computed.append(None)
                    return table.scan_select(flt, None, kernel)

                return cache.get_or_compute(
                    key,
                    fingerprint,
                    compute,
                    generation=table.block.generation,
                )

        else:

            def scan_one(key: PartitionKey) -> Optional[Selection]:
                table = self._partitions.get(key)
                if table is None:
                    return None
                if sizes is not None:
                    sizes.append(len(table))
                return table.scan_select(flt, None, kernel)

        if parallel and len(keys) > 1:
            selections = self.executor.map_all(scan_one, keys)
        else:
            selections = [scan_one(key) for key in keys]
        # Rows published by a still-committing batch (or cached by a later
        # scan) sit above our committed snapshot; dropping them per scan
        # keeps multi-partition commits atomic to this scan.
        final = [s.committed_only(committed) for s in selections if s is not None]
        if observing:
            scanned = sum(1 for s in selections if s is not None)
            misses = len(computed) if cacheable else scanned
            hits = scanned - misses if cacheable else 0
            rows_scanned = sum(sizes or ())
            rows_selected = sum(len(s) for s in final)
            self._observe_scan(
                obs, trace, considered, scanned,
                rows_scanned, rows_selected, hits, misses,
            )
        return BlockScanResult(final)

    @staticmethod
    def _observe_scan(
        obs: bool,
        trace,
        considered: int,
        scanned: int,
        rows_scanned: int,
        rows_selected: int,
        hits: int,
        misses: int,
    ) -> None:
        """Fold one scan's outcome into metrics and the active span."""
        pruned = max(0, considered - scanned)
        if obs:
            _M_SCANS.inc()
            _M_ROWS_SCANNED.inc(rows_scanned)
            _M_ROWS_SELECTED.inc(rows_selected)
            _M_PARTS_SCANNED.inc(scanned)
            _M_PARTS_PRUNED.inc(pruned)
            if hits:
                _M_CACHE_HITS.inc(hits)
            if misses:
                _M_CACHE_MISSES.inc(misses)
        if trace is not None:
            span = trace.current
            span.add("rows_scanned", rows_scanned)
            span.add("rows_selected", rows_selected)
            span.add("partitions_scanned", scanned)
            span.add("partitions_pruned", pruned)
            span.add("cache_hits", hits)
            span.add("cache_misses", misses)

    def scan(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        """All events matching ``flt``, sorted by (start_time, event_id).

        Materializing wrapper over :meth:`scan_columns` (same semantics,
        row objects built for every survivor).
        """
        return self.scan_columns(flt, parallel, use_entity_index).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        """Index- and pruning-free scan; the soundness oracle for tests."""
        committed = self._committed
        matched: List[SystemEvent] = []
        for table in list(self._partitions.values()):
            matched.extend(
                e for e in table.full_scan(flt) if e.event_id <= committed
            )
        matched.sort(key=lambda e: (e.start_time, e.event_id))
        return matched

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._event_count

    def __iter__(self) -> Iterator[SystemEvent]:
        committed = self._committed
        for key in sorted(list(self._partitions), key=lambda k: (k.day, k.agent_group)):
            for event in self._partitions[key]:
                if event.event_id <= committed:
                    yield event

    def column_blocks(self) -> Iterator[Tuple[ColumnBlock, int]]:
        """``(block, visible rows)`` per partition, in key order.

        What a checkpoint writes; the caller holds off the writer.
        """
        for key in self.partition_keys:
            table = self._partitions[key]
            yield table.block, len(table)

    @property
    def partition_keys(self) -> Tuple[PartitionKey, ...]:
        return tuple(
            sorted(list(self._partitions), key=lambda k: (k.day, k.agent_group))
        )

    def partition_sizes(self) -> Dict[PartitionKey, int]:
        return {key: len(table) for key, table in list(self._partitions.items())}

    def stats(self) -> Dict[str, object]:
        sizes = [len(t) for t in list(self._partitions.values())]
        return {
            "events": self._event_count,
            "entities": len(self.registry),
            "partitions": len(self._partitions),
            "largest_partition": max(sizes) if sizes else 0,
            "smallest_partition": min(sizes) if sizes else 0,
        }
