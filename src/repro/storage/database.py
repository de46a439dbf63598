"""The AIQL-optimized event store (paper Sec. 3.2).

:class:`EventStore` is the domain-optimized storage backend: events are
partitioned by (day, agent-group), entities are indexed on the frequently
queried attributes, and scans prune partitions using the spatial/temporal
constraints of the data query.  Surviving partitions scan serially in
process: kernel code holds the GIL, so a thread fan-out only adds hand-off
cost.  The paper's temporal & spatial parallelization (Sec. 5.2) is served
by process shards (:mod:`repro.shard`).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterator, List, Optional, Tuple

from repro.model.entities import Entity, EntityRegistry, EntityType
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions, Selection
from repro.storage.filters import EventFilter, top_level_equalities
from repro.obs.metrics import REGISTRY
from repro.obs.trace import active_trace
from repro.storage.index import DEFAULT_INDEXED_ATTRIBUTES, EntityAttributeIndex
from repro.storage.kernels import ScanKernel, constant_false, scan_kernel
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
_M_ROWS_VISITED = REGISTRY.counter(
    "aiql_scan_rows_visited_total",
    "Candidate rows hot scans handed to the kernel after index and "
    "postings narrowing",
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


def narrow_with_index(flt: EventFilter, index: EntityAttributeIndex) -> EventFilter:
    """Fold index-servable entity predicates into id-set narrowings.

    Resolving candidates once per scan (instead of once per partition or
    segment) keeps index probing off the per-table hot path; tables then
    serve the id sets straight from their postings lists, and a tiered
    scan hands the same narrowed filter to the cold tier's zone maps.
    """
    subject = index.candidates(
        EntityType.PROCESS, top_level_equalities(flt.subject_pred)
    )
    obj = None
    if flt.object_type is not None:
        obj = index.candidates(
            flt.object_type, top_level_equalities(flt.object_pred)
        )
    # One copy for both sets (``narrowed`` returns ``flt`` for neither).
    return flt.narrowed(subject_ids=subject, object_ids=obj)


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

    :meth:`scan_columns` is the one read; :meth:`column_blocks` is the raw,
    pruning-free view a checkpoint writes.  An in-process store neither
    routes queries nor logs degraded reads, so ``route`` and
    ``completeness_mark`` are ``None``; it logs no commits of its own and
    holds nothing to release, so ``durable`` is ``False`` and ``close``
    is ``None`` (a sharded store defines all four).
    """

    route = None
    completeness_mark = None
    durable = False
    close = None

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        scheme: Optional[PartitionScheme] = None,
        indexed_attributes=None,
    ) -> None:
        self.registry = registry if registry is not None else EntityRegistry()
        self.scheme = scheme or PartitionScheme()
        self.entity_index = EntityAttributeIndex(
            indexed_attributes or DEFAULT_INDEXED_ATTRIBUTES
        )
        self._partitions: Dict[PartitionKey, EventTable] = {}
        # Every agent group a partition has held, ascending: what a scan
        # with a bounded window and no agents probes each day for.
        # Replaced, never mutated, so a reader's snapshot stays whole.
        self._groups: Tuple[int, ...] = ()
        self._indexed_entities: set[int] = set()
        self._event_count = 0
        # Highest event id whose commit has fully published (all partitions
        # bumped).  Readers drop rows above their snapshot of this, which is
        # what makes a multi-partition batch commit atomic to scans.
        self._committed = 0

    # -- ingestion ---------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Index a (deduplicated) entity; idempotent per entity id."""
        if entity.id in self._indexed_entities:
            return
        self._indexed_entities.add(entity.id)
        self.entity_index.add(entity)

    def add_block(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Tuple[PartitionKey, ...]:
        """Append rows ``positions`` of ``block`` (default: all; ascending)
        as one committed batch; returns the partitions it touched.

        The one batch path — a stream commit, WAL replay, snapshot load and
        a shard worker's slice all arrive here as a block.  The rows are
        split per partition from the start-time column and the agent
        dictionary (:meth:`PartitionScheme.split`) and each partition
        extends its columns and publishes its share with one visibility
        bump.  The committed watermark is raised last (after every
        partition published), so a reader either filters the whole batch
        out or — once the watermark moves — finds every partition's share
        already published: no torn batches.
        """
        split = self.scheme.split(block, positions)
        for key, rows in split.items():
            table = self._partitions.get(key)
            if table is None:
                if key.agent_group not in self._groups:
                    self._groups = tuple(sorted((*self._groups, key.agent_group)))
                table = EventTable(self.registry.get)
                self._partitions[key] = table
            table.append_block(block, rows)
        self._event_count += len(block) if positions is None else len(positions)
        self._committed = max(self._committed, block.top_event_id(positions))
        return tuple(split)

    # The name Ingestor.commit_block calls; benchmarks/e2e/layers.py times
    # the hot store's commit through it.
    add_batch = add_block

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
        self._event_count -= removed
        return removed

    @property
    def committed(self) -> int:
        """The committed-event watermark: every batch whose ids reach no
        higher has published in every partition it touches."""
        return self._committed

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        """(min, max) event start time over the hot partitions."""
        tables = list(self._partitions.values())
        mins = [t.min_time for t in tables if t.min_time is not None]
        maxs = [t.max_time for t in tables if t.max_time is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    # -- queries -----------------------------------------------------------

    def _pruned_keys(self, flt: EventFilter) -> List[PartitionKey]:
        # The live dict: a bounded window probes it, and a walk snapshots
        # it first.  A partition inserted after ``_groups`` was read holds
        # only rows above the scan's committed snapshot.
        return self.scheme.prune(
            self._partitions, flt.agent_ids, flt.window, self._groups
        )

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

    def scan_columns(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
        kernel: Optional[ScanKernel] = None,
    ) -> BlockScanResult:
        """Survivors of ``flt`` as per-partition selections over the blocks.

        The block-native scan: nothing is materialized here — callers read
        join keys, narrowing values and time bounds straight off the
        columns and only final results become rows (``.events()`` on the
        result).

        ``use_entity_index=False`` disables the attribute hash indexes and
        models engines whose B-tree indexes cannot serve leading-wildcard
        LIKE predicates (stock PostgreSQL/Greenplum seq-scan in that case);
        partition pruning and the time index still apply.

        Every partition's selection is computed by this scan; the
        committed-watermark cut is applied to it before it is returned.

        ``kernel`` is the compiled static part of ``flt`` (a plan
        pattern's, :attr:`~repro.lang.context.PatternContext.kernel`);
        without one the scan compiles ``flt`` for itself.  Either way
        every surviving partition runs the one kernel.
        """
        committed = self._committed  # snapshot before touching any partition
        obs = REGISTRY.enabled
        trace = active_trace()
        observing = obs or trace is not None
        considered = len(self._partitions) if observing else 0
        if use_entity_index:
            flt = narrow_with_index(flt, self.entity_index)
        # A constant-false filter (empty window, empty agent, operation or
        # narrowed id set) skips compiling, pruning and scanning alike.
        if constant_false(flt):
            if observing:
                self._observe_scan(obs, trace, considered, 0, 0, 0, 0)
            return BlockScanResult(())
        keys = self._pruned_keys(flt)
        if not keys:
            if observing:
                self._observe_scan(obs, trace, considered, 0, 0, 0, 0)
            return BlockScanResult(())
        kernel = scan_kernel(flt, kernel)
        # Candidate counts are appended by each table's scan; the observing
        # path sums them with the partition sizes after the loop.
        visits: Optional[List[int]] = [] if observing else None
        rows_scanned = 0
        final: List[Selection] = []
        for key in keys:
            # .get: a partition may be migrated cold (popped) between
            # pruning and here; its events are then served by the cold
            # tier, so skipping it is correct, not a lost read.
            table = self._partitions.get(key)
            if table is None:
                continue
            if observing:
                rows_scanned += len(table)
            # Rows published by a still-committing batch sit above our
            # committed snapshot; dropping them per scan keeps
            # multi-partition commits atomic to this scan.
            final.append(
                table.scan_select(flt, kernel, visits).committed_only(
                    committed
                )
            )
        if observing:
            self._observe_scan(
                obs, trace, considered, len(final), rows_scanned,
                sum(visits or ()), sum(len(s) for s in final),
            )
        return BlockScanResult(final)

    @staticmethod
    def _observe_scan(
        obs: bool,
        trace,
        considered: int,
        scanned: int,
        rows_scanned: int,
        rows_visited: int,
        rows_selected: int,
    ) -> None:
        """Fold one scan's outcome into metrics and the active span."""
        pruned = max(0, considered - scanned)
        if obs:
            _M_SCANS.inc()
            _M_ROWS_SCANNED.inc(rows_scanned)
            _M_ROWS_VISITED.inc(rows_visited)
            _M_ROWS_SELECTED.inc(rows_selected)
            _M_PARTS_SCANNED.inc(scanned)
            _M_PARTS_PRUNED.inc(pruned)
        if trace is not None:
            span = trace.current
            span.add("rows_scanned", rows_scanned)
            span.add("rows_visited", rows_visited)
            span.add("rows_selected", rows_selected)
            span.add("partitions_scanned", scanned)
            span.add("partitions_pruned", pruned)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._event_count

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
