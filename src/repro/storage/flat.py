"""Unpartitioned storage baseline (the paper's stock-PostgreSQL setting).

For the end-to-end comparison (Sec. 6.2.2) the PostgreSQL and Neo4j
baselines "store the same copies of data and employ the same schema and
index designs ... but they do not employ our domain-specific data storage
optimizations such as spatial and temporal partitioning".  The
:class:`FlatStore` is exactly that: one monolithic event heap with the same
entity-attribute indexes, but no partition pruning and no scan parallelism.
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

from repro.model.entities import Entity, EntityRegistry
from repro.model.events import SystemEvent
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.filters import EventFilter
from repro.storage.index import DEFAULT_INDEXED_ATTRIBUTES, EntityAttributeIndex
from repro.storage.table import EventTable


class FlatStore:
    """Single-heap event storage with attribute indexes."""

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        indexed_attributes=None,
    ) -> None:
        self.registry = registry if registry is not None else EntityRegistry()
        self.entity_index = EntityAttributeIndex(
            indexed_attributes or DEFAULT_INDEXED_ATTRIBUTES
        )
        self._table = EventTable(self.registry.get)
        self._indexed_entities: set[int] = set()

    def register_entity(self, entity: Entity) -> None:
        if entity.id in self._indexed_entities:
            return
        self._indexed_entities.add(entity.id)
        self.entity_index.add(entity)

    def add_event(self, event: SystemEvent) -> None:
        self._table.append(event)

    def add_block(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> None:
        """Append rows ``positions`` of ``block`` (default: all) as one
        committed batch: one column extend, one visibility bump."""
        self._table.append_block(block, positions)

    def add_batch(self, batch: Union[ColumnBlock, Sequence[SystemEvent]]) -> None:
        """One committed batch — the block a commit built, or rows — through
        :meth:`add_block`."""
        self.add_block(ColumnBlock.of(batch))

    def remove_events(self, event_ids: AbstractSet[int]) -> int:
        """Remove committed events by id (the cold-migration hand-off).

        The heap is rebuilt from its own columns without the removed rows
        and swapped in atomically; readers mid-scan keep the old (still
        correct) table.  Must run on the single writer, serialized with
        appends.
        """
        fresh = self._table.without(event_ids)
        if fresh is None:
            return 0
        removed = len(self._table) - len(fresh)
        self._table = fresh
        return removed

    def time_range(self):
        """(min, max) event start time over the hot heap."""
        return (self._table.min_time, self._table.max_time)

    def scan_columns(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> BlockScanResult:
        """Survivors as a single-heap selection (see ``EventStore.scan_columns``)."""
        # ``parallel`` accepted for interface compatibility; a flat heap has
        # no partitions to parallelize over.  The table compiles the filter
        # into a scan kernel itself (one heap, one compilation).
        from repro.storage.database import narrow_with_index

        if use_entity_index:
            flt = narrow_with_index(flt, self.entity_index)
        return BlockScanResult([self._table.scan_select(flt, None)])

    def scan(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.scan_columns(flt, parallel, use_entity_index).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        return self._table.full_scan(flt)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[SystemEvent]:
        return iter(self._table)

    def column_blocks(self) -> Iterator[Tuple[ColumnBlock, int]]:
        """``(block, visible rows)`` of the heap (see ``EventStore``)."""
        yield self._table.block, len(self._table)

    def stats(self) -> Dict[str, object]:
        return {
            "events": len(self._table),
            "entities": len(self.registry),
            "partitions": 1,
        }
