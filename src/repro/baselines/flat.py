"""Unpartitioned storage baseline (the paper's stock-PostgreSQL setting).

For the end-to-end comparison (Sec. 6.2.2) the PostgreSQL and Neo4j
baselines "store the same copies of data and employ the same schema and
index designs ... but they do not employ our domain-specific data storage
optimizations such as spatial and temporal partitioning".  The
:class:`FlatStore` is exactly that: one monolithic event heap with the same
entity-attribute indexes, but no partition pruning.

A comparison store only: it ingests beside the partitioned store (attached
to the same :class:`~repro.storage.ingest.Ingestor`) and answers scans,
but it is never a durable, tiered or sharded deployment's hot tier.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.model.entities import Entity, EntityRegistry
from repro.model.events import SystemEvent
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.database import narrow_with_index
from repro.storage.filters import EventFilter
from repro.storage.index import DEFAULT_INDEXED_ATTRIBUTES, EntityAttributeIndex
from repro.storage.kernels import ScanKernel
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

    add_batch = add_block  # the name Ingestor.commit_block calls

    def scan_columns(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
        kernel: Optional[ScanKernel] = None,
    ) -> BlockScanResult:
        """Survivors as a single-heap selection (see ``EventStore.scan_columns``)."""
        # Without ``kernel`` the table compiles the filter itself (one heap,
        # one compilation).
        if use_entity_index:
            flt = narrow_with_index(flt, self.entity_index)
        return BlockScanResult([self._table.scan_select(flt, None, kernel)])

    def scan(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.scan_columns(flt, use_entity_index).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        return self._table.full_scan(flt)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[SystemEvent]:
        return iter(self._table)

    def stats(self) -> Dict[str, object]:
        return {
            "events": len(self._table),
            "entities": len(self.registry),
            "partitions": 1,
        }
