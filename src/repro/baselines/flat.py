"""Unpartitioned storage baseline (the paper's stock-PostgreSQL setting).

For the end-to-end comparison (Sec. 6.2.2) the PostgreSQL and Neo4j
baselines "store the same copies of data and employ the same schema and
index designs ... but they do not employ our domain-specific data storage
optimizations such as spatial and temporal partitioning".  The
:class:`FlatStore` is exactly that: an
:class:`~repro.storage.database.EventStore` placed by :class:`FlatScheme`,
which puts every row in one heap and prunes nothing.  Ingest, the entity
indexes, the committed watermark and the scan are the partitioned store's
own; only the layout differs.

A comparison store only: it ingests beside the partitioned store (attached
to the same :class:`~repro.storage.ingest.Ingestor`) and answers scans,
but it is never a durable, tiered or sharded deployment's hot tier.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.model.entities import EntityRegistry
from repro.model.time import TimeWindow
from repro.storage.blocks import ColumnBlock, Positions
from repro.storage.database import EventStore
from repro.storage.partition import PartitionKey, PartitionScheme

# The key of the one heap every row lands in.
HEAP = PartitionKey(day=0, agent_group=0)


class FlatScheme(PartitionScheme):
    """One partition for every row; pruning keeps it."""

    def key_for(self, agent_id: int, start_time: float) -> PartitionKey:
        return HEAP

    def split(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Dict[PartitionKey, Positions]:
        if positions is None:
            positions = range(len(block))
        return {HEAP: positions} if len(positions) else {}

    def prune(
        self,
        keys: Iterable[PartitionKey],
        agent_ids: Optional[FrozenSet[int]],
        window: TimeWindow,
        held_groups: Optional[Sequence[int]] = None,
    ) -> List[PartitionKey]:
        return list(keys)


class FlatStore(EventStore):
    """Single-heap event storage with attribute indexes."""

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        indexed_attributes=None,
    ) -> None:
        super().__init__(registry, FlatScheme(), indexed_attributes)
