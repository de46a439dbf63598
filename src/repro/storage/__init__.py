"""Storage (paper Sec. 3.2).

* :class:`~repro.storage.database.EventStore` — the AIQL-optimized store:
  (day, agent-group) partitions, attribute indexes, partition pruning,
  parallel scans.  The one production store: every in-process, durable,
  sharded and served deployment holds it as its hot tier.
* :class:`~repro.storage.ingest.Ingestor` — the agent→server pipeline that
  fans identical data out to all attached stores.
* blocks, kernels, tables, indexes, partitioning, the block codec and
  snapshots — the pieces the store is built from.

The Sec. 6 comparison substrates (the flat PostgreSQL heap and the MPP
Greenplum segments) live under :mod:`repro.baselines`.
"""

from repro.storage.database import EventStore
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
    conjoin,
    like_to_regex,
    top_level_equalities,
)
from repro.storage.index import (
    DEFAULT_INDEXED_ATTRIBUTES,
    EntityAttributeIndex,
    HashIndex,
    SortedTimeIndex,
)
from repro.storage.ingest import IngestError, Ingestor
from repro.storage.partition import PartitionKey, PartitionScheme
from repro.storage.persist import SnapshotError, load_snapshot, save_snapshot
from repro.storage.table import EventTable

__all__ = [
    "AttrPredicate",
    "DEFAULT_INDEXED_ATTRIBUTES",
    "EntityAttributeIndex",
    "EventFilter",
    "EventStore",
    "EventTable",
    "HashIndex",
    "IngestError",
    "Ingestor",
    "PartitionKey",
    "PartitionScheme",
    "PredicateAnd",
    "PredicateLeaf",
    "PredicateNot",
    "PredicateOr",
    "SnapshotError",
    "SortedTimeIndex",
    "conjoin",
    "like_to_regex",
    "load_snapshot",
    "save_snapshot",
    "top_level_equalities",
]
