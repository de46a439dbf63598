"""Baseline query systems the paper compares against (Sec. 6).

* :mod:`repro.baselines.flat` — the unpartitioned event heap (the stock
  PostgreSQL data layout);
* :mod:`repro.baselines.segmented` — MPP segments with arrival-order vs
  domain distribution (the Greenplum substrate);
* :mod:`repro.baselines.relational` — PostgreSQL: one big written-order
  nested-loop join;
* :mod:`repro.baselines.graph` — Neo4j: property graph + Cypher-style
  backtracking path matching;
* :mod:`repro.baselines.mpp` — Greenplum scheduling vs AIQL parallel
  scheduling over the segmented store;
* :mod:`repro.baselines.translators` — semantically equivalent SQL /
  Cypher / SPL query generation;
* :mod:`repro.baselines.conciseness` — the Sec. 6.4 metrics.

The two stores are comparison substrates only: they ingest beside the
partitioned :class:`~repro.storage.database.EventStore` through the same
ingestor (``build_enterprise(stores=...)``) and answer scans; durable,
tiered, sharded and served deployments never hold them.
"""

from repro.baselines.conciseness import (
    ConcisenessRow,
    LANGUAGES,
    compare,
    count_aiql_constraints,
    improvement_table,
    text_metrics,
    translate_all,
)
from repro.baselines.flat import FlatStore
from repro.baselines.graph import GraphEngine, GraphStore
from repro.baselines.mpp import (
    aiql_parallel_anomaly_engine,
    aiql_parallel_engine,
    greenplum_engine,
)
from repro.baselines.relational import MonolithicJoinEngine
from repro.baselines.segmented import SegmentedStore
from repro.baselines.translators import (
    TranslatedQuery,
    to_cypher,
    to_spl,
    to_sql,
)

__all__ = [
    "ConcisenessRow",
    "FlatStore",
    "GraphEngine",
    "GraphStore",
    "LANGUAGES",
    "MonolithicJoinEngine",
    "SegmentedStore",
    "TranslatedQuery",
    "aiql_parallel_anomaly_engine",
    "aiql_parallel_engine",
    "compare",
    "count_aiql_constraints",
    "greenplum_engine",
    "improvement_table",
    "text_metrics",
    "to_cypher",
    "to_spl",
    "to_sql",
    "translate_all",
]
