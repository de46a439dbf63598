"""Baseline query systems the paper compares against (Sec. 6).

* :mod:`repro.baselines.flat` — the unpartitioned event heap (the stock
  PostgreSQL data layout) as an ``EventStore`` placement;
* :mod:`repro.baselines.segmented` — MPP segments with arrival-order vs
  domain distribution (the Greenplum substrate), likewise a placement;
* :mod:`repro.baselines.relational` — PostgreSQL: one big written-order
  nested-loop join;
* :mod:`repro.baselines.graph` — Neo4j: property graph + Cypher-style
  backtracking path matching;
* :mod:`repro.baselines.mpp` — Greenplum scheduling vs AIQL scheduling
  over the segmented store (the paper's Fig. 7 "parallel" bars);
* :mod:`repro.baselines.translators` — semantically equivalent SQL /
  Cypher / SPL query generation;
* :mod:`repro.baselines.conciseness` — the Sec. 6.4 metrics.

The two stores are placements of the partitioned
:class:`~repro.storage.database.EventStore`: each is that store run under
its own :class:`~repro.storage.partition.PartitionScheme` subclass, so the
paper's comparison differs in layout alone (the same schema, indexes,
ingest and scan, Sec. 6.2.2).  They are comparison substrates only: they
ingest beside the partitioned store through the same ingestor
(``build_enterprise(stores=...)``) and answer scans; durable, tiered,
sharded and served deployments never hold them.
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
