"""The Greenplum baseline: MPP scheduling vs AIQL scheduling (Sec. 6.3.3).

Greenplum's own scheduling runs the monolithic join with per-pattern scans
fanned out to all segments — and with arrival-order row distribution every
segment may hold matching rows, so nothing can be skipped.  AIQL's
semantics-aware model distributes by (agent, day), letting the scheduler
prune whole segments and run the relationship-based plan on top.

Both run against :class:`~repro.baselines.segmented.SegmentedStore`; the
difference is the distribution policy of the store plus the scheduling
strategy:

* ``greenplum_engine(store_arrival)``  — Fig. 7's "Greenplum" bars;
* ``aiql_parallel_engine(store_domain)`` — Fig. 7's "AIQL" bars.
"""

from __future__ import annotations

from repro.baselines.relational import MonolithicJoinEngine
from repro.baselines.segmented import SegmentedStore
from repro.engine.anomaly import AnomalyExecutor
from repro.engine.executor import MultieventExecutor


def greenplum_engine(store: SegmentedStore) -> MonolithicJoinEngine:
    """Greenplum scheduling: monolithic hash-join plan over all segments.

    Greenplum is a real parallel optimizer, so unlike single-node
    PostgreSQL it gets hash joins; what it lacks is the domain model —
    arrival distribution forces full-fleet scans for every pattern.
    """
    if store.policy != "arrival":
        raise ValueError(
            "the Greenplum baseline models arrival-order distribution; "
            f"got a store with policy {store.policy!r}"
        )
    return MonolithicJoinEngine(store, use_hash_joins=True)


def aiql_parallel_engine(store: SegmentedStore) -> MultieventExecutor:
    """AIQL scheduling over the domain-distributed segmented store."""
    if store.policy != "domain":
        raise ValueError(
            "AIQL's parallel engine expects the semantics-aware (domain) "
            f"distribution; got {store.policy!r}"
        )
    return MultieventExecutor(store, scheduling="relationship", parallel=True)


def aiql_parallel_anomaly_engine(store: SegmentedStore) -> AnomalyExecutor:
    if store.policy != "domain":
        raise ValueError(
            "AIQL's parallel engine expects the semantics-aware (domain) "
            f"distribution; got {store.policy!r}"
        )
    return AnomalyExecutor(store, scheduling="relationship", parallel=True)
