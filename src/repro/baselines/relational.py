"""The PostgreSQL baseline: one big semantics-agnostic join (Sec. 6.2.2).

The paper's PostgreSQL comparison stores the same data with the same schema
and indexes, but executes each investigation query as one large SQL
statement: "by weaving all these join and filtering constraints together,
the engine could generate a large SQL with many constraints mixed together.
Such strategy suffers from indeterministic optimizations due to the large
number of constraints and often causes the execution to last for minutes or
even hours."

:class:`MonolithicJoinEngine` reproduces that execution model:

* one scan per event pattern, *in the order the query was written* — no
  pruning-power reordering;
* no constrained execution: every scan sees only the pattern's own
  predicates (a generic planner does not feed one pattern's bindings into
  another's index scan the way Algorithm 1 does);
* left-deep nested-loop joins, applying relationship predicates only once
  both sides are bound — the shape a generic optimizer degrades to when
  the constraint soup defeats its cost model;
* no attribute-hash assistance for the LIKE predicates: nearly every
  investigation constraint is a leading-wildcard pattern
  (``exe_name LIKE '%cmd.exe'``), which a B-tree index cannot serve, so
  stock engines sequential-scan each ``events`` alias (time index and, on
  the optimized store, partition pruning still apply — those model the
  B-tree on ``start_time`` that PostgreSQL *can* use).

Run it over a :class:`~repro.baselines.flat.FlatStore` (the
:class:`~repro.storage.database.EventStore` placed as one heap: no
storage optimizations) for the end-to-end setting (Table 3 / Fig. 5), or
over the partitioned ``EventStore`` for the scheduling-only comparison
(Fig. 6).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engine.data_query import DataQuery
from repro.engine.executor import evaluate_returns
from repro.engine.result import ResultSet
from repro.engine.scheduler import SchedulerStats
from repro.engine.tuples import TupleSet
from repro.lang.context import QueryContext, ResolvedAttrRel, ResolvedTempRel


class MonolithicJoinEngine:
    """Executes a QueryContext as one big written-order nested-loop join."""

    def __init__(
        self,
        store,
        use_hash_joins: bool = False,
        index_assisted: bool = False,
    ) -> None:
        self.store = store
        self.use_hash_joins = use_hash_joins
        self.index_assisted = index_assisted
        self.last_stats: SchedulerStats = SchedulerStats()

    def _entity_of(self, entity_id: int):
        return self.store.registry.get(entity_id)

    def run(self, ctx: QueryContext) -> ResultSet:
        tuples = self.join(ctx)
        return evaluate_returns(ctx, tuples, self.store.registry.get)

    def join(self, ctx: QueryContext) -> TupleSet:
        stats = SchedulerStats()
        self.last_stats = stats

        # fetch every pattern independently, in written order
        fetched: List[Tuple[int, List]] = []
        for pattern in ctx.patterns:
            events = DataQuery.for_pattern(pattern).execute(
                self.store, use_entity_index=self.index_assisted
            )
            stats.data_queries_executed += 1
            stats.events_fetched += len(events)
            stats.order.append(pattern.index)
            fetched.append((pattern.index, events))

        # left-deep join in written order
        current = TupleSet.from_events(fetched[0][0], fetched[0][1])
        bound = {fetched[0][0]}
        for index, events in fetched[1:]:
            bound.add(index)
            attr_rels = [
                r
                for r in ctx.attr_relationships
                if {r.left.pattern, r.right.pattern} <= bound
                and index in (r.left.pattern, r.right.pattern)
            ]
            temp_rels = [
                r
                for r in ctx.temp_relationships
                if {r.left, r.right} <= bound and index in (r.left, r.right)
            ]
            right = TupleSet.from_events(index, events)
            if self.use_hash_joins:
                current = current.join(
                    right, attr_rels, temp_rels, self._entity_of
                )
            else:
                current = self._nested_loop_join(
                    current, right, attr_rels, temp_rels
                )
            stats.rows_joined += len(current)
        # safety: re-check every relationship on the final rows
        attr_rels = [
            r
            for r in ctx.attr_relationships
            if {r.left.pattern, r.right.pattern} <= bound
        ]
        temp_rels = [
            r for r in ctx.temp_relationships if {r.left, r.right} <= bound
        ]
        return current.filter(attr_rels, temp_rels, self._entity_of)

    def _nested_loop_join(
        self,
        left: TupleSet,
        right: TupleSet,
        attr_rels: Sequence[ResolvedAttrRel],
        temp_rels: Sequence[ResolvedTempRel],
    ) -> TupleSet:
        """Pure nested loop: every pair is materialized and then filtered."""
        combined_patterns = tuple(sorted(left.patterns + right.patterns))
        rows = []
        for lrow in left.rows:
            mapping: Dict[int, object] = dict(zip(left.patterns, lrow))
            for rrow in right.rows:
                mapping.update(zip(right.patterns, rrow))
                rows.append(tuple(mapping[p] for p in combined_patterns))
        joined = TupleSet(patterns=combined_patterns, rows=rows)
        return joined.filter(attr_rels, temp_rels, self._entity_of)
