"""Data query schedulers (paper Sec. 5.2, Algorithm 1).

Two strategies are provided:

* :class:`RelationshipScheduler` — the paper's relationship-based
  scheduling.  Event patterns get a *pruning score* (their number of
  constraints); relationships are sorted so that process/network event
  patterns are handled before file event patterns and higher-scoring pairs
  first; and each data query executed against a relationship is
  *constrained* by the results already in hand.

  The rule for "the results already in hand" is the bound set, not the
  pair.  A sorted relationship names which two patterns to bring together
  next; when that attaches a pending pattern to a tuple set, or joins two
  executed sets, the scheduler gathers **every** relationship not yet
  applied whose endpoints all lie in the union
  (:func:`~repro.engine.data_query.unapplied_relationships`).  All of them
  constrain the pending data query — id sets, IN lists and windows, each
  from the events the set binds to the other endpoint
  (:func:`~repro.engine.data_query.constrain_by_bound`) — and all of them
  go to :meth:`TupleSet.join`, so every equality lands in the composite
  hash key and none waits for a later filter.  With two patterns, or a
  pending pattern related to a single bound one, this is Algorithm 1's
  ``S_j <-execute-(S_i) q_j`` exactly; it is a superset when a pattern
  relates to several bound ones (a subject shared with one, an object
  with the same one, a temporal order with a third).  The standing-query
  engine's delta joins use the same two helpers.
* :class:`FetchFilterScheduler` — the strawman the paper calls
  *fetch-and-filter* (the ``AIQL FF`` baseline of Fig. 6): execute every
  data query independently, then join and filter, one relationship at a
  time.

All strategies produce the same final tuple set (a correctness invariant
the test suite checks); they differ only in how much irrelevant data they
touch.

Scoring models.  The paper estimates pruning power by *constraint count*
and concedes (Sec. 7) that this "may not accurately represent the size of
the results"; it proposes "constructing a statistical model of constraint
pruning power" as future work.  :class:`RelationshipScheduler` implements
both: ``score_model="constraints"`` (the published heuristic, default) and
``score_model="cardinality"`` (the Sec. 7 proposal — estimate each
pattern's result size from index statistics and prioritize the smallest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.data_query import (
    DataQuery,
    constrain_by_bound,
    unapplied_relationships,
)
from repro.engine.tuples import TupleSet
from repro.lang.context import (
    QueryContext,
    ResolvedAttrRel,
    ResolvedTempRel,
)
from repro.model.events import HIGH_PRUNING_EVENT_TYPES
from repro.obs.metrics import REGISTRY
from repro.obs.trace import trace_span

# Engine-level metrics: per data query / join, never per row.
_M_DATA_QUERIES = REGISTRY.counter(
    "aiql_data_queries_total", "Per-pattern data queries executed"
)
_M_CONSTRAINED = REGISTRY.counter(
    "aiql_constrained_executions_total",
    "Data queries narrowed by already-joined results (Algorithm 1)",
)
_M_JOINS = REGISTRY.counter("aiql_joins_total", "Tuple-set joins performed")
_M_JOIN_ROWS = REGISTRY.counter(
    "aiql_join_rows_total", "Rows produced by tuple-set joins"
)
_M_JOIN_CROSS = REGISTRY.counter(
    "aiql_join_cross_products_total",
    "Tuple-set joins that had no equality relationship to hash on",
)


@dataclass
class SchedulerStats:
    """Observability: how much each strategy fetched and joined."""

    data_queries_executed: int = 0
    constrained_executions: int = 0
    events_fetched: int = 0
    rows_joined: int = 0
    order: List[int] = field(default_factory=list)


_Relationship = Tuple[str, object]  # ('attr', ResolvedAttrRel) | ('temp', ...)


def _involved(rel: _Relationship) -> Tuple[int, int]:
    kind, payload = rel
    if kind == "attr":
        return payload.left.pattern, payload.right.pattern  # type: ignore[union-attr]
    return payload.left, payload.right  # type: ignore[union-attr]


class _SchedulerBase:
    def __init__(self, store, parallel: bool = False) -> None:
        self.store = store
        self.parallel = parallel
        self.stats = SchedulerStats()
        # Bound once: per-row relationship checks call this, and a tiered
        # store resolves ``registry`` through ``__getattr__`` every time.
        self._entity_of = store.registry.get

    def _execute(
        self,
        query: DataQuery,
        constrained: bool = False,
        narrowings: Optional[Dict[str, object]] = None,
    ):
        """Run ``query``, returning a scan result (columnar when the store
        supports it) — rows are materialized only where a join needs them.

        Under an active trace this opens one ``scan`` span per pattern
        execution; the storage layer folds its prune/cache annotations
        into it, and ``rows`` records the pattern's true cardinality
        (identical to this call's ``events_fetched`` contribution).
        """
        attrs: Dict[str, object] = {"pattern": query.index}
        if constrained:
            attrs["constrained"] = True
        if narrowings:
            attrs.update(narrowings)
        with trace_span("scan", **attrs) as span:
            scan = query.execute_scan(self.store, parallel=self.parallel)
            self.stats.data_queries_executed += 1
            if constrained:
                self.stats.constrained_executions += 1
            self.stats.events_fetched += len(scan)
            self.stats.order.append(query.index)
            if span is not None:
                span.annotate(rows=len(scan))
        _M_DATA_QUERIES.inc()
        if constrained:
            _M_CONSTRAINED.inc()
        return scan

    def _join(self, left: TupleSet, right: TupleSet, attr_rels, temp_rels) -> TupleSet:
        """Join two tuple sets under a ``join`` span, with row accounting."""
        keys = len(left.hash_keys(right, attr_rels))
        with trace_span("join") as span:
            joined = left.join(right, attr_rels, temp_rels, self._entity_of)
            self.stats.rows_joined += len(joined)
            if span is not None:
                span.annotate(
                    patterns=sorted(joined.patterns),
                    keys=keys,
                    rows_left=len(left),
                    rows_right=len(right),
                    rows_out=len(joined),
                )
                if not keys:
                    span.annotate(cross=True)
        _M_JOINS.inc()
        _M_JOIN_ROWS.inc(len(joined))
        if not keys:
            _M_JOIN_CROSS.inc()
        return joined

    def _filter(self, ts: TupleSet, attr_rels, temp_rels) -> TupleSet:
        """Relationship re-check on one tuple set, under a ``filter`` span."""
        with trace_span("filter") as span:
            filtered = ts.filter(attr_rels, temp_rels, self._entity_of)
            if span is not None:
                span.annotate(
                    patterns=sorted(ts.patterns),
                    rows_in=len(ts),
                    rows_out=len(filtered),
                )
        return filtered

    def _relationships(self, ctx: QueryContext) -> List[_Relationship]:
        rels: List[_Relationship] = [("attr", r) for r in ctx.attr_relationships]
        rels.extend(("temp", r) for r in ctx.temp_relationships)
        return rels

    @staticmethod
    def _rels_between(
        ctx: QueryContext, bound: Set[int]
    ) -> Tuple[List[ResolvedAttrRel], List[ResolvedTempRel]]:
        attr = [
            r
            for r in ctx.attr_relationships
            if r.left.pattern in bound and r.right.pattern in bound
        ]
        temp = [
            r
            for r in ctx.temp_relationships
            if r.left in bound and r.right in bound
        ]
        return attr, temp


SCORE_MODELS = ("constraints", "cardinality")


class RelationshipScheduler(_SchedulerBase):
    """Algorithm 1: relationship-based scheduling."""

    def __init__(
        self,
        store,
        parallel: bool = False,
        score_model: str = "constraints",
    ) -> None:
        super().__init__(store, parallel=parallel)
        if score_model not in SCORE_MODELS:
            raise ValueError(
                f"unknown score model {score_model!r}; "
                f"expected one of {SCORE_MODELS}"
            )
        self.score_model = score_model

    def _pattern_scores(self, ctx: QueryContext) -> Dict[int, float]:
        if self.score_model == "constraints":
            return {p.index: float(p.score) for p in ctx.patterns}
        return {
            p.index: -float(self._estimated_rows(p)) for p in ctx.patterns
        }

    def _estimated_rows(self, pattern) -> int:
        """Result-size estimate from index statistics (Sec. 7 proposal).

        The candidate entity-id sets the attribute indexes would serve
        bound the number of matching events.  Stores exposing
        ``estimated_events`` (partition pruning on the hot tier, zone-map
        pruning over cold segments — see :mod:`repro.tier`) refine the
        no-index fallback: a spatially/temporally constrained pattern is
        estimated at the events its surviving partitions and unpruned
        cold segments could hold, not the full store size.
        """
        entity_index = getattr(self.store, "entity_index", None)
        estimator = getattr(self.store, "estimated_events", None)

        def store_bound(flt) -> int:
            if estimator is not None:
                return estimator(flt)
            return len(self.store)

        if entity_index is None:
            return store_bound(pattern.filter)
        from repro.storage.database import narrow_with_index

        flt = narrow_with_index(pattern.filter, entity_index)
        bounds = []
        if flt.subject_ids is not None:
            bounds.append(len(flt.subject_ids))
        if flt.object_ids is not None:
            bounds.append(len(flt.object_ids))
        return min(bounds) if bounds else store_bound(flt)

    def run(self, ctx: QueryContext) -> TupleSet:
        queries = {p.index: DataQuery.for_pattern(p) for p in ctx.patterns}
        scores = self._pattern_scores(ctx)

        # Step 2: sort relationships.  Under the published heuristic:
        # process/network patterns ahead of file patterns, then by the sum
        # of the involved pruning scores.  Under the cardinality model the
        # estimated sizes subsume the type ordering.
        def rel_key(rel: _Relationship) -> tuple:
            i, j = _involved(rel)
            if self.score_model == "cardinality":
                return (0, -(scores[i] + scores[j]))
            file_patterns = sum(
                1
                for idx in (i, j)
                if ctx.patterns[idx].event_type not in HIGH_PRUNING_EVENT_TYPES
            )
            return (file_patterns, -(scores[i] + scores[j]))

        rels_sorted = sorted(self._relationships(ctx), key=rel_key)

        tuple_of: Dict[int, TupleSet] = {}  # the map M: executed patterns
        # Relationships some join has applied.  Invariant: every
        # relationship with both endpoints inside one tuple set is here.
        applied: Set[object] = set()

        def publish(joined: TupleSet) -> None:
            for pattern in joined.patterns:
                tuple_of[pattern] = joined

        def fetch(pattern: int) -> None:
            tuple_of[pattern] = TupleSet.from_scan(
                pattern, self._execute(queries[pattern])
            )

        def attach(pending: int, base: TupleSet) -> None:
            """Execute ``pending`` constrained by everything ``base`` has
            bound, and join it in on every relationship between them."""
            attr_rels, temp_rels = unapplied_relationships(
                ctx, {pending, *base.patterns}, applied
            )
            narrowed, narrowings = constrain_by_bound(
                queries[pending],
                attr_rels,
                temp_rels,
                base.events_of,
                self._entity_of,
            )
            scan = self._execute(narrowed, constrained=True, narrowings=narrowings)
            joined = self._join(
                base, TupleSet.from_scan(pending, scan), attr_rels, temp_rels
            )
            applied.update(attr_rels, temp_rels)
            publish(joined)

        # Step 3: main loop over sorted relationships.  A relationship
        # names the next pair to bring together; the join that does it
        # carries every relationship crossing between the two sides, so
        # all the equalities land in one composite hash key and a pending
        # pattern is constrained by every pattern already bound, not only
        # by the one this relationship names.
        for kind, rel in rels_sorted:
            if rel in applied:
                continue
            i, j = _involved((kind, rel))
            if i == j:
                continue  # rides the first join that binds its pattern
            if i not in tuple_of and j not in tuple_of:
                fetch(i if scores[i] >= scores[j] else j)
            if (i in tuple_of) != (j in tuple_of):
                done, pending = (i, j) if i in tuple_of else (j, i)
                attach(pending, tuple_of[done])
            else:
                set_i, set_j = tuple_of[i], tuple_of[j]
                attr_rels, temp_rels = unapplied_relationships(
                    ctx, {*set_i.patterns, *set_j.patterns}, applied
                )
                joined = self._join(set_i, set_j, attr_rels, temp_rels)
                applied.update(attr_rels, temp_rels)
                publish(joined)

        # Step 4: leftover patterns without any processed relationship.
        for pattern in ctx.patterns:
            if pattern.index not in tuple_of:
                fetch(pattern.index)

        # Step 5: merge remaining distinct tuple sets (cartesian).
        distinct: List[TupleSet] = []
        for value in tuple_of.values():
            if all(value is not seen for seen in distinct):
                distinct.append(value)
        merged = distinct[0]
        for other in distinct[1:]:
            merged = merged.cross(other)
        # What no join applied: relationships inside one pattern that
        # never met a join (a single-pattern query, a disconnected one).
        attr_rels, temp_rels = unapplied_relationships(
            ctx, set(merged.patterns), applied
        )
        if attr_rels or temp_rels:
            merged = self._filter(merged, attr_rels, temp_rels)
        return merged


class FetchFilterScheduler(_SchedulerBase):
    """Fetch-and-filter: fetch everything, then join and filter."""

    def run(self, ctx: QueryContext) -> TupleSet:
        sets: Dict[int, TupleSet] = {}
        for pattern in ctx.patterns:
            fetched = self._execute(DataQuery.for_pattern(pattern))
            sets[pattern.index] = TupleSet.from_scan(pattern.index, fetched)

        merged: Optional[TupleSet] = None
        remaining = dict(sets)
        # Join connected components first (cheaper than pure cross products),
        # but with no constrained execution and no pruning-score ordering.
        rels = self._relationships(ctx)
        current_sets: List[TupleSet] = list(remaining.values())

        def find_set(pattern: int) -> TupleSet:
            for ts in current_sets:
                if pattern in ts.patterns:
                    return ts
            raise KeyError(pattern)

        for kind, rel in rels:
            i, j = _involved((kind, rel))
            if i == j:
                continue
            set_i = find_set(i)
            set_j = find_set(j)
            attr_rels = [rel] if kind == "attr" else []
            temp_rels = [rel] if kind == "temp" else []
            if set_i is set_j:
                filtered = self._filter(set_i, attr_rels, temp_rels)
                current_sets = [
                    filtered if ts is set_i else ts for ts in current_sets
                ]
            else:
                joined = self._join(set_i, set_j, attr_rels, temp_rels)
                current_sets = [
                    ts for ts in current_sets if ts is not set_i and ts is not set_j
                ]
                current_sets.append(joined)

        merged = current_sets[0]
        for other in current_sets[1:]:
            merged = merged.cross(other)
        attr_rels, temp_rels = self._rels_between(ctx, set(merged.patterns))
        return self._filter(merged, attr_rels, temp_rels)


SCHEDULERS = {
    "relationship": lambda store, parallel: RelationshipScheduler(
        store, parallel=parallel
    ),
    "relationship_cardinality": lambda store, parallel: RelationshipScheduler(
        store, parallel=parallel, score_model="cardinality"
    ),
    "fetch_filter": lambda store, parallel: FetchFilterScheduler(
        store, parallel=parallel
    ),
}


def make_scheduler(name: str, store, parallel: bool = False) -> _SchedulerBase:
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None
    return factory(store, parallel)
