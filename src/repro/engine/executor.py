"""Multievent query executor (paper Sec. 5.1, Fig. 3).

Drives one multievent query end to end: scheduler -> final tuple set ->
return-clause evaluation (projection, aggregation, grouping, having,
distinct/count, sort, top) -> :class:`~repro.engine.result.ResultSet`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.engine.result import ResultSet, _sort_key
from repro.engine.scheduler import make_scheduler
from repro.engine.tuples import TupleSet
from repro.lang.context import QueryContext, ResolvedReturnItem
from repro.lang.errors import AIQLSemanticError
from repro.lang.expr import MappingEnv, evaluate_bool
from repro.obs.trace import trace_span


class MultieventExecutor:
    """Executes compiled multievent query contexts against a store."""

    def __init__(
        self,
        store,
        scheduling: str = "relationship",
    ) -> None:
        self.store = store
        self.scheduling = scheduling
        self.last_stats = None

    def run(self, ctx: QueryContext) -> ResultSet:
        result, stats = self.run_with_stats(ctx)
        self.last_stats = stats
        return result

    def run_with_stats(self, ctx: QueryContext):
        """Execute ``ctx``; returns ``(result, scheduler_stats)``.

        Unlike :meth:`run` this touches no executor state, so one
        executor instance can serve many threads (the query service calls
        it from the shared pool).
        """
        if ctx.kind != "multievent":
            raise AIQLSemanticError(
                "MultieventExecutor cannot run anomaly queries",
                hint="use repro.engine.anomaly.AnomalyExecutor",
            )
        scheduler = make_scheduler(self.scheduling, self.store)
        with trace_span("schedule", scheduling=self.scheduling) as span:
            tuples = scheduler.run(ctx)
            if span is not None:
                span.annotate(tuples=len(tuples))
        with trace_span("project") as span:
            result = evaluate_returns(ctx, tuples, self.store.registry.get)
            if span is not None:
                span.annotate(rows=len(result))
        return result, scheduler.stats


def evaluate_returns(
    ctx: QueryContext, tuples: TupleSet, entity_of
) -> ResultSet:
    """Project a final tuple set through the query's return clause."""
    col = {p: i for i, p in enumerate(tuples.patterns)}
    has_aggregates = any(item.is_aggregate for item in ctx.return_items)
    if has_aggregates or ctx.group_by:
        result = _aggregate(ctx, tuples, entity_of, col)
    else:
        rows = [
            tuple(
                item.ref.extract(row[col[item.ref.pattern]], entity_of)
                for item in ctx.return_items
            )
            for row in tuples.rows
        ]
        result = ResultSet(columns=ctx.labels, rows=rows)
        if ctx.having is not None:
            result = _apply_plain_having(ctx, result)

    if ctx.return_distinct:
        result = result.distinct()
    if ctx.return_count:
        result = ResultSet(columns=("count",), rows=[(len(result),)])
    if ctx.sort is not None:
        result = result.sorted_by(ctx.sort.attrs, descending=ctx.sort.descending)
    if ctx.top is not None:
        result = result.head(ctx.top)
    return result


def _aggregate(
    ctx: QueryContext, tuples: TupleSet, entity_of, col: Dict[int, int]
) -> ResultSet:
    """Group-by + aggregate evaluation.

    Non-aggregate return items act as implicit group keys when no explicit
    ``group by`` is present (matching the paper's Query 5 usage where
    ``return p, avg(evt.amount)`` groups by ``p``).
    """
    group_items = list(ctx.group_by)
    if not group_items:
        group_items = [i for i in ctx.return_items if not i.is_aggregate]

    def key_of(row: tuple) -> tuple:
        return tuple(
            item.ref.extract(row[col[item.ref.pattern]], entity_of)
            for item in group_items
        )

    groups: Dict[tuple, List[tuple]] = {}
    for row in tuples.rows:
        groups.setdefault(key_of(row), []).append(row)

    rows: List[tuple] = []
    for key, members in groups.items():
        key_lookup = {
            item.ref: value for item, value in zip(group_items, key)
        }
        out: List[object] = []
        values_by_label: Dict[str, float] = {}
        for item in ctx.return_items:
            if item.is_aggregate:
                value = _compute_aggregate(item, members, entity_of, col)
            else:
                if item.ref in key_lookup:
                    value = key_lookup[item.ref]
                else:
                    value = item.ref.extract(
                        members[0][col[item.ref.pattern]], entity_of
                    )
            out.append(value)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values_by_label[item.label] = float(value)
        if ctx.having is not None:
            env = MappingEnv({k: [v] for k, v in values_by_label.items()})
            try:
                if not evaluate_bool(ctx.having, env):
                    continue
            except AIQLSemanticError:
                # names referencing non-numeric results: treat as no match
                continue
        rows.append(tuple(out))

    rows.sort(key=lambda r: tuple(_sort_key(v) for v in r))
    return ResultSet(columns=ctx.labels, rows=rows)


def _compute_aggregate(
    item: ResolvedReturnItem,
    members: Sequence[tuple],
    entity_of,
    col: Dict[int, int],
) -> object:
    values = [
        item.ref.extract(row[col[item.ref.pattern]], entity_of)
        for row in members
    ]
    if item.distinct:
        seen = set()
        deduped = []
        for v in values:
            key = v.lower() if isinstance(v, str) else v
            if key not in seen:
                seen.add(key)
                deduped.append(v)
        values = deduped
    func = item.func
    if func == "count":
        return len(values)
    numeric = [float(v) for v in values]  # type: ignore[arg-type]
    if not numeric:
        return 0.0
    if func == "sum":
        return sum(numeric)
    if func == "avg":
        return sum(numeric) / len(numeric)
    if func == "min":
        return min(numeric)
    if func == "max":
        return max(numeric)
    raise AIQLSemanticError(f"unknown aggregate function {func!r}")


def _apply_plain_having(ctx: QueryContext, result: ResultSet) -> ResultSet:
    """Having over non-aggregated rows (each row is its own env)."""
    rows = []
    for row in result.rows:
        env_data = {
            label: [float(v)]
            for label, v in zip(result.columns, row)
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        env = MappingEnv(env_data)
        try:
            if evaluate_bool(ctx.having, env):
                rows.append(row)
        except AIQLSemanticError:
            continue
    return ResultSet(columns=result.columns, rows=rows, meta=dict(result.meta))
