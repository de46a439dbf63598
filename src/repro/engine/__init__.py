"""The AIQL query execution engine (paper Sec. 5, Fig. 3).

Execution pipeline for a multievent query: the semantic compiler hands a
:class:`~repro.lang.context.QueryContext` to a scheduler
(:mod:`repro.engine.scheduler`), which synthesizes one data query per event
pattern (:mod:`repro.engine.data_query`), executes them — relationship-based
or fetch-and-filter — into tuple sets (:mod:`repro.engine.tuples`), and the
executor (:mod:`repro.engine.executor`) projects the final tuple set through
the return clause.  Dependency queries are rewritten to multievent queries
(:mod:`repro.engine.dependency`); anomaly queries run the sliding-window
machinery (:mod:`repro.engine.anomaly`).  :func:`compile_query` is the one
compile entry and :func:`run_query` the one execution entry.
"""

from typing import Optional, Tuple

from repro.engine.anomaly import AnomalyExecutor
from repro.engine.data_query import DataQuery
from repro.engine.dependency import compile_dependency, rewrite_dependency
from repro.engine.executor import MultieventExecutor, evaluate_returns
from repro.engine.parallel import scan_split, split_window
from repro.engine.plan_cache import PlanCache, canonical_text
from repro.engine.result import ResultSet
from repro.engine.scheduler import (
    SCHEDULERS,
    FetchFilterScheduler,
    RelationshipScheduler,
    SchedulerStats,
    make_scheduler,
)
from repro.engine.tuples import TupleSet
from repro.lang import ast as _ast
from repro.lang import parser as _parser
from repro.lang.context import QueryContext, compile_multievent
from repro.obs.trace import trace_annotate

#: Every compile path of the process shares these plans (they hold no data).
PLAN_CACHE = PlanCache()


def compile_query(text: str, key: Optional[str] = None) -> QueryContext:
    """The prepared form of any AIQL query kind (no execution).

    The one compile entry point shared by :class:`repro.AIQLSystem`, the
    query service and the standing-query engine, so kind dispatch cannot
    diverge between them and a text is parsed and analysed once: the plan
    comes from :data:`PLAN_CACHE` when its canonical text was compiled
    before.  ``key`` is ``canonical_text(text)`` for callers that already
    computed it.  A text that fails to compile raises its typed error on
    every call and is never cached.  Under EXPLAIN ANALYZE the enclosing
    span is annotated ``cached``.
    """
    if key is None:
        key = canonical_text(text)
    ctx = PLAN_CACHE.get(key)
    trace_annotate(cached=ctx is not None)
    if ctx is None:
        tree = _parser.parse(text)
        if isinstance(tree, _ast.DependencyQuery):
            ctx = compile_dependency(tree)
        else:
            ctx = compile_multievent(tree)
        PLAN_CACHE.put(key, ctx)
    return ctx


def run_query(
    store,
    ctx: QueryContext,
    key: Optional[str] = None,
    scheduling: str = "relationship",
    parallel: bool = False,
) -> Tuple[ResultSet, SchedulerStats]:
    """Execute a prepared query against ``store``; ``(result, stats)``.

    The one execution entry shared by :class:`repro.AIQLSystem` (query,
    execute, EXPLAIN ANALYZE), the query service and the shard worker, and
    the one place routing lives.  On a store that routes (a sharded
    deployment), a query whose every pattern one shard owns runs whole on
    that shard when ``key`` — its canonical text, which is what ships — is
    given; precompiled contexts (``key=None``), multi-owner queries and
    queries the owner cannot answer run here, one scan at a time.  Either
    way, the completeness records the store logs during the execution
    (degraded or lossy shards) land in ``result.meta["completeness"]``.
    """
    marker = getattr(store, "completeness_mark", None)
    mark = marker() if marker is not None else None
    ran = None
    route = getattr(store, "route", None)
    if key is not None and route is not None:
        shard = route(ctx)
        if shard is not None:
            ran = store.run_routed(shard, key, scheduling, parallel)
    if ran is None:
        executor = AnomalyExecutor if ctx.kind == "anomaly" else MultieventExecutor
        ran = executor(
            store, scheduling=scheduling, parallel=parallel
        ).run_with_stats(ctx)
    result, stats = ran
    if mark is not None:
        summary = store.completeness_since(mark)
        if summary is not None:
            result.meta["completeness"] = summary
    return result, stats


__all__ = [
    "AnomalyExecutor",
    "DataQuery",
    "FetchFilterScheduler",
    "MultieventExecutor",
    "PLAN_CACHE",
    "PlanCache",
    "RelationshipScheduler",
    "ResultSet",
    "SCHEDULERS",
    "SchedulerStats",
    "TupleSet",
    "canonical_text",
    "compile_dependency",
    "compile_query",
    "evaluate_returns",
    "make_scheduler",
    "rewrite_dependency",
    "run_query",
    "scan_split",
    "split_window",
]
