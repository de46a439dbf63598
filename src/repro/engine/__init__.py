"""The AIQL query execution engine (paper Sec. 5, Fig. 3).

Execution pipeline for a multievent query: the semantic compiler hands a
:class:`~repro.lang.context.QueryContext` to a scheduler
(:mod:`repro.engine.scheduler`), which synthesizes one data query per event
pattern (:mod:`repro.engine.data_query`), executes them — relationship-based
or fetch-and-filter — into tuple sets (:mod:`repro.engine.tuples`), and the
executor (:mod:`repro.engine.executor`) projects the final tuple set through
the return clause.  Dependency queries are rewritten to multievent queries
(:mod:`repro.engine.dependency`); anomaly queries run the sliding-window
machinery (:mod:`repro.engine.anomaly`).
"""

from typing import Optional

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
    "scan_split",
    "split_window",
]
