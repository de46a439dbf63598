"""Concurrent AIQL query front-end (the ROADMAP "heavy traffic" seam).

The seed served exactly one query at a time through
:meth:`repro.AIQLSystem.query`.  :class:`QueryService` executes many AIQL
queries concurrently against one store:

* queries run as tasks on the process-wide :class:`SharedExecutor`
  (``submit`` returns a future; ``submit_many``/``run_many`` batch);
* identical in-flight queries are deduplicated — submitting a query whose
  canonical text is already executing returns the existing future instead
  of spawning a second execution;
* overlapping *sub*-queries (the per-partition data-query scans) are
  deduplicated and amortized by the store's
  :class:`~repro.service.cache.ScanCache` — concurrent cache misses on the
  same ``(partition, filter)`` key execute once (single-flight), and later
  queries hit the warm cache until ingest invalidates the partition.

Every execution goes through :func:`repro.engine.run_query`, which builds
its executor per call, so any number of worker threads can share one
service.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.engine import canonical_text, compile_query, run_query
from repro.engine.result import ResultSet
from repro.lang.context import QueryContext
from repro.obs.metrics import REGISTRY
from repro.obs.slowlog import SlowQueryLog
from repro.service.pool import SharedExecutor, get_shared_executor

_M_QUERIES = REGISTRY.counter(
    "aiql_queries_total", "Queries executed (service + facade)"
)
_M_DEDUPED = REGISTRY.counter(
    "aiql_queries_deduped_total", "Submissions served by an in-flight twin"
)
_M_QUERY_SECONDS = REGISTRY.histogram(
    "aiql_query_seconds", "End-to-end query latency (compile + execute)"
)


@dataclass
class ServiceStats:
    """Counters for the service's dedup/concurrency behaviour."""

    submitted: int = 0
    executed: int = 0
    deduped: int = 0


class QueryService:
    """Executes many AIQL queries concurrently against one store."""

    def __init__(
        self,
        store,
        scheduling: str = "relationship",
        parallel: bool = False,
        executor: Optional[SharedExecutor] = None,
        slow_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self.store = store
        self.scheduling = scheduling
        self.parallel = parallel
        self._executor = (
            executor if executor is not None else get_shared_executor()
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, "Future[ResultSet]"] = {}
        self.stats = ServiceStats()
        self.slow_log = slow_log

    # -- compilation ---------------------------------------------------------

    @staticmethod
    def canonical_text(text: str) -> str:
        """Whitespace-insensitive form of a text: computed once per request
        and used as in-flight dedup key, plan-cache key and slow-log text
        (:func:`repro.engine.canonical_text`)."""
        return canonical_text(text)

    def compile(self, text: str) -> QueryContext:
        return compile_query(text)

    # -- execution -----------------------------------------------------------

    def _execute(
        self, source: Union[str, QueryContext], key: Optional[str] = None
    ) -> ResultSet:
        """Run one query: a text (``key`` its canonical form, computed here
        when the caller has not) or an already compiled context."""
        started = time.perf_counter()
        if isinstance(source, str):
            if key is None:
                key = canonical_text(source)
            ctx = compile_query(source, key)
        else:
            ctx = source
        result, stats = run_query(
            self.store, ctx, key, self.scheduling, self.parallel
        )
        with self._lock:
            self.stats.executed += 1
        elapsed = time.perf_counter() - started
        _M_QUERIES.inc()
        _M_QUERY_SECONDS.observe(elapsed)
        if self.slow_log is not None:
            self.slow_log.observe(
                key if key is not None else "<precompiled>",
                elapsed,
                rows=len(result),
                detail={
                    "kind": ctx.kind,
                    "events_fetched": stats.events_fetched,
                    "data_queries": stats.data_queries_executed,
                },
            )
        return result

    def submit(self, text: str) -> "Future[ResultSet]":
        """Schedule one query; returns a future for its :class:`ResultSet`.

        If an identical query (up to whitespace) is already in flight, its
        future is returned instead of executing a second copy.  Dedup has
        snapshot semantics: the shared execution may have begun before a
        concurrent ingest, exactly as if the caller's own query had raced
        the ingest.  Queries submitted after the shared one completes
        always re-execute and observe the ingest.
        """
        key = canonical_text(text)
        with self._lock:
            self.stats.submitted += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self.stats.deduped += 1
                _M_DEDUPED.inc()
                return existing
            future: "Future[ResultSet]" = Future()
            self._inflight[key] = future

        def task() -> None:
            try:
                value = self._execute(text, key)
            except BaseException as exc:
                with self._lock:
                    self._inflight.pop(key, None)
                future.set_exception(exc)
            else:
                # Drop from in-flight before resolving: a submit arriving
                # after ingest must re-execute, not adopt a stale result.
                with self._lock:
                    self._inflight.pop(key, None)
                future.set_result(value)

        self._executor.submit(task)
        return future

    def submit_many(self, texts: Sequence[str]) -> List["Future[ResultSet]"]:
        """Schedule a batch; duplicate texts share one execution/future."""
        return [self.submit(text) for text in texts]

    def run(self, text: str) -> ResultSet:
        """Synchronous convenience: submit and wait."""
        return self.submit(text).result()

    def run_many(self, texts: Sequence[str]) -> List[ResultSet]:
        """Execute a batch concurrently; results come back in input order."""
        return [future.result() for future in self.submit_many(texts)]

    # -- introspection -------------------------------------------------------

    @property
    def scan_cache(self):
        return getattr(self.store, "scan_cache", None)

    def stats_snapshot(self) -> Dict[str, object]:
        with self._lock:
            snapshot: Dict[str, object] = {
                "submitted": self.stats.submitted,
                "executed": self.stats.executed,
                "deduped": self.stats.deduped,
            }
        cache = self.scan_cache
        if cache is not None:
            snapshot["scan_cache"] = cache.stats()
        return snapshot
