"""The AIQL system facade (paper Fig. 2).

:class:`AIQLSystem` wires the three components together: optimized data
storage (Sec. 3), the language parser (Sec. 4) and the query execution
engine (Sec. 5).  Typical use::

    from repro import AIQLSystem

    system = AIQLSystem()
    ingestor = system.ingestor
    # ... feed events (e.g. via repro.workload generators) ...
    result = system.query('''
        agentid = 1
        (at "01/01/2017")
        proc p2 start proc p1 as evt1
        proc p3 read file[".viminfo" || ".bash_history"] as evt2
        with p1 = p3, evt1 before evt2
        return p2, p1
    ''')
    print(result.to_text())
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import List, Optional

from repro.core.config import SystemConfig
from repro.engine import PLAN_CACHE, canonical_text, compile_query, run_query
from repro.engine.result import ResultSet
from repro.engine.scheduler import SchedulerStats
from repro.lang.context import QueryContext
from repro.obs import trace as obs_trace
from repro.obs.explain import ExplainReport, plan_lines
from repro.obs.metrics import REGISTRY, flatten_gauges, set_metrics_enabled
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.trace import Trace, trace_span
from repro.service import (
    QueryService,
    ScanCache,
    StreamSession,
    get_shared_executor,
    shutdown_shared_executor,
)
from repro.service.continuous import ContinuousQueryEngine, Subscription
from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme

# Same metric names the query service registers — the registry dedups by
# name, so facade queries and service queries accumulate into one series.
_M_QUERIES = REGISTRY.counter("aiql_queries_total", "Queries executed")
_M_QUERY_SECONDS = REGISTRY.histogram(
    "aiql_query_seconds", "End-to-end query latency"
)


class AIQLSystem:
    """End-to-end AIQL deployment: ingestion, storage, parsing, execution."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        ingestor: Optional[Ingestor] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.ingestor = ingestor or Ingestor()
        self._wal = None
        self.compactor = None
        self.recovery = None
        # Process-wide, like the shared executor: the last-constructed
        # system decides whether the metrics registry records.
        set_metrics_enabled(self.config.metrics)
        self.slow_log = (
            SlowQueryLog(
                self.config.slow_query_ms, self.config.slow_query_log_entries
            )
            if self.config.slow_query_ms is not None
            else None
        )
        if self.config.shards:
            # Sharded deployment (repro.shard): worker processes own the
            # hot tiers and — when data_dir is set — their own WALs, cold
            # segments and compactors, so none of the in-process tier
            # wiring below applies; construction merges per-shard
            # recovery into the ingestor's counters and registry.
            from repro.shard import ShardedStore

            self.store = ShardedStore(self.ingestor, self.config)
            self.recovery = self.store.recovery
        else:
            self.store = EventStore(
                registry=self.ingestor.registry,
                scheme=PartitionScheme(
                    agents_per_group=self.config.agents_per_group
                ),
                executor=get_shared_executor(self.config.max_workers),
                scan_cache=ScanCache(self.config.scan_cache_entries)
                if self.config.scan_cache
                else None,
            )
            if self.config.data_dir is not None:
                # Durable tiered deployment: opening the data dir *is*
                # crash recovery (an empty directory recovers to an empty
                # system).  The store built above becomes the hot tier;
                # every commit hits the WAL before it publishes.
                from repro.tier import Compactor, open_data_dir

                self.store, self._wal, self.recovery = open_data_dir(
                    self.config.data_dir,
                    self.store,
                    self.ingestor,
                    retention_days=self.config.retention_days,
                    wal_sync=self.config.wal_sync,
                    cold_cache_segments=self.config.cold_cache_segments,
                    cold_scan_cache_entries=self.config.cold_scan_cache_entries,
                )
                if self.config.retention_days is not None:
                    self.compactor = Compactor(
                        self.store,
                        retention_days=self.config.retention_days,
                        interval_s=self.config.compact_interval_s,
                    ).start()
        self.ingestor.attach(self.store)
        self.last_scheduler_stats: Optional[SchedulerStats] = None
        self._service: Optional[QueryService] = None
        self._continuous: Optional[ContinuousQueryEngine] = None

    @classmethod
    def over(
        cls,
        store,
        ingestor: Optional[Ingestor] = None,
        config: Optional[SystemConfig] = None,
    ) -> "AIQLSystem":
        """Wrap an already-populated store (e.g. one built by
        :func:`repro.workload.loader.build_enterprise`)."""
        self = cls.__new__(cls)
        self.config = config or SystemConfig()
        self._wal = None
        self.compactor = None
        self.recovery = None
        set_metrics_enabled(self.config.metrics)
        self.slow_log = (
            SlowQueryLog(
                self.config.slow_query_ms, self.config.slow_query_log_entries
            )
            if self.config.slow_query_ms is not None
            else None
        )
        if ingestor is None:
            ingestor = Ingestor(registry=store.registry)
            ingestor.attach(store)
        self.ingestor = ingestor
        self.store = store
        if (
            self.config.scan_cache
            and isinstance(store, EventStore)
            and store.scan_cache is None
        ):
            store.scan_cache = ScanCache(self.config.scan_cache_entries)
        self._service = None
        self._continuous = None
        self.last_scheduler_stats = None
        return self

    @classmethod
    def recover(
        cls,
        data_dir: str,
        config: Optional[SystemConfig] = None,
    ) -> "AIQLSystem":
        """Recover a durable deployment from its data directory.

        Replays ``snapshot + WAL`` into a fresh hot store, attaches the
        cold tier and continues the event stream where the last durable
        commit left it.  Equivalent to constructing a system whose config
        points at ``data_dir``; the explicit name exists for the recovery
        path to be discoverable (and for the CLI's ``repro recover``).
        """
        from dataclasses import replace

        config = replace(config or SystemConfig(), data_dir=str(data_dir))
        return cls(config)

    # -- durability ------------------------------------------------------------

    @property
    def durable(self) -> bool:
        # In-process deployments hold the WAL here; sharded ones delegate
        # (each worker owns its shard's WAL).
        return self._wal is not None or bool(
            getattr(self.store, "durable", False)
        )

    def checkpoint(self) -> int:
        """Snapshot registry + hot tier, truncate the WAL; returns events
        written.  Requires a durable (``data_dir``) deployment.  Sharded
        deployments checkpoint every shard (each snapshots its own hot
        slice and truncates its own WAL)."""
        self._require_durable()
        if self._wal is None:
            return self.store.checkpoint()
        from repro.tier import checkpoint

        return checkpoint(self.config.data_dir, self.store, self._wal)

    def compact(self, retention_days: Optional[int] = None):
        """Run one hot-to-cold migration pass; returns the report."""
        self._require_durable()
        return self.store.compact(
            retention_days
            if retention_days is not None
            else self.config.retention_days
        )

    def close(self) -> None:
        """Release everything this deployment holds (idempotent).

        Stops the background compactor, closes the WAL, shuts down shard
        worker processes (sharded deployments), and shuts the process-wide
        shared executor's threads down — leaked pool threads otherwise
        survive into forked children, where a lock held by a thread that
        no longer exists deadlocks.  The shared executor lazily rebuilds
        its pool if anything in the process uses it again, so closing one
        system never breaks another.
        """
        if self.compactor is not None:
            self.compactor.stop()
        if self._wal is not None:
            self._wal.close()
        store_close = getattr(self.store, "close", None)
        if store_close is not None:
            store_close()
        shutdown_shared_executor()

    def __enter__(self) -> "AIQLSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_durable(self) -> None:
        if not self.durable:
            raise RuntimeError(
                "not a durable deployment: construct the system with "
                "SystemConfig(data_dir=...) to enable tiered storage"
            )

    # -- query pipeline ------------------------------------------------------

    def compile(self, text: str) -> QueryContext:
        """The prepared plan of ``text``, without executing: parsed and
        analysed on first sight of its canonical text, from the plan cache
        afterwards."""
        return compile_query(text)

    def query(self, text: str) -> ResultSet:
        """Prepare (once per canonical text), optimize and execute one
        AIQL query."""
        started = time.perf_counter()
        key = canonical_text(text)
        ctx = compile_query(text, key)
        result = self.execute(ctx, key)
        elapsed = time.perf_counter() - started
        _M_QUERIES.inc()
        _M_QUERY_SECONDS.observe(elapsed)
        if self.slow_log is not None:
            self.slow_log.observe(
                key, elapsed, rows=len(result), detail={"kind": ctx.kind}
            )
        return result

    def execute(self, ctx: QueryContext, key: Optional[str] = None) -> ResultSet:
        """Execute a prepared query (:func:`repro.engine.run_query`).

        ``key`` is the canonical text ``ctx`` was compiled from; with it a
        sharded deployment can route a single-owner query whole to its
        shard.  A partial answer (degraded or lossy shards) carries
        ``result.meta['completeness']``.
        """
        result, self.last_scheduler_stats = run_query(
            self.store, ctx, key, self.config.scheduling, self.config.parallel
        )
        return result

    def explain(self, text: str, *, analyze: bool = True) -> ExplainReport:
        """Execution plan for ``text``; with ``analyze`` (EXPLAIN ANALYZE)
        the query also *runs* under a trace, so the report carries a span
        tree (compile → schedule → per-pattern scans → narrowing re-queries
        → joins → project) with timings, cardinalities and cache/prune
        annotations; the ``compile`` span says whether the plan was
        ``cached``.  ``analyze=False`` — or ``SystemConfig(tracing=False)``
        — returns the static plan only (pattern scores, rel order).

        The report stringifies to its text rendering, so existing callers
        that printed ``explain()`` keep working unchanged.
        """
        if not (analyze and self.config.tracing):
            ctx = self.compile(text)
            return ExplainReport(query=text, kind=ctx.kind, plan=plan_lines(ctx))
        started = time.perf_counter()
        key = canonical_text(text)
        trace = Trace("query")
        with obs_trace.activate(trace):
            with trace_span("compile"):
                ctx = compile_query(text, key)
            result, stats = run_query(
                self.store, ctx, key, self.config.scheduling, self.config.parallel
            )
        # EXPLAIN ANALYZE executes the query, so it counts as one (same
        # convention as PostgreSQL's statistics views).
        elapsed = time.perf_counter() - started
        _M_QUERIES.inc()
        _M_QUERY_SECONDS.observe(elapsed)
        if self.slow_log is not None:
            self.slow_log.observe(
                key,
                elapsed,
                rows=len(result),
                detail={"kind": ctx.kind, "explain": True},
            )
        return ExplainReport(
            query=text,
            kind=ctx.kind,
            plan=plan_lines(ctx),
            root=trace.root,
            rows=len(result),
            scheduler=asdict(stats),
            completeness=result.meta.get("completeness"),
        )

    # -- observability ---------------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the engine metrics plus
        point-in-time gauges sampled from this deployment's ``stats()``."""
        return REGISTRY.render(
            extra_gauges=flatten_gauges("aiql_system", self.stats())
        )

    def metrics_snapshot(self) -> dict:
        """The metrics registry as plain dicts (counters, histogram p50/p99)."""
        return REGISTRY.snapshot()

    def slow_queries(self) -> List[SlowQuery]:
        """Recorded slow queries, oldest first (empty when the log is off).

        Covers :meth:`query` and everything submitted through the query
        service; enable with ``SystemConfig(slow_query_ms=...)``.
        """
        return self.slow_log.entries() if self.slow_log is not None else []

    # -- concurrent service ----------------------------------------------------

    @property
    def service(self) -> QueryService:
        """The concurrent query front-end over this system's store.

        Created lazily; all submissions share the process-wide executor
        and the store's partition-scan cache.
        """
        if self._service is None:
            self._service = QueryService(
                self.store,
                scheduling=self.config.scheduling,
                parallel=self.config.parallel,
                slow_log=self.slow_log,
            )
        return self._service

    def query_many(self, texts) -> list:
        """Execute a batch of queries concurrently (order-preserving)."""
        return self.service.run_many(texts)

    # -- live ingestion --------------------------------------------------------

    def stream(self, *, batch_size: Optional[int] = None) -> StreamSession:
        """Open a live-ingestion session over this system's ingestor.

        Events appended to the session become visible to queries at each
        batch commit (atomic per partition, monotone watermark); only the
        scan-cache entries of partitions a batch touches are invalidated,
        so concurrent queries over other partitions stay cache-warm.  Every
        committed batch is also pushed through the continuous query engine,
        so standing queries registered via :meth:`subscribe` alert from
        this session's commits (even when registered later).
        """
        session = StreamSession(
            self.ingestor,
            batch_size=batch_size or self.config.stream_batch_size,
        )
        session.on_commit(self._push_continuous)
        return session

    # -- continuous standing queries -------------------------------------------

    @property
    def continuous(self) -> ContinuousQueryEngine:
        """The standing-query engine over this system's live stream.

        Created lazily on first access/subscription; fed by the commit
        hooks of every :meth:`stream` session.
        """
        if self._continuous is None:
            self._continuous = ContinuousQueryEngine(
                self.ingestor.registry,
                default_window_s=self.config.continuous_window_s,
                max_window_s=self.config.continuous_max_window_s,
                max_subscriptions=self.config.continuous_max_subscriptions,
                alert_queue=self.config.continuous_alert_queue,
            )
        return self._continuous

    def subscribe(
        self,
        text: str,
        *,
        callback=None,
        window_s: Optional[float] = None,
        name: Optional[str] = None,
    ) -> Subscription:
        """Register ``text`` as a standing query over the live stream.

        Each stream-batch commit is evaluated incrementally (compiled
        kernels + delta joins over sliding windows) and every newly
        matched tuple emits an :class:`~repro.service.continuous.Alert`
        to ``callback`` and the engine's alert queue.
        """
        return self.continuous.subscribe(
            text, callback=callback, window_s=window_s, name=name
        )

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a standing query registered via :meth:`subscribe`."""
        self.continuous.unsubscribe(sub)

    def alerts(self) -> list:
        """Drain and return the queued alerts (oldest first)."""
        if self._continuous is None:
            return []
        return self._continuous.drain()

    def _push_continuous(self, batch, started: float) -> None:
        if self._continuous is not None:
            self._continuous.push(batch, started)

    # -- network service -------------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """The network front door over this deployment (:mod:`repro.server`).

        Returns an unstarted :class:`~repro.server.AIQLServer` exposing the
        versioned :mod:`repro.api` surface — ``POST /v1/query`` (streamed
        :class:`~repro.api.QueryPage` NDJSON), ``GET /v1/explain``,
        ``/v1/metrics``, ``/v1/stats``, ``/healthz`` and the ``/v1/alerts``
        WebSocket pushing standing-query alerts.  Drive it with
        ``await server.run()`` inside an event loop, or
        ``server.start_background()`` for a daemon-thread deployment
        (tests, benchmarks, embedding)::

            handle = system.serve(port=8080).start_background()
            ...
            handle.stop()

        ``port=0`` binds an ephemeral port (read it off ``server.port``
        once started).  Query execution, admission control and alert fan-
        out all run over this system's existing query service, shared
        executor and continuous engine.
        """
        from repro.server import AIQLServer

        return AIQLServer(self, host=host, port=port)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        stats = dict(self.store.stats())
        stats["plan_cache"] = PLAN_CACHE.stats()
        cache = getattr(self.store, "scan_cache", None)
        if cache is not None:
            stats["scan_cache"] = cache.stats()
        if self._wal is not None:
            stats["wal"] = self._wal.stats()
        if self.compactor is not None:
            stats["compactor"] = self.compactor.stats()
        if self.recovery is not None:
            stats["recovery"] = self.recovery.to_dict()
        if self._continuous is not None:
            stats["continuous"] = self._continuous.stats()
        if self.slow_log is not None:
            stats["slow_queries"] = self.slow_log.stats()
        return stats
