"""Configuration knobs for an AIQL system instance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

BACKENDS = ("partitioned", "flat", "segmented")
SCHEDULINGS = ("relationship", "relationship_cardinality", "fetch_filter")
SHARD_READ_POLICIES = ("fail_fast", "degraded")


@dataclass(frozen=True)
class SystemConfig:
    """Storage + engine configuration.

    backend
        ``partitioned`` — the AIQL-optimized store (default);
        ``flat`` — single heap (the stock-PostgreSQL data layout);
        ``segmented`` — MPP segments (the Greenplum substrate).
    scheduling
        ``relationship`` (Algorithm 1, constraint-count scores),
        ``relationship_cardinality`` (the Sec. 7 statistical scoring
        extension) or ``fetch_filter`` (the FF baseline).
    parallel
        parallelize scans over partitions/segments (temporal & spatial
        parallelization, paper Sec. 5.2).
    agents_per_group
        spatial partition width of the partitioned store.
    segments / distribution
        segment count and distribution policy of the segmented store
        (``domain`` = AIQL's semantics-aware placement, ``arrival`` =
        ingest-order placement).
    scan_cache
        enable the partition-scan cache on the partitioned store
        (default on).  Scan results are memoized per
        ``(partition, canonical filter)`` and invalidated automatically
        when ingest appends to a partition; disable for memory-constrained
        deployments or write-dominated workloads.
    scan_cache_entries
        LRU bound of the scan cache: the maximum number of cached
        per-partition scan results (default 512).
    stream_batch_size
        auto-commit threshold of :meth:`AIQLSystem.stream` sessions: a
        live-ingestion batch is committed (published atomically, touched
        partitions invalidated) once this many events are staged.  Smaller
        batches shrink ingest-to-visibility latency; larger batches
        amortize commit overhead and cache invalidations.
    max_workers
        size of the process-wide shared executor that serves both
        concurrent queries and partition/sub-window scan fan-out.
        ``None`` uses the stdlib heuristic (cpu count + 4, capped at 32).
        Only effective for the config that first touches the shared pool;
        later systems in the same process reuse it.
    shards
        ``0`` (default) keeps the store in-process.  ``N >= 1`` deploys
        it sharded across N ``spawn``-started worker processes
        (:mod:`repro.shard`), partitioned by (day, agent-group): each
        worker owns its own hot backend (of ``backend``), scan cache and
        — when ``data_dir`` is set — its own WAL, snapshot and cold
        segments under ``<data_dir>/shard-<i>``.  Scans scatter/gather
        serialized column-block slices; CPU-bound scans scale past the
        GIL with the shard count.  ``backend``, ``scan_cache``,
        ``retention_days`` etc. configure each worker.
    shard_command_timeout_s
        deadline (seconds) for every coordinator↔worker command other
        than scatter scans: ingest acks, heartbeats, stats/metrics
        pulls, maintenance and the startup hello.  A worker that does
        not answer within it counts as wedged — the supervisor
        quarantines it, SIGKILLs the process and respawns it (durable
        shards replay their WAL).  ``None`` disables the deadline
        (pre-ISSUE-9 blocking behaviour).
    shard_scan_timeout_s
        deadline for one scatter-scan round (scans decompress cold
        segments and run compiled kernels, so they get their own, larger
        budget).  Same recovery semantics as the command timeout.
    shard_retry_attempts
        bounded retry budget for *idempotent* shard commands (scans,
        estimates, stats, metrics, heartbeats, maintenance): each
        attempt recovers the failed worker and re-issues the command,
        with exponential backoff + jitter between attempts
        (:mod:`repro.core.retry`).  Non-idempotent ingest commits never
        retry — they fail fast reporting exactly which shards acked.
    shard_read_policy
        what a scatter scan does when a shard stays unavailable after
        retries: ``fail_fast`` (default) raises
        :class:`~repro.shard.ShardError`; ``degraded`` returns the
        surviving shards' watermark-capped rows plus a completeness
        annotation (missing shard ids, estimated missed rows) threaded
        into ``ResultSet.meta['completeness']`` and EXPLAIN reports.
    shard_heartbeat_interval_s
        period of the supervisor's liveness sweep (process sentinel
        check + heartbeat ping per shard); a dead or wedged worker is
        recovered before the next query trips over it.  ``0`` disables
        the background sweep (failures are then detected at the next
        command).
    shard_max_restarts
        supervised restarts allowed per shard; beyond it the shard is
        marked failed and left quarantined (degraded reads annotate it,
        fail-fast reads raise).  Bounds crash loops.
    shard_chaos
        fault-injection plan for the deployment's workers
        (:mod:`repro.shard.chaos`): an integer seed for a generated
        plan, or an explicit spec like ``"kill@1:scan#0"``.  ``None``
        (default) injects nothing; the ``AIQL_SHARD_CHAOS`` environment
        variable applies when this is unset.  Test/bench harness — not
        for production deployments.
    data_dir
        root of the durable tiered-storage state (``repro.tier``):
        snapshot, write-ahead log and cold segment files.  ``None`` (the
        default) keeps the deployment RAM-only with no durability; a path
        makes every committed batch durable before it publishes and opens
        the directory through recovery (an existing directory restores
        its state, so constructing a system over a crashed data dir *is*
        crash recovery).
    retention_days
        hot-tier retention horizon in data-time days: compaction migrates
        committed events on older days out of RAM into compressed cold
        segments (queries still answer over them through zone-map-pruned
        cold scans).  ``None`` disables compaction; requires ``data_dir``.
    compact_interval_s
        wake-up period of the background compactor thread (only started
        when both ``data_dir`` and ``retention_days`` are set).
    wal_sync
        write the write-ahead log synchronously (``O_SYNC``, what a write
        followed by an fsync guarantees) on every batch commit (default on).
        Disabling trades crash durability of the tail batch for ingest
        throughput (the OS still sees every write in order).
    cold_cache_segments
        LRU bound of decompressed cold segments kept in memory for
        repeated cold-window scans.  A segment whose decoded block is still
        held anywhere — this LRU, a cached cold selection, an in-flight
        result — is never decoded again, so at most one block per segment
        file is alive: this many, plus the segments the cold scan cache's
        entries reference, plus in-flight results.
    cold_scan_cache_entries
        LRU bound of the cold tier's per-segment scan-result cache
        (keyed by segment file + canonical filter; segments are immutable
        so entries never need invalidation).  ``0`` disables it.
    continuous_window_s
        default sliding-window horizon (seconds of data time) of standing
        queries registered through :meth:`AIQLSystem.subscribe`: matched
        events older than the stream high-water mark minus this horizon
        are evicted from the query's windows and stop pairing into alerts.
    continuous_max_window_s
        upper bound on per-subscription horizons (``None`` = unbounded;
        subscriptions may then keep every match with
        ``window_s=float("inf")``).  Bounding it caps the standing-query
        memory of a deployment regardless of what clients ask for.
    continuous_max_subscriptions
        maximum number of concurrently-registered standing queries.
    continuous_alert_queue
        depth of the engine-level alert queue; when full, the oldest
        undrained alert is dropped (and counted) — callbacks still fire
        for every alert.
    metrics
        enable the engine metrics registry (:mod:`repro.obs.metrics`):
        counters/gauges/histograms across ingest, scans, joins, WAL,
        compaction, continuous queries and shard scatter/gather, exposed
        via :meth:`AIQLSystem.metrics_text` in Prometheus text format.
        Process-wide toggle (like ``max_workers``); instrumentation sites
        increment per scan/commit, never per row, so the enabled cost is
        negligible and the disabled cost is one flag check.
    tracing
        allow query tracing: :meth:`AIQLSystem.explain` with
        ``analyze=True`` executes the query under a span tree (compile →
        schedule → per-pattern scans → narrowing re-queries → joins)
        with timings, cardinalities and cache/prune annotations.  When
        off, ``explain`` always returns the static plan only.  Queries
        outside ``explain`` never pay tracing costs either way.
    slow_query_ms
        latency threshold of the slow-query log: queries through
        :meth:`AIQLSystem.query` / the query service slower than this
        (milliseconds) are recorded with their text, latency and row
        count (:meth:`AIQLSystem.slow_queries`).  ``None`` (default)
        disables the log.
    slow_query_log_entries
        ring-buffer size of the slow-query log (oldest entries evicted).
    server_max_inflight
        network front door (:meth:`AIQLSystem.serve`): maximum queries
        executing concurrently on the shared executor.  Arrivals beyond
        it queue per client and are dispatched round-robin.
    server_queue_depth
        total queued requests the server holds before shedding load with
        ``429 server.overloaded`` + ``Retry-After``.
    server_client_queue_depth
        per-client queue bound — one chatty client saturating its own
        queue is rejected without starving the rest.
    server_page_rows
        rows per streamed :class:`~repro.api.QueryPage` when the request
        does not pick its own ``page_rows``.
    server_alert_queue
        per-WebSocket bound on undelivered alerts; beyond it the newest
        alert is dropped (and counted) rather than blocking the stream
        commit thread.
    server_max_body_bytes
        largest accepted HTTP request body (``413 request.too_large``
        beyond it).
    """

    backend: str = "partitioned"
    scheduling: str = "relationship"
    parallel: bool = False
    columnar = True  # not a field: scans are always columnar; stamps read it
    agents_per_group: int = 10
    segments: int = 5
    distribution: str = "domain"
    scan_cache: bool = True
    scan_cache_entries: int = 512
    stream_batch_size: int = 256
    max_workers: Optional[int] = None
    shards: int = 0
    shard_command_timeout_s: Optional[float] = 30.0
    shard_scan_timeout_s: Optional[float] = 120.0
    shard_retry_attempts: int = 3
    shard_read_policy: str = "fail_fast"
    shard_heartbeat_interval_s: float = 5.0
    shard_max_restarts: int = 3
    shard_chaos: Optional[str] = None
    data_dir: Optional[str] = None
    retention_days: Optional[int] = None
    compact_interval_s: float = 30.0
    wal_sync: bool = True
    cold_cache_segments: int = 4
    cold_scan_cache_entries: int = 128
    continuous_window_s: float = 3600.0
    continuous_max_window_s: Optional[float] = None
    continuous_max_subscriptions: int = 64
    continuous_alert_queue: int = 1024
    metrics: bool = True
    tracing: bool = True
    slow_query_ms: Optional[float] = None
    slow_query_log_entries: int = 128
    server_max_inflight: int = 8
    server_queue_depth: int = 64
    server_client_queue_depth: int = 16
    server_page_rows: int = 1024
    server_alert_queue: int = 4096
    server_max_body_bytes: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.scheduling not in SCHEDULINGS:
            raise ValueError(
                f"unknown scheduling {self.scheduling!r}; "
                f"expected one of {SCHEDULINGS}"
            )
        if self.scan_cache_entries < 1:
            raise ValueError("scan_cache_entries must be >= 1")
        if self.stream_batch_size < 1:
            raise ValueError("stream_batch_size must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = in-process store)")
        if (
            self.shard_command_timeout_s is not None
            and self.shard_command_timeout_s <= 0
        ):
            raise ValueError("shard_command_timeout_s must be > 0 (or None)")
        if (
            self.shard_scan_timeout_s is not None
            and self.shard_scan_timeout_s <= 0
        ):
            raise ValueError("shard_scan_timeout_s must be > 0 (or None)")
        if self.shard_retry_attempts < 1:
            raise ValueError("shard_retry_attempts must be >= 1")
        if self.shard_read_policy not in SHARD_READ_POLICIES:
            raise ValueError(
                f"unknown shard_read_policy {self.shard_read_policy!r}; "
                f"expected one of {SHARD_READ_POLICIES}"
            )
        if self.shard_heartbeat_interval_s < 0:
            raise ValueError(
                "shard_heartbeat_interval_s must be >= 0 (0 disables)"
            )
        if self.shard_max_restarts < 0:
            raise ValueError("shard_max_restarts must be >= 0")
        if self.retention_days is not None:
            if self.retention_days < 1:
                raise ValueError("retention_days must be >= 1 (or None)")
            if self.data_dir is None:
                raise ValueError(
                    "retention_days requires data_dir: cold segments need "
                    "somewhere durable to live"
                )
        if self.compact_interval_s <= 0:
            raise ValueError("compact_interval_s must be > 0")
        if self.cold_cache_segments < 1:
            raise ValueError("cold_cache_segments must be >= 1")
        if self.cold_scan_cache_entries < 0:
            raise ValueError("cold_scan_cache_entries must be >= 0")
        if self.continuous_window_s <= 0:
            raise ValueError("continuous_window_s must be > 0")
        if (
            self.continuous_max_window_s is not None
            and self.continuous_max_window_s <= 0
        ):
            raise ValueError("continuous_max_window_s must be > 0 (or None)")
        if self.continuous_max_subscriptions < 1:
            raise ValueError("continuous_max_subscriptions must be >= 1")
        if self.continuous_alert_queue < 1:
            raise ValueError("continuous_alert_queue must be >= 1")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ValueError("slow_query_ms must be >= 0 (or None)")
        if self.slow_query_log_entries < 1:
            raise ValueError("slow_query_log_entries must be >= 1")
        if self.server_max_inflight < 1:
            raise ValueError("server_max_inflight must be >= 1")
        if self.server_queue_depth < 0:
            raise ValueError("server_queue_depth must be >= 0")
        if self.server_client_queue_depth < 1:
            raise ValueError("server_client_queue_depth must be >= 1")
        if self.server_page_rows < 1:
            raise ValueError("server_page_rows must be >= 1")
        if self.server_alert_queue < 1:
            raise ValueError("server_alert_queue must be >= 1")
        if self.server_max_body_bytes < 1024:
            raise ValueError("server_max_body_bytes must be >= 1024")
