"""Sharded deployment coordinator: scatter/gather over worker processes.

:class:`ShardedStore` partitions the store horizontally by the same
``(day, agent-group)`` key the partitioned store and the cold tier
already use, across N ``spawn``-started worker processes
(:mod:`repro.shard.worker`).  It exposes the common store surface
(``register_entity`` / ``add_block`` / ``scan_columns`` / ``scan`` /
``estimated_events`` / ``stats`` / ...), so everything above it —
:class:`~repro.engine.executor.MultieventExecutor`, the scheduler's
constrained re-query narrowing, the query service, streaming sessions —
runs unchanged.  In particular **join narrowing pushes down for free**:
the scheduler re-queries constrained patterns through
``store.scan_columns(narrowed_filter)``, and the narrowed filter (id
sets, IN predicates, tightened windows) ships to every shard that can hold
a matching row (:func:`owner_shards`), where the local compiled kernel
applies it before anything crosses a pipe.

Routed queries: a query whose every pattern only one shard can match
(:meth:`ShardedStore.route`) skips the per-scan round trips —
:func:`repro.engine.run_query` sends it whole to that shard as one
``query`` command (:meth:`ShardedStore.run_routed`), and the worker runs
the same executor over a view of its store whose scans are capped exactly
like a scatter reply.  Multi-owner queries, precompiled contexts and a
query whose owner cannot answer take the scatter path.

Worker commands: ``batch`` (ingest), ``entities`` (registry broadcast),
``scan`` (one scatter scan), ``query`` (one routed query), ``full_scan``,
``estimate``, ``time_range``, ``compact``, ``checkpoint``, ``stats``,
``metrics``, ``ping`` and ``stop``.

Ingest is columnar end to end: a commit reaches :meth:`ShardedStore.
add_block` as one :class:`~repro.storage.blocks.ColumnBlock`, the shard of
every row is computed from the block's start-time column and agent
dictionary, each shard's slice is cut from the columns and ships as one
block frame of :mod:`repro.storage.codec` (the ``batch`` command), and the
worker commits the decoded block — its WAL frames the same columns, its
stores extend theirs from them.  No row tuple is pickled and no row object
is built on either side of the pipe.

Consistency (torn-read prevention): the coordinator raises its global
committed watermark only after *every* shard involved in a batch has
acknowledged it, and every scatter scan carries the watermark observed
at issue time; workers cap their results at that id.  A scan racing a
multi-shard commit therefore sees the whole batch or none of it — the
cross-process generalization of the partitioned store's in-process
commit watermark.

Fault tolerance (ISSUE 9): every coordinator↔worker command waits with
``Connection.poll``-based deadlines (``SystemConfig(
shard_command_timeout_s, shard_scan_timeout_s)``) instead of blocking
``recv()``.  A dead pipe or blown deadline hands the shard to the
:class:`~repro.shard.supervisor.ShardSupervisor` — quarantine, SIGKILL,
respawn, WAL replay, entity-registry replay, re-admission — and
*idempotent* commands (scans, routed queries, estimates, stats, metrics,
heartbeats, maintenance) are re-issued to the recovered worker under bounded
exponential backoff with jitter (:mod:`repro.core.retry`).  The
non-idempotent ingest commit never retries: it fails fast with a
:class:`ShardCommitError` reporting exactly which shards acked, and the
global watermark stays below the batch so no reader ever sees the
partial commit.  When a shard stays unavailable after retries, the
configured :data:`ShardReadPolicy` decides: ``fail_fast`` raises,
``degraded`` returns the surviving shards' watermark-capped rows with a
:class:`ScanCompleteness` annotation (missing shard ids, estimated
missed rows) that flows into ``ResultSet.meta`` and EXPLAIN reports.

Durability: with ``data_dir`` set each worker owns ``shard-<i>/`` (its
own WAL, snapshot and cold segments) and replays it on startup; the
coordinator merges the per-shard hellos — entity records union to the
longest global observation-order prefix (every entity is broadcast to
every shard, so each shard's durable entity set is a prefix), event-id
and per-agent seq counters take the max, counts sum — and fast-forwards
the shared ingestor so the stream continues exactly where the newest
durable commit left it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.result import ResultSet
from repro.engine.scheduler import SchedulerStats
from repro.lang.context import QueryContext
from repro.model.entities import Entity
from repro.model.events import SystemEvent
from repro.obs import REGISTRY, active_trace, trace_span
from repro.shard.chaos import FaultPlan, plan_from_env
from repro.shard.supervisor import ShardSupervisor
from repro.shard.wire import decode_events, decode_result, payload_nbytes
from repro.shard.worker import ShardSpec, shard_worker_main
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.codec import encode_block
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import (
    PartitionKey,
    PartitionScheme,
    owner_shards,
    route,
)
from repro.storage.persist import entity_record, rebuild_entity
from repro.tier.recovery import RecoveryReport
from repro.tier.store import CompactionReport

# Scatter-scan read behaviour when a shard stays unavailable after the
# retry budget: fail the query, or answer from the survivors annotated.
ShardReadPolicy = ("fail_fast", "degraded")


class ShardError(RuntimeError):
    """A worker failed executing a command (carries its traceback)."""


class ShardTimeout(ShardError):
    """A worker blew its command deadline and could not be recovered."""


class ShardCommitError(ShardError):
    """A non-idempotent ingest commit failed on some shards.

    ``acked_shards`` committed (and WAL-logged, when durable) their
    slices; ``failed_shards`` did not acknowledge.  The coordinator's
    watermark was *not* raised, so no scatter scan observes the partial
    batch — the caller decides whether to re-submit once the deployment
    heals.
    """

    def __init__(
        self,
        message: str,
        acked_shards: Sequence[int] = (),
        failed_shards: Sequence[int] = (),
    ) -> None:
        super().__init__(message)
        self.acked_shards = tuple(acked_shards)
        self.failed_shards = tuple(failed_shards)


@dataclass(frozen=True)
class ScanCompleteness:
    """How partial a degraded scatter scan's answer is.

    ``total_shards`` counts the scan's *owner* shards — the ones that can
    hold a matching row (:func:`owner_shards`) and were therefore asked.
    ``missing_shards`` are the owners that did not answer this round
    (unavailable after the retry budget); ``lossy_shards`` answered but
    previously lost state to a non-durable restart.
    ``estimated_missed_rows`` combines both:
    the acked-routing count of each missing shard plus the recovery
    shortfall of each lossy one — an upper bound on committed rows this
    result cannot contain.
    """

    missing_shards: Tuple[int, ...]
    lossy_shards: Tuple[int, ...]
    estimated_missed_rows: int
    total_shards: int
    watermark: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "missing_shards": list(self.missing_shards),
            "lossy_shards": list(self.lossy_shards),
            "estimated_missed_rows": self.estimated_missed_rows,
            "total_shards": self.total_shards,
            "watermark": self.watermark,
        }


_M_SHARD_SCANS = REGISTRY.counter(
    "aiql_shard_scatter_scans_total",
    "Scatter scan rounds issued (each to the filter's owner shards)",
)
_M_SHARD_BYTES = REGISTRY.counter(
    "aiql_shard_gather_bytes_total",
    "Serialized column bytes gathered from a shard",
    labelnames=("shard",),
)
_M_SHARD_ROWS = REGISTRY.counter(
    "aiql_shard_gather_rows_total",
    "Survivor rows gathered from a shard",
    labelnames=("shard",),
)
_M_SHARD_RTT = REGISTRY.histogram(
    "aiql_shard_gather_seconds",
    "Per-shard scatter-to-reply round-trip time",
    labelnames=("shard",),
)
_M_SHARD_ROUTED = REGISTRY.counter(
    "aiql_shard_events_routed_total",
    "Ingested events routed to a shard",
    labelnames=("shard",),
)
_M_DEGRADED_SCANS = REGISTRY.counter(
    "aiql_shard_degraded_scans_total",
    "Scatter scans answered without every shard",
)
_M_ROUTED_QUERIES = REGISTRY.counter(
    "aiql_shard_routed_queries_total",
    "Single-owner queries answered whole by their owner shard",
    labelnames=("shard",),
)

# Idempotent commands may be re-issued to a recovered worker; everything
# else fails fast (the ingest "batch" command is the only member today).
_IDEMPOTENT = frozenset(
    {
        "scan",
        "query",
        "full_scan",
        "estimate",
        "time_range",
        "stats",
        "metrics",
        "ping",
        "entities",
        "compact",
        "checkpoint",
    }
)


class ShardedStore:
    """Store facade over N shard worker processes.

    Thread safety: one lock serializes whole scatter/gather rounds (a
    pipe is a byte stream — interleaved requests would mismatch
    replies), so concurrent query-service scans, a streaming writer and
    the supervisor's heartbeat sweep coexist; parallelism comes from the
    workers computing concurrently *within* a round, which is the point
    of sharding.
    """

    def __init__(self, ingestor: Ingestor, config) -> None:
        if config.shards < 1:
            raise ValueError("ShardedStore needs config.shards >= 1")
        self.ingestor = ingestor
        self.registry = ingestor.registry
        self.config = config
        self.scheme = PartitionScheme(agents_per_group=config.agents_per_group)
        self.shards = config.shards
        self.durable = config.data_dir is not None
        self.recovery: Optional[RecoveryReport] = None
        self.command_timeout_s = config.shard_command_timeout_s
        self.scan_timeout_s = config.shard_scan_timeout_s
        self.read_policy = config.shard_read_policy
        self._lock = threading.RLock()
        self._pending_entities: List[dict] = []
        self._event_count = 0
        self._committed = 0
        self._closed = False
        self._conns: List[Optional[object]] = [None] * self.shards
        self._procs: List[Optional[object]] = [None] * self.shards
        self.leaked_workers = 0
        # Coordinator-side scatter/gather accounting, one slot per shard:
        # what crossed the pipes (bytes/rows gathered, cumulative recv
        # wait) and what was routed in — the skew view stats() reports.
        self._scan_rounds = 0
        self._shard_bytes = [0] * self.shards
        self._shard_rows = [0] * self.shards
        self._shard_recv_s = [0.0] * self.shards
        self._shard_routed = [0] * self.shards
        self._shard_acked = [0] * self.shards
        # Degraded-read bookkeeping: every partial answer appends one
        # completeness record; query layers snapshot the sequence number
        # around an execution and merge what landed in between into
        # ResultSet.meta / EXPLAIN reports.
        # Torn-commit exclusion: event ids of slices some shards *did*
        # acknowledge inside a batch whose commit ultimately failed.
        # The watermark alone cannot hide them forever (a later
        # successful commit raises it past the orphaned ids), so every
        # scan ships this set and workers drop the ids at encode time —
        # an answered batch is all-or-nothing even after failed commits.
        self._torn: set = set()
        self._degraded_total = 0
        self._completeness_seq = 0
        self._completeness_log: Deque[Tuple[int, ScanCompleteness]] = deque(
            maxlen=256
        )
        chaos_spec = config.shard_chaos
        plan = (
            FaultPlan.from_spec(chaos_spec, self.shards)
            if chaos_spec
            else plan_from_env(self.shards)
        )
        self.fault_plan = plan
        self._ctx = multiprocessing.get_context("spawn")
        self._specs: List[ShardSpec] = []
        for index in range(self.shards):
            self._specs.append(
                ShardSpec(
                    index=index,
                    shards=self.shards,
                    agents_per_group=config.agents_per_group,
                    scan_cache=config.scan_cache,
                    scan_cache_entries=config.scan_cache_entries,
                    data_dir=(
                        f"{config.data_dir}/shard-{index:02d}"
                        if config.data_dir is not None
                        else None
                    ),
                    retention_days=config.retention_days,
                    compact_interval_s=config.compact_interval_s,
                    wal_sync=config.wal_sync,
                    cold_cache_segments=config.cold_cache_segments,
                    cold_scan_cache_entries=config.cold_scan_cache_entries,
                    metrics=getattr(config, "metrics", True),
                )
            )
            self._spawn_worker(index, faults=plan.for_shard(index))
        self._supervisor = ShardSupervisor(self, config)
        hellos = []
        for index in range(self.shards):
            status, payload = self._recv_reply(index, self.command_timeout_s)
            if status != "ok":
                self._abort_startup()
                raise ShardError(
                    f"shard {index} failed to start ({status}):\n{payload}"
                )
            hellos.append(payload)
        self._merge_hellos(hellos)
        self._supervisor.start()

    def _abort_startup(self) -> None:
        """Kill every spawned worker when construction itself fails."""
        for index in range(self.shards):
            conn, proc = self._conns[index], self._procs[index]
            if conn is not None:
                conn.close()
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join(timeout=5)

    def _spawn_worker(self, index: int, faults=()) -> None:
        """Start (or restart) shard ``index``'s process from its spec."""
        spec = replace(self._specs[index], faults=tuple(faults))
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, spec),
            daemon=True,
            name=f"aiql-shard-{index}",
        )
        proc.start()
        child_conn.close()
        self._conns[index] = parent_conn
        self._procs[index] = proc

    # -- startup / recovery merge -----------------------------------------

    def _merge_hellos(self, hellos: Sequence[dict]) -> None:
        records: Dict[int, dict] = {}
        for hello in hellos:
            for record in hello["entities"]:
                records.setdefault(record["id"], record)
        for entity_id in sorted(records):
            # Union of per-shard prefixes of the global observation order
            # = the longest prefix: ids re-intern contiguously, and the
            # id check inside rebuild_entity enforces it.
            self.ingestor.observe(rebuild_entity(self.registry, records[entity_id]))
        self._event_count = sum(h["events"] for h in hellos)
        for shard, hello in enumerate(hellos):
            self._shard_acked[shard] = hello["events"]
        next_event_id = max(h["next_event_id"] for h in hellos)
        if self._event_count or next_event_id > 1:
            seqs: Dict[int, int] = {}
            for hello in hellos:
                for agent_id, seq in hello["seqs"].items():
                    if seq > seqs.get(agent_id, 0):
                        seqs[agent_id] = seq
            self.ingestor.resume(
                next_event_id=next_event_id,
                seqs=seqs,
                events_ingested=self._event_count,
            )
            self._committed = next_event_id - 1
        reports = [h["report"] for h in hellos if h["report"] is not None]
        if reports:
            self.recovery = RecoveryReport(
                snapshot_events=sum(r.snapshot_events for r in reports),
                wal_events_replayed=sum(r.wal_events_replayed for r in reports),
                cold_events=sum(r.cold_events for r in reports),
                duplicates_reconciled=sum(
                    r.duplicates_reconciled for r in reports
                ),
                next_event_id=next_event_id,
            )

    # -- RPC plumbing ------------------------------------------------------

    def _send(self, shard: int, message: tuple) -> bool:
        """Best-effort send; ``False`` when the pipe is gone."""
        conn = self._conns[shard]
        if conn is None:
            return False
        try:
            conn.send(message)
        except (OSError, BrokenPipeError, ValueError):
            return False
        return True

    def _recv_reply(
        self, shard: int, timeout_s: Optional[float]
    ) -> Tuple[str, object]:
        """One deadline-bounded reply: ``(status, payload)``.

        Status is ``"ok"``/``"err"`` (the worker answered), ``"timeout"``
        (deadline blew — the pipe may still carry a late reply and must
        not be reused before a recovery), or ``"dead"`` (pipe closed).
        Never blocks past ``timeout_s``; ``None`` waits forever (the
        pre-deadline behaviour).
        """
        conn = self._conns[shard]
        if conn is None:
            return "dead", f"shard {shard} is quarantined"
        try:
            if timeout_s is not None and not conn.poll(timeout_s):
                self._supervisor.note_timeout(shard)
                return "timeout", f"shard {shard} blew {timeout_s:g}s deadline"
            status, payload = conn.recv()
        except (EOFError, OSError):
            return "dead", f"shard {shard} died mid-command"
        return status, payload

    def _request(
        self, shard: int, message: tuple, timeout_s: Optional[float]
    ) -> Tuple[str, object]:
        """Send one command and wait (bounded) for its reply."""
        if not self._send(shard, message):
            return "dead", f"shard {shard} pipe closed"
        return self._recv_reply(shard, timeout_s)

    def _scatter_round(
        self,
        message: tuple,
        targets: Sequence[int],
        timeout_s: Optional[float],
        timings: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, object], Dict[int, str]]:
        """One scatter + bounded gather + supervised heal/retry round.

        Scatters ``message`` to ``targets``, drains one reply per target
        against a *shared* deadline (so the drain-on-error path can
        never block unboundedly on a dead straggler), hands every
        timed-out/dead shard to the supervisor, and — for idempotent
        commands — re-issues the command to the recovered worker under
        the bounded backoff policy.  Returns ``(payloads, failures)``
        keyed by shard; worker-*reported* command errors (``"err"``
        replies: the worker is alive and the pipe is in sync — nothing
        to recover) are raised as :class:`ShardError` after the drain.

        Caller must hold the coordinator lock.
        """
        command = message[0]
        retriable = command in _IDEMPOTENT
        payloads: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        errors: Dict[int, str] = {}
        sent: List[int] = []
        for shard in targets:
            if self._send(shard, message):
                sent.append(shard)
            else:
                failures[shard] = "dead"
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        for shard in sent:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            started = time.perf_counter()
            status, payload = self._recv_reply(shard, remaining)
            if timings is not None:
                timings[shard] = (
                    timings.get(shard, 0.0) + time.perf_counter() - started
                )
            if status == "ok":
                payloads[shard] = payload
            elif status == "err":
                errors[shard] = payload
            else:
                failures[shard] = status

        # Supervised heal: every timed-out/dead shard is recovered (the
        # pipe is desynchronized either way); idempotent commands then
        # retry against the fresh worker with backoff between attempts.
        if failures:
            delays = [0.0, *self._supervisor.retry_policy.delays()]
            for shard in list(failures):
                reason = f"{message[0]}: {failures[shard]}"
                for delay in delays:
                    if delay > 0:
                        time.sleep(delay)
                    if not self._supervisor.recover(shard, reason):
                        break
                    if not retriable:
                        # Healed for future commands; the failed command
                        # itself fails fast (non-idempotent).
                        break
                    self._supervisor.note_retry(shard)
                    started = time.perf_counter()
                    status, payload = self._request(shard, message, timeout_s)
                    if timings is not None:
                        timings[shard] = (
                            timings.get(shard, 0.0)
                            + time.perf_counter()
                            - started
                        )
                    if status == "ok":
                        payloads[shard] = payload
                        del failures[shard]
                        break
                    if status == "err":
                        errors[shard] = payload
                        del failures[shard]
                        break
                    reason = f"{message[0]} retry: {status}"
        if errors:
            raise ShardError(
                "\n".join(
                    f"shard {shard} failed:\n{tb}"
                    for shard, tb in sorted(errors.items())
                )
            )
        return payloads, failures

    def _available_targets(self) -> Tuple[List[int], List[int]]:
        """(serving shards, quarantined/failed shards)."""
        serving, missing = [], []
        for shard in range(self.shards):
            (serving if self._supervisor.available(shard) else missing).append(
                shard
            )
        return serving, missing

    def _scatter(
        self,
        message: tuple,
        timeout_s: Optional[float] = None,
        tolerate_missing: bool = False,
    ) -> Dict[int, object]:
        """Send one command to all serving shards, gather replies.

        With ``tolerate_missing`` (or the ``degraded`` read policy),
        unavailable shards are simply absent from the returned dict;
        otherwise any missing shard raises.
        """
        timeout_s = self.command_timeout_s if timeout_s is None else timeout_s
        with self._lock:
            self._flush_entities_locked()
            serving, unavailable = self._available_targets()
            payloads, failures = self._scatter_round(
                message, serving, timeout_s
            )
        missing = sorted(set(unavailable) | set(failures))
        if missing and not (
            tolerate_missing or self.read_policy == "degraded"
        ):
            raise ShardTimeout(
                f"{message[0]}: shard(s) {missing} unavailable after "
                f"supervised recovery"
            )
        return payloads

    def _flush_entities_locked(self) -> None:
        if self._pending_entities:
            records, self._pending_entities = self._pending_entities, []
            serving, _ = self._available_targets()
            # Idempotent broadcast: a shard that misses it because it was
            # down gets the full registry replayed at re-admission.
            self._scatter_round(
                ("entities", records), serving, self.command_timeout_s
            )

    def shard_of(self, key: PartitionKey) -> int:
        """Stable partition-key routing (:func:`route`)."""
        return route(key, self.shards)

    # -- ingest ------------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Queue an entity broadcast; flushed before the next command.

        Every shard receives every entity (the registry is tiny next to
        the event stream), which keeps worker registries id-identical to
        the coordinator's and makes each shard's durable entity set a
        prefix of the global observation order — what recovery's merge
        relies on.
        """
        with self._lock:
            self._pending_entities.append(entity_record(entity))

    def add_event(self, event: SystemEvent) -> None:
        self.add_block(ColumnBlock.from_events((event,)))

    def add_block(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Tuple[PartitionKey, ...]:
        """Route rows ``positions`` of ``block`` (default: all; ascending)
        to their shards as one committed batch; atomic to scatter scans.

        The shard split is computed from the start-time column and the
        agent dictionary; each shard's slice is cut from the columns and
        ships as one block frame (:func:`~repro.storage.codec.
        encode_block`), which the worker decodes and commits as a block —
        no row tuple crosses the pipe and no row object is built on
        either side.

        The global watermark is raised only after every involved shard
        acknowledged (and therefore published) its slice, so a scatter
        scan issued concurrently carries a watermark below this batch and
        filters it out on every shard — never a torn read.

        Fail-fast (non-idempotent): a shard that dies or blows its
        deadline mid-commit raises :class:`ShardCommitError` naming the
        shards that did ack; the watermark is *not* raised, so the
        partial batch stays invisible to every reader.  The supervisor
        still heals the failed worker so the stream can resume.
        """
        split = self.scheme.split(block, positions)
        if not split:
            return ()
        rows_by_shard: Dict[int, List[int]] = {}
        for key, rows in split.items():
            rows_by_shard.setdefault(self.shard_of(key), []).extend(rows)
        by_shard: Dict[int, ColumnBlock] = {}
        for shard, rows in rows_by_shard.items():
            rows.sort()  # several partitions of one shard: back to batch order
            by_shard[shard] = ColumnBlock()
            by_shard[shard].extend_rows(block, rows)
        with self._lock:
            self._flush_entities_locked()
            unavailable = [
                shard
                for shard in by_shard
                if not self._supervisor.available(shard)
            ]
            if unavailable:
                # Refuse before any slice ships: no shard commits rows
                # the watermark would have to hide.
                raise ShardCommitError(
                    f"commit refused: shard(s) {sorted(unavailable)} "
                    f"unavailable",
                    acked_shards=(),
                    failed_shards=sorted(unavailable),
                )
            for shard, chunk in by_shard.items():
                self._shard_routed[shard] += len(chunk)
            if REGISTRY.enabled:
                for shard, chunk in by_shard.items():
                    _M_SHARD_ROUTED.inc(len(chunk), shard=str(shard))
            messages = {
                shard: ("batch", encode_block(chunk))
                for shard, chunk in by_shard.items()
            }
            payloads: Dict[int, object] = {}
            failures: Dict[int, str] = {}
            for shard, message in messages.items():
                if not self._send(shard, message):
                    failures[shard] = "dead"
                else:
                    payloads[shard] = None
            deadline = (
                None
                if self.command_timeout_s is None
                else time.monotonic() + self.command_timeout_s
            )
            for shard in list(payloads):
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                status, payload = self._recv_reply(shard, remaining)
                if status == "ok":
                    payloads[shard] = payload
                else:
                    del payloads[shard]
                    failures[shard] = (
                        payload if status == "err" else status
                    )
            if failures:
                # The batch is now partial: the slices acked shards hold
                # must never surface (a later commit raises the watermark
                # past them), so quarantine their ids from every scan.
                for shard in payloads:
                    self._torn.update(by_shard[shard].event_ids)
                    self._shard_acked[shard] += len(by_shard[shard])
                # Heal the dead/wedged workers (not worker-reported
                # errors: those pipes are still in sync), then fail fast.
                for shard, reason in failures.items():
                    if reason in ("dead", "timeout"):
                        self._supervisor.recover(
                            shard, f"batch commit: {reason}"
                        )
                raise ShardCommitError(
                    f"batch commit failed on shard(s) "
                    f"{sorted(failures)}: "
                    + "; ".join(
                        f"shard {s}: {r}" for s, r in sorted(failures.items())
                    ),
                    acked_shards=sorted(payloads),
                    failed_shards=sorted(failures),
                )
            for shard, chunk in by_shard.items():
                self._shard_acked[shard] += len(chunk)
            self._event_count += sum(len(chunk) for chunk in by_shard.values())
            top = block.top_event_id(positions)
            if top > self._committed:
                self._committed = top
        return tuple(split)

    # The name Ingestor.commit_block calls; benchmarks/e2e/layers.py times
    # the scatter-route and acks through it.
    add_batch = add_block

    # -- queries -----------------------------------------------------------

    def _completeness_for(
        self,
        missing: Sequence[int],
        answered: Sequence[int],
        watermark: int,
        owners: int,
    ) -> Optional[ScanCompleteness]:
        """Annotation for a scan round over ``owners`` shards, ``None``
        when it was complete.

        Missing shards contribute their acked routing count (all their
        committed rows are absent); answering shards that lost state to
        a non-durable restart contribute their recovery shortfall.
        """
        health = self._supervisor.health
        lossy = [s for s in answered if health[s].lost_events]
        if not missing and not lossy:
            return None
        estimated = sum(
            max(0, self._shard_acked[s] - health[s].lost_events)
            for s in missing
        )
        estimated += sum(health[s].lost_events for s in lossy)
        return ScanCompleteness(
            missing_shards=tuple(sorted(missing)),
            lossy_shards=tuple(sorted(lossy)),
            estimated_missed_rows=estimated,
            total_shards=owners,
            watermark=watermark,
        )

    def _note_degraded(self, completeness: ScanCompleteness) -> None:
        self._completeness_seq += 1
        self._completeness_log.append((self._completeness_seq, completeness))
        if completeness.missing_shards:
            self._degraded_total += 1
            _M_DEGRADED_SCANS.inc()

    def completeness_mark(self) -> int:
        """Sequence mark for :meth:`completeness_since` (query layers)."""
        with self._lock:
            return self._completeness_seq

    def completeness_since(self, mark: int) -> Optional[Dict[str, object]]:
        """Merged completeness of scans recorded after ``mark``.

        ``None`` means every scan since the mark was complete.  Rows are
        estimated per shard at their maximum across the records, so a
        multi-scan query does not double-count one shard's absence.
        """
        with self._lock:
            records = [c for seq, c in self._completeness_log if seq > mark]
        if not records:
            return None
        missing = sorted({s for r in records for s in r.missing_shards})
        lossy = sorted({s for r in records for s in r.lossy_shards})
        estimated = max(r.estimated_missed_rows for r in records)
        return {
            "degraded": bool(missing),
            "missing_shards": missing,
            "lossy_shards": lossy,
            "estimated_missed_rows": estimated,
            "total_shards": self.shards,
            "scans_affected": len(records),
        }

    def route(self, ctx: QueryContext) -> Optional[int]:
        """The one shard that owns every pattern's filter, or ``None``.

        Sound because the scheduler's constrained re-queries only narrow a
        pattern's filter (id sets, IN lists, intersected windows), so the
        owners of every scan the query can issue are a subset of its
        patterns' owners; and every entity is broadcast to every shard, so
        return-clause attributes resolve on the owner as they do here.
        """
        owners: Set[int] = set()
        for pattern in ctx.patterns:
            owners |= owner_shards(pattern.filter, self.scheme, self.shards)
            if len(owners) > 1:
                return None
        return next(iter(owners), None)

    def run_routed(
        self, shard: int, key: str, scheduling: str, parallel: bool
    ) -> Optional[Tuple[ResultSet, SchedulerStats]]:
        """Run a query whole on its owner ``shard`` (see :meth:`route`).

        One idempotent ``query`` command ships the canonical text ``key``
        (the worker's plan cache compiles it once) with this query's
        watermark and torn set, which cap every scan the worker runs as
        they cap a scatter reply.  It goes through :meth:`_scatter_round`,
        so a dead or wedged owner is healed and the command re-issued.
        ``None`` — the owner is unavailable before or after the retries,
        or its execution raised — sends the caller to the scatter path,
        which raises, degrades or reports the error exactly as before.  An
        owner that lost events to a RAM-only restart leaves one
        completeness record per scan it ran, as its scatter scans would.
        """
        with trace_span("route", shard=shard) as span:
            with self._lock:
                self._flush_entities_locked()
                reply = None
                if self._supervisor.available(shard):
                    watermark = self._committed
                    message = (
                        "query",
                        key,
                        scheduling,
                        parallel,
                        watermark,
                        frozenset(self._torn) if self._torn else None,
                    )
                    payloads, _ = self._scatter_round(
                        message, (shard,), self.scan_timeout_s
                    )
                    reply = payloads.get(shard)
                if reply is None:
                    if span is not None:
                        span.annotate(fallback=True)
                    return None
                columns, rows, meta, stats, scans = reply
                completeness = self._completeness_for(
                    (), (shard,), watermark, 1
                )
                if completeness is not None:
                    for _ in range(scans):
                        self._note_degraded(completeness)
            _M_ROUTED_QUERIES.inc(shard=str(shard))
            if span is not None:
                span.annotate(
                    data_queries=stats.data_queries_executed,
                    events_fetched=stats.events_fetched,
                )
        return ResultSet(columns=columns, rows=rows, meta=meta), stats

    def scan_columns(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> BlockScanResult:
        """Scatter the filter to its owner shards, gather their column
        slices.

        Only the shards that can hold a matching row are asked
        (:func:`owner_shards`: every shard unless the filter names its
        agents and bounds its window), and only an owner's absence fails
        or degrades the scan.  Every asked shard prunes/scans locally
        (compiled kernels, partition
        pruning, scan cache, cold tier) and replies with its survivors as
        one serialized block slice in (start_time, event_id) order,
        capped at this scan's committed watermark; parts from different
        shards are disjoint by construction, so no cross-shard dedup is
        needed.

        Fault behaviour: a shard that misses its deadline or dies is
        recovered and the scan re-issued (idempotent) under bounded
        backoff.  If it stays unavailable, ``fail_fast`` raises and
        ``degraded`` returns the survivors' rows with
        ``result.completeness`` set — still watermark-capped, so the
        partial answer is a consistent prefix of the committed stream on
        every shard that did answer.
        """
        trace = active_trace()
        observing = REGISTRY.enabled or trace is not None
        timings: Optional[Dict[int, float]] = {} if observing else None
        owners = owner_shards(flt, self.scheme, self.shards)
        with self._lock:
            self._flush_entities_locked()
            serving, unavailable = (
                [shard for shard in shards if shard in owners]
                for shards in self._available_targets()
            )
            if unavailable and self.read_policy != "degraded":
                raise ShardError(
                    f"scan: shard(s) {sorted(unavailable)} unavailable "
                    f"(read policy fail_fast)"
                )
            watermark = self._committed
            message = (
                "scan",
                flt,
                watermark,
                parallel,
                use_entity_index,
                frozenset(self._torn) if self._torn else None,
            )
            payloads, failures = self._scatter_round(
                message, serving, self.scan_timeout_s, timings=timings
            )
            missing = sorted(set(unavailable) | set(failures))
            if missing and self.read_policy != "degraded":
                raise ShardTimeout(
                    f"scan: shard(s) {missing} unavailable after supervised "
                    f"recovery (read policy fail_fast)"
                )
            completeness = self._completeness_for(
                missing, sorted(payloads), watermark, len(owners)
            )
            if completeness is not None:
                self._note_degraded(completeness)
            if observing:
                self._scan_rounds += 1
                for shard, payload in payloads.items():
                    self._shard_bytes[shard] += payload_nbytes(payload)
                    self._shard_rows[shard] += payload["n"]
                    self._shard_recv_s[shard] += (timings or {}).get(
                        shard, 0.0
                    )
        if observing:
            total_bytes = sum(payload_nbytes(p) for p in payloads.values())
            total_rows = sum(p["n"] for p in payloads.values())
            if REGISTRY.enabled:
                _M_SHARD_SCANS.inc()
                for shard, payload in payloads.items():
                    label = str(shard)
                    _M_SHARD_BYTES.inc(payload_nbytes(payload), shard=label)
                    _M_SHARD_ROWS.inc(payload["n"], shard=label)
                    _M_SHARD_RTT.observe(
                        (timings or {}).get(shard, 0.0), shard=label
                    )
            if trace is not None:
                span = trace.current
                span.add("shards_scattered", len(payloads))
                span.add("shard_bytes_gathered", total_bytes)
                span.add("shard_rows_gathered", total_rows)
                if completeness is not None:
                    span.add(
                        "shards_missing", list(completeness.missing_shards)
                    )
                    span.add(
                        "estimated_missed_rows",
                        completeness.estimated_missed_rows,
                    )
        parts = [
            decode_result(payloads[shard]) for shard in sorted(payloads)
        ]
        result = BlockScanResult([s for s in parts if s is not None])
        result.completeness = completeness
        return result

    def scan(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.scan_columns(flt, parallel, use_entity_index).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        """Pruning- and index-free scatter scan (the soundness oracle)."""
        payloads = self._scatter(("full_scan", flt), self.scan_timeout_s)
        torn = self._torn
        merged: List[SystemEvent] = []
        for shard in sorted(payloads):
            merged.extend(
                e
                for e in decode_events(payloads[shard])
                if e.event_id not in torn
            )
        merged.sort(key=lambda e: (e.start_time, e.event_id))
        return merged

    def estimated_events(self, flt: EventFilter) -> int:
        return sum(self._scatter(("estimate", flt)).values())

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        ranges = self._scatter(("time_range",)).values()
        mins = [lo for lo, _ in ranges if lo is not None]
        maxs = [hi for _, hi in ranges if hi is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    # -- maintenance -------------------------------------------------------

    def compact(self, retention_days: Optional[int] = None) -> CompactionReport:
        """One synchronous compaction pass on every shard; merged report."""
        reports = self._scatter(
            ("compact", retention_days), self.scan_timeout_s
        )
        merged = CompactionReport()
        partitions: List[PartitionKey] = []
        for shard in sorted(reports):
            report = reports[shard]
            merged.events_migrated += report.events_migrated
            merged.segments_written += report.segments_written
            merged.cold_bytes += report.cold_bytes
            partitions.extend(report.partitions)
            if report.cutoff_day is not None:
                merged.cutoff_day = (
                    report.cutoff_day
                    if merged.cutoff_day is None
                    else max(merged.cutoff_day, report.cutoff_day)
                )
        merged.partitions = tuple(partitions)
        return merged

    def checkpoint(self) -> int:
        """Snapshot + WAL-truncate every shard; returns hot events written."""
        return sum(
            self._scatter(("checkpoint",), self.scan_timeout_s).values()
        )

    def close(self) -> None:
        """Stop and join every worker (idempotent).

        Shutdown escalates: a polite ``stop`` command with a bounded
        wait, then ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL)
        when the post-terminate join also times out.  A worker that
        survives all three is counted in ``leaked_workers`` (and the
        ``shard_health`` stats) instead of silently surviving the
        deployment.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._supervisor.stop()
            for shard in range(self.shards):
                if self._send(shard, ("stop",)):
                    self._recv_reply(shard, self.command_timeout_s)
        leaked = 0
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - ignores SIGTERM
                proc.kill()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - unkillable
                leaked += 1
        self.leaked_workers += leaked
        self._supervisor.leaked_workers += leaked
        for conn in self._conns:
            if conn is not None:
                conn.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._event_count

    def __iter__(self) -> Iterator[SystemEvent]:
        """All committed events, in (start_time, event_id) order."""
        return iter(self.scan_columns(EventFilter()).events())

    @property
    def supervisor(self) -> ShardSupervisor:
        return self._supervisor

    def metrics(self) -> List[dict]:
        """Per-worker metrics registry snapshots, one dict per shard.

        Registries are process-local, so the coordinator's own registry
        never sees a worker-side scan/cache/kernel counter; this pulls
        each worker's snapshot over the pipe (the ``metrics`` command).
        Unavailable shards report an ``{"unavailable": True}`` stub.
        """
        payloads = self._scatter(("metrics",), tolerate_missing=True)
        return [
            payloads.get(shard, {"unavailable": True})
            for shard in range(self.shards)
        ]

    def stats(self) -> Dict[str, object]:
        """Merged deployment view plus the per-shard detail behind it.

        ``per_shard`` keeps each worker's full stats dict (enriched with
        the coordinator-side ``scatter_gather`` accounting for that
        shard), ``scatter_gather`` is the merged roll-up — so skew
        (events per shard, bytes gathered per shard, straggler recv
        waits) survives the merge instead of being summed away; its
        ``routed_queries`` is a view of the process-wide
        ``aiql_shard_routed_queries_total`` counter — and
        ``shard_health`` is the supervisor's view (restarts, timeouts,
        retries, quarantines, lost-event estimates, leaked workers).
        Introspection never raises on a degraded deployment: an
        unavailable shard's stats are an ``{"unavailable": True}`` stub.
        """
        health = self._supervisor.summary()
        if self._closed:
            return {
                "events": self._event_count,
                "entities": len(self.registry),
                "shards": self.shards,
                "closed": True,
                "shard_health": health,
            }
        payloads = self._scatter(("stats",), tolerate_missing=True)
        worker_stats = [
            payloads.get(shard, {"unavailable": True})
            for shard in range(self.shards)
        ]
        with self._lock:
            rounds = self._scan_rounds
            gather = [
                {
                    "shard": shard,
                    "events_routed": self._shard_routed[shard],
                    "events_acked": self._shard_acked[shard],
                    "bytes_gathered": self._shard_bytes[shard],
                    "rows_gathered": self._shard_rows[shard],
                    "recv_seconds": self._shard_recv_s[shard],
                    "routed_queries": int(
                        _M_ROUTED_QUERIES.value(shard=str(shard))
                    ),
                }
                for shard in range(self.shards)
            ]
        per_shard: List[Dict[str, object]] = []
        for shard, stats in enumerate(worker_stats):
            entry = dict(stats)
            entry["shard"] = shard
            entry["scatter_gather"] = gather[shard]
            per_shard.append(entry)
        return {
            "events": self._event_count,
            "entities": len(self.registry),
            "shards": self.shards,
            "partitions": sum(s.get("partitions", 0) for s in worker_stats),
            "shard_events": [s.get("events", 0) for s in worker_stats],
            "per_shard": per_shard,
            "shard_health": health,
            "scatter_gather": {
                "scan_rounds": rounds,
                "events_routed": sum(g["events_routed"] for g in gather),
                "bytes_gathered": sum(g["bytes_gathered"] for g in gather),
                "rows_gathered": sum(g["rows_gathered"] for g in gather),
                "recv_seconds": sum(g["recv_seconds"] for g in gather),
                "routed_queries": sum(g["routed_queries"] for g in gather),
            },
        }
