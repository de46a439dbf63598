"""Sharded deployment coordinator: scatter/gather over worker processes.

:class:`ShardedStore` partitions the store horizontally by the same
``(day, agent-group)`` key the partitioned store and the cold tier
already use, across N ``spawn``-started worker processes
(:mod:`repro.shard.worker`).  It exposes the common store surface
(``register_entity`` / ``add_block`` / ``scan_columns`` /
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
``scan`` (one scatter scan), ``query`` (one routed query), ``estimate``,
``time_range``, ``compact``, ``checkpoint``, ``stats``, ``metrics``,
``ping`` and ``stop``.

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

Concurrency: every shard has its own channel
(:class:`repro.shard.channel.Channel`), which owns the pipe protocol:
requests from any number of threads pipeline on a shard's pipe, and a
FIFO of waiters matches each reply to its request.  A worker's hello is
its channel's first reply.  No lock is held while a thread waits on a
pipe, except a shard's channel lock across that shard's recovery; the
coordinator state is held only for short snapshots, and commits are
serialized whole so the watermark never passes a batch some shard has
not acked.

Fault tolerance: every coordinator↔worker command waits under
a deadline (``SystemConfig(shard_command_timeout_s,
shard_scan_timeout_s)``) that the channel runs from the head of its
queue, instead of blocking on ``recv()``; a hello waits under the longer
of the two.  A dead pipe or blown deadline hands the shard to the
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
from repro.obs import REGISTRY, active_trace, trace_span
from repro.shard.channel import Channel, Waiter
from repro.shard.chaos import FaultPlan, plan_from_env
from repro.shard.supervisor import ShardSupervisor
from repro.shard.wire import decode_result, payload_nbytes
from repro.shard.worker import ShardSpec, shard_worker_main
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.codec import encode_block
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.kernels import ScanKernel
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

    Thread safety: each shard has its own channel
    (:class:`~repro.shard.channel.Channel`), so
    concurrent query-service scans, routed queries, a streaming writer and
    the supervisor's heartbeat sweep pipeline their requests on the pipes
    instead of taking turns.  Three kinds of lock, none held while a
    thread waits on a pipe except where noted:

    * a channel lock per shard orders sends on its pipe and is held across
      a recovery of that shard (:meth:`_heal`), so a thread that finds the
      shard quarantined can wait the recovery out;
    * the state lock guards the watermark, the torn set, the counters and
      the pending entity list, for short snapshots only; the completeness
      log has its own small lock;
    * the commit lock serializes whole commits — send, every ack, then
      the watermark raise — so commits reach every shard in one order and
      the watermark never passes a batch not yet acked.
    """

    # Shards hold the entity indexes; the scheduler's cardinality model
    # estimates through ``estimated_events``.
    entity_index = None

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
        # A hello follows the spawn, the imports and a durable shard's
        # replay, so it waits under the longer deadline.
        timeouts = (self.command_timeout_s, self.scan_timeout_s)
        self.hello_timeout_s = None if None in timeouts else max(timeouts)
        self.read_policy = config.shard_read_policy
        self._state_lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._completeness_lock = threading.Lock()
        self._channel_locks = [threading.Lock() for _ in range(self.shards)]
        # Entity records registered since the last commit, which sends
        # them to every serving shard ahead of its slices.
        self._pending_entities: List[dict] = []
        self._event_count = 0
        self._committed = 0
        self._closed = False
        self._procs: List[Optional[object]] = [None] * self.shards
        self._channels: List[Optional[Channel]] = [None] * self.shards
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
        spawned = []
        for index in range(self.shards):
            self._specs.append(
                ShardSpec(
                    index=index,
                    shards=self.shards,
                    agents_per_group=config.agents_per_group,
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
            spawned.append(
                self._spawn_worker(index, faults=plan.for_shard(index))
            )
        self._supervisor = ShardSupervisor(self, config)
        hellos = []
        for index, (channel, hello) in enumerate(spawned):
            status, payload = self._wait(index, channel, hello)
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
            channel, proc = self._channels[index], self._procs[index]
            if channel is not None:
                channel.fail()
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join(timeout=5)

    def _spawn_worker(self, index: int, faults=()) -> Tuple[Channel, Waiter]:
        """Start (or restart) shard ``index``'s process from its spec.

        Returns the new channel and the waiter of the worker's hello, its
        first reply.
        """
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
        channel = Channel(index, parent_conn)
        hello = channel.push(self.hello_timeout_s)
        self._procs[index] = proc
        self._channels[index] = channel
        return channel, hello

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

    def _issue(
        self, shard: int, message: tuple, budget: Optional[float]
    ) -> Tuple[Optional[Channel], Optional[Waiter]]:
        """Send ``message`` to ``shard`` without waiting for the reply.

        Returns the channel used and the request's waiter (``None`` when
        the pipe is gone — the caller heals that channel).
        """
        with self._channel_locks[shard]:
            channel = self._channels[shard]
            if channel is None:
                return None, None
            return channel, channel.send(message, budget)

    def _wait(
        self,
        shard: int,
        channel: Optional[Channel],
        waiter: Optional[Waiter],
    ) -> Tuple[str, object]:
        """The reply to one :meth:`_issue`: ``(status, payload)``.

        Status is ``"ok"``/``"err"`` (the worker answered), ``"timeout"``
        (the request at the head of the shard's queue overran its budget —
        the worker may be wedged) or ``"dead"``.
        """
        if channel is None or waiter is None:
            return "dead", f"shard {shard} pipe closed"
        reply = channel.wait(waiter)
        if reply[0] == "timeout":
            self._supervisor.note_timeout(shard)
        return reply

    def _heal(
        self, shard: int, channel: Optional[Channel], reason: str
    ) -> bool:
        """Recover ``shard`` once for its failed ``channel``.

        Only the first thread to report a channel recovers it, under the
        shard's channel lock; the others wait that recovery out and find a
        newer channel.  ``True`` when the shard serves afterwards.
        """
        with self._channel_locks[shard]:
            if self._closed:
                return False
            if self._channels[shard] is channel:
                return self._supervisor.recover(shard, reason)
            return self._supervisor.available(shard)

    def _serving(self, shard: int) -> bool:
        """Whether ``shard`` serves, once any recovery in progress ends."""
        if self._supervisor.available(shard):
            return True
        with self._channel_locks[shard]:
            return self._supervisor.available(shard)

    def _scatter_round(
        self,
        message: tuple,
        targets: Sequence[int],
        timeout_s: Optional[float],
        timings: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, object], Dict[int, str]]:
        """One scatter + bounded gather + supervised heal/retry round.

        Sends ``message`` to every target before waiting for any reply;
        each request's ``timeout_s`` budget runs from when it reaches the
        head of its shard's queue (:class:`Channel`), so the round never
        blocks unboundedly on a wedged straggler.  Every timed-out/dead
        shard is healed once per failed channel (:meth:`_heal`), and
        idempotent commands are re-issued to the recovered worker under the
        bounded backoff policy.  Returns ``(payloads, failures)`` keyed by
        shard; worker-*reported* command errors (``"err"`` replies: the
        worker is alive and its pipe in sync — nothing to recover) are
        raised as :class:`ShardError` once every reply is in.
        """
        retriable = message[0] in _IDEMPOTENT
        payloads: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        failed_on: Dict[int, Optional[Channel]] = {}
        errors: Dict[int, str] = {}

        def gather(shard, channel, waiter) -> Optional[str]:
            """File one reply; its status when the worker did not answer."""
            started = time.perf_counter()
            status, payload = self._wait(shard, channel, waiter)
            if timings is not None:
                timings[shard] = (
                    timings.get(shard, 0.0) + time.perf_counter() - started
                )
            if status == "ok":
                payloads[shard] = payload
            elif status == "err":
                errors[shard] = payload
            else:
                return status
            return None

        calls = [
            (shard, *self._issue(shard, message, timeout_s))
            for shard in targets
        ]
        for shard, channel, waiter in calls:
            status = gather(shard, channel, waiter)
            if status is not None:
                failures[shard] = status
                failed_on[shard] = channel

        # Supervised heal: every timed-out/dead channel is recovered once;
        # idempotent commands then retry against the fresh worker with
        # backoff between attempts.
        if failures:
            delays = [0.0, *self._supervisor.retry_policy.delays()]
            for shard in list(failures):
                channel = failed_on[shard]
                reason = f"{message[0]}: {failures[shard]}"
                for delay in delays:
                    if delay > 0:
                        time.sleep(delay)
                    if not self._heal(shard, channel, reason):
                        break
                    if not retriable:
                        # Healed for future commands; the failed command
                        # itself fails fast (non-idempotent).
                        break
                    self._supervisor.note_retry(shard)
                    channel, waiter = self._issue(shard, message, timeout_s)
                    status = gather(shard, channel, waiter)
                    if status is None:
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
        serving = [s for s in range(self.shards) if self._serving(s)]
        payloads, failures = self._scatter_round(message, serving, timeout_s)
        missing = sorted(
            set(range(self.shards)).difference(serving) | set(failures)
        )
        if missing and not (
            tolerate_missing or self.read_policy == "degraded"
        ):
            raise ShardTimeout(
                f"{message[0]}: shard(s) {missing} unavailable after "
                f"supervised recovery"
            )
        return payloads

    def shard_of(self, key: PartitionKey) -> int:
        """Stable partition-key routing (:func:`route`)."""
        return route(key, self.shards)

    # -- ingest ------------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Queue an entity broadcast; the next commit sends it to every
        serving shard ahead of its slices.

        Every shard receives every entity (the registry is tiny next to
        the event stream), which keeps worker registries id-identical to
        the coordinator's and makes each shard's durable entity set a
        prefix of the global observation order — what recovery's merge
        relies on.  An entity is registered before any event that refers
        to it is committed, so no read needs it earlier; a shard that is
        out when a commit broadcasts gets the whole registry replayed when
        it respawns.
        """
        record = entity_record(entity)
        with self._state_lock:
            self._pending_entities.append(record)

    def _send_commit(
        self, records: List[dict], messages: Dict[int, tuple]
    ) -> Dict[int, Tuple[Optional[Channel], List[Optional[Waiter]]]]:
        """Send ``records`` to every serving shard, each target's ``batch``
        message right behind them with no wait in between.

        Per shard: the channel used and the waiters in send order — a
        ``None`` waiter (or channel) means the pipe was gone and nothing
        after it was sent.  A shard that is out is skipped unless it is a
        target: its respawn replays the registry, and a target's absence
        is the commit's failure.  The channel lock makes a send wait out a
        recovery in progress, so no record falls between a respawn's
        registry replay and this broadcast.
        """
        budget = self.command_timeout_s
        sent: Dict[int, Tuple[Optional[Channel], List[Optional[Waiter]]]] = {}
        for shard in range(self.shards):
            message = messages.get(shard)
            if message is None and not records:
                continue
            with self._channel_locks[shard]:
                channel = self._channels[shard]
                if message is None and not self._supervisor.available(shard):
                    continue
                waiters: List[Optional[Waiter]] = []
                if channel is not None:
                    if records:
                        waiters.append(
                            channel.send(("entities", records), budget)
                        )
                    if message is not None and None not in waiters:
                        waiters.append(channel.send(message, budget))
                sent[shard] = (channel, waiters or [None])
        return sent

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

        Commits are serialized whole (the commit lock): the entities
        registered since the last commit go to every serving shard, each
        target's slice right behind them with no wait in between, all
        before any ack is awaited (:meth:`_send_commit`); the global
        watermark is raised only after every involved shard acknowledged
        (and therefore published) its slice.  A scatter scan issued
        concurrently carries a watermark below this batch and filters it
        out on every shard — never a torn read.

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
        with self._commit_lock:
            unavailable = [
                shard for shard in by_shard if not self._serving(shard)
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
            with self._state_lock:
                for shard, chunk in by_shard.items():
                    self._shard_routed[shard] += len(chunk)
                records, self._pending_entities = self._pending_entities, []
            if REGISTRY.enabled:
                for shard, chunk in by_shard.items():
                    _M_SHARD_ROUTED.inc(len(chunk), shard=str(shard))
            messages = {
                shard: ("batch", encode_block(chunk))
                for shard, chunk in by_shard.items()
            }
            sent = self._send_commit(records, messages)
            committed: List[int] = []
            failures: Dict[int, str] = {}
            for shard, (channel, waiters) in sent.items():
                status, payload = "ok", None
                for waiter in waiters:
                    reply = self._wait(shard, channel, waiter)
                    if status == "ok":
                        status, payload = reply
                    if reply[0] in ("dead", "timeout"):
                        break
                if shard in by_shard and reply[0] == "ok":
                    committed.append(shard)  # the last reply: the batch's ack
                if status == "ok":
                    continue
                if status in ("dead", "timeout"):
                    # Heal the dead/wedged worker (not a worker-reported
                    # error: that pipe is still in sync); its respawn
                    # replays the whole registry, so a shard that only
                    # missed the entities leaves the commit whole.
                    self._heal(shard, channel, f"batch commit: {status}")
                    if shard not in by_shard:
                        continue
                failures[shard] = payload if status == "err" else status
            if failures:
                # The batch is now partial: the slices acked shards hold
                # must never surface (a later commit raises the watermark
                # past them), so quarantine their ids from every scan.
                with self._state_lock:
                    for shard in committed:
                        self._torn.update(by_shard[shard].event_ids)
                        self._shard_acked[shard] += len(by_shard[shard])
                raise ShardCommitError(
                    f"batch commit failed on shard(s) "
                    f"{sorted(failures)}: "
                    + "; ".join(
                        f"shard {s}: {r}" for s, r in sorted(failures.items())
                    ),
                    acked_shards=sorted(set(committed) - set(failures)),
                    failed_shards=sorted(failures),
                )
            top = block.top_event_id(positions)
            with self._state_lock:
                for shard, chunk in by_shard.items():
                    self._shard_acked[shard] += len(chunk)
                self._event_count += sum(
                    len(chunk) for chunk in by_shard.values()
                )
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

    def _snapshot(self) -> Tuple[int, Optional[frozenset]]:
        """The committed watermark and torn set a read is capped at."""
        with self._state_lock:
            return self._committed, frozenset(self._torn) if self._torn else None

    def _note_degraded(self, completeness: ScanCompleteness) -> None:
        with self._completeness_lock:
            self._completeness_seq += 1
            self._completeness_log.append(
                (self._completeness_seq, completeness)
            )
            if completeness.missing_shards:
                self._degraded_total += 1
        if completeness.missing_shards:
            _M_DEGRADED_SCANS.inc()

    def completeness_mark(self) -> int:
        """Sequence mark for :meth:`completeness_since` (query layers)."""
        with self._completeness_lock:
            return self._completeness_seq

    def completeness_since(self, mark: int) -> Optional[Dict[str, object]]:
        """Merged completeness of scans recorded after ``mark``.

        ``None`` means every scan since the mark was complete.  Rows are
        estimated per shard at their maximum across the records, so a
        multi-scan query does not double-count one shard's absence.
        """
        with self._completeness_lock:
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
        self, shard: int, key: str, scheduling: str
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
            reply = None
            if self._serving(shard):
                watermark, torn = self._snapshot()
                message = ("query", key, scheduling, watermark, torn)
                payloads, _ = self._scatter_round(
                    message, (shard,), self.scan_timeout_s
                )
                reply = payloads.get(shard)
            if reply is None:
                if span is not None:
                    span.annotate(fallback=True)
                return None
            columns, rows, meta, stats, scans = reply
            completeness = self._completeness_for((), (shard,), watermark, 1)
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
        use_entity_index: bool = True,
        kernel: Optional[ScanKernel] = None,
    ) -> BlockScanResult:
        """Scatter the filter to its owner shards, gather their column
        slices.

        ``kernel`` is not sent: a compiled kernel does not cross the wire,
        so each asked shard compiles the filter for the one scan.

        Only the shards that can hold a matching row are asked
        (:func:`owner_shards`: every shard unless the filter names its
        agents and bounds its window), and only an owner's absence fails
        or degrades the scan.  Every asked shard prunes/scans locally
        (compiled kernel, partition pruning, cold tier) and replies with
        its survivors as one serialized block slice in (start_time,
        event_id) order, capped at this scan's committed watermark; parts
        from different shards are disjoint by construction, so no
        cross-shard dedup is needed.

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
        serving: List[int] = []
        unavailable: List[int] = []
        for shard in range(self.shards):
            if shard in owners:
                (serving if self._serving(shard) else unavailable).append(
                    shard
                )
        if unavailable and self.read_policy != "degraded":
            raise ShardError(
                f"scan: shard(s) {sorted(unavailable)} unavailable "
                f"(read policy fail_fast)"
            )
        watermark, torn = self._snapshot()
        message = ("scan", flt, watermark, use_entity_index, torn)
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
            with self._state_lock:
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
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._supervisor.stop()
        for shard in range(self.shards):
            self._wait(
                shard, *self._issue(shard, ("stop",), self.command_timeout_s)
            )
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
        for channel in self._channels:
            if channel is not None:
                channel.fail()  # closes the pipe once no thread reads it

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._event_count

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
        with self._state_lock:
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
