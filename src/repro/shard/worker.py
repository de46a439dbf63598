"""Shard worker: one process owning one horizontal slice of the store.

Each worker is a miniature single-process deployment — its own entity
registry, ingestor, partitioned hot store, and when the
deployment is durable, its own WAL, snapshot, cold segments and
background compactor under ``<data_dir>/shard-<i>``.  The coordinator
(:mod:`repro.shard.coordinator`) routes whole ``(day, agent-group)``
partitions to a worker, so partition pruning, compiled kernels, the
scan cache and the tiered cold path all run unchanged inside it.

Protocol: a strict request/response loop over one duplex pipe.  The ingest
``batch`` command carries one block frame — this shard's slice of a commit
— which is decoded and committed as a block (``Ingestor.commit_block``: WAL
first, then every store's ``add_block``).  Reads come two ways: ``scan``
answers one scatter scan with its capped survivors as a block frame;
``query`` runs a whole *routed* query — one whose every pattern only this
shard can match — through :func:`repro.engine.run_query` over a
:class:`CappedStore` view, and answers ``(columns, rows, meta, stats,
scans)``, or ``None`` when execution raised (the coordinator then runs it
on the scatter path, where the error surfaces with its own type).  The
other commands are ``entities``, ``full_scan``, ``estimate``,
``time_range``, ``compact``, ``checkpoint``, ``stats``, ``metrics``,
``ping`` and ``stop``.  Every
command is answered with ``("ok", payload)`` or ``("err", message)`` —
errors are contained per command, never crash the worker, and surface
in the coordinator as raised exceptions.  On startup the worker sends
one *hello* carrying its recovery state (entity records in id order,
next event id, per-agent seq maxima, event count), which the
coordinator merges across shards; each shard replays its own WAL.

Workers are started with the ``spawn`` method: a forked child would
inherit the parent's shared-executor thread state (locks held by
threads that do not exist in the child) and can deadlock.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine import compile_query, run_query
from repro.obs import REGISTRY, set_metrics_enabled
from repro.service.cache import ScanCache
from repro.service.pool import shutdown_shared_executor
from repro.shard.chaos import ChaosAgent, Fault
from repro.shard.wire import capped_result, encode_events, encode_result
from repro.storage.blocks import BlockScanResult
from repro.storage.codec import decode_block
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme, owner_shards
from repro.storage.persist import entity_record, rebuild_entity


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its slice (picklable)."""

    index: int
    shards: int = 1
    agents_per_group: int = 10
    scan_cache: bool = True
    scan_cache_entries: int = 512
    data_dir: Optional[str] = None
    retention_days: Optional[int] = None
    compact_interval_s: float = 30.0
    wal_sync: bool = True
    cold_cache_segments: int = 4
    cold_scan_cache_entries: int = 128
    metrics: bool = True
    # Deterministic fault injection (ISSUE 9): faults this worker fires
    # as its command loop runs.  Always () on a supervised respawn —
    # plans target a shard's first incarnation only.
    faults: Tuple[Fault, ...] = ()


class CappedStore:
    """This shard's store as a routed query sees it.

    Every scan gets what the scatter path would give it from this shard:
    nothing, without a scan, when the filter is not this shard's to answer
    (:func:`~repro.storage.partition.owner_shards`), and otherwise its
    survivors cut by :func:`~repro.shard.wire.capped_result` at the
    watermark and torn set the coordinator shipped with the query — the
    rows, in the (start_time, event_id) order, a scatter reply carries.  So
    the routed answer equals the scatter answer row for row, and ``scans``
    counts the scatter scans this shard would have answered.  Like the
    coordinator, the view has no ``entity_index``: the scheduler's
    cardinality model estimates through ``estimated_events``.
    """

    def __init__(
        self, store, spec: ShardSpec, watermark: int, exclude: Optional[frozenset]
    ) -> None:
        self.store = store
        self.registry = store.registry
        self.spec = spec
        self.scheme = PartitionScheme(agents_per_group=spec.agents_per_group)
        self.watermark = watermark
        self.exclude = exclude
        self.scans = 0

    def scan_columns(
        self,
        flt: EventFilter,
        parallel: bool = False,
        use_entity_index: bool = True,
    ) -> BlockScanResult:
        if self.spec.index not in owner_shards(flt, self.scheme, self.spec.shards):
            return BlockScanResult([])
        self.scans += 1
        result = self.store.scan_columns(
            flt, parallel=parallel, use_entity_index=use_entity_index
        )
        return capped_result(result, self.watermark, self.exclude)

    def estimated_events(self, flt: EventFilter) -> int:
        return self.store.estimated_events(flt)


def _run_routed(store, spec, text, scheduling, parallel, watermark, exclude):
    """The ``query`` command: ``(columns, rows, meta, stats, scans)``, or
    ``None`` when execution raised."""
    view = CappedStore(store, spec, watermark, exclude)
    try:
        result, stats = run_query(
            view,
            compile_query(text, text),  # the text is already canonical
            scheduling=scheduling,
            parallel=parallel,
        )
    except Exception:
        return None
    return result.columns, result.rows, result.meta, stats, view.scans


def shard_worker_main(conn, spec: ShardSpec) -> None:
    """Worker entry point (the ``spawn`` target)."""
    # Metrics registries are process-local: the worker keeps its own, the
    # coordinator pulls a snapshot over the pipe with the ``metrics``
    # command instead of sharing mutable state across the spawn boundary.
    set_metrics_enabled(spec.metrics)
    ingestor = Ingestor()
    registry = ingestor.registry
    store = EventStore(
        registry=registry,
        scheme=PartitionScheme(agents_per_group=spec.agents_per_group),
        scan_cache=ScanCache(spec.scan_cache_entries) if spec.scan_cache else None,
    )
    wal = None
    compactor = None
    report = None
    if spec.data_dir is not None:
        from repro.tier import Compactor, open_data_dir

        store, wal, report = open_data_dir(
            spec.data_dir,
            store,
            ingestor,
            retention_days=spec.retention_days,
            wal_sync=spec.wal_sync,
            cold_cache_segments=spec.cold_cache_segments,
            cold_scan_cache_entries=spec.cold_scan_cache_entries,
        )
        if spec.retention_days is not None:
            compactor = Compactor(
                store,
                retention_days=spec.retention_days,
                interval_s=spec.compact_interval_s,
            ).start()
    ingestor.attach(store)

    # Hello: this shard's recovered slice, for the coordinator's merge.
    # Entities are always the global observation-order prefix (every
    # entity is broadcast to every shard), so sorting by id is total.
    conn.send(
        (
            "ok",
            {
                "entities": [
                    entity_record(e)
                    for e in sorted(registry, key=lambda e: e.id)
                ],
                "next_event_id": report.next_event_id if report else 1,
                "seqs": ingestor.seq_maxima(),
                "events": len(store),
                "report": report,
            },
        )
    )

    chaos = ChaosAgent(faults=spec.faults)
    running = True
    while running:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        command, args = request[0], request[1:]
        # Fire scheduled faults *before* executing, so a killed worker
        # never acknowledges the in-flight command (like a machine loss).
        chaos.before(command)
        try:
            if command == "entities":
                for record in args[0]:
                    ingestor.observe(rebuild_entity(registry, record))
                reply = len(args[0])
            elif command == "batch":
                block = decode_block(args[0])
                ingestor.commit_block(block)
                reply = len(block)
            elif command == "scan":
                flt, watermark, parallel, use_entity_index, exclude = args
                result = store.scan_columns(
                    flt, parallel=parallel, use_entity_index=use_entity_index
                )
                reply = encode_result(
                    result, watermark=watermark, exclude=exclude
                )
            elif command == "query":
                reply = _run_routed(store, spec, *args)
            elif command == "full_scan":
                reply = encode_events(store.full_scan(args[0]))
            elif command == "estimate":
                reply = store.estimated_events(args[0])
            elif command == "time_range":
                reply = store.time_range()
            elif command == "compact":
                reply = store.compact(args[0])
            elif command == "checkpoint":
                from repro.tier import checkpoint

                if spec.data_dir is None or wal is None:
                    raise RuntimeError("shard is not durable")
                reply = checkpoint(spec.data_dir, store, wal)
            elif command == "stats":
                stats = dict(store.stats())
                if wal is not None:
                    stats["wal"] = wal.stats()
                reply = stats
            elif command == "metrics":
                reply = REGISTRY.snapshot()
            elif command == "ping":
                reply = "pong"
            elif command == "stop":
                running = False
                reply = None
            else:
                raise ValueError(f"unknown shard command {command!r}")
        except BaseException:
            conn.send(("err", traceback.format_exc(limit=8)))
        else:
            conn.send(("ok", reply))

    if compactor is not None:
        compactor.stop()
    if wal is not None:
        wal.close()
    shutdown_shared_executor()
    conn.close()
