"""Ingestion pipeline: agents -> central storage (paper Fig. 2, Sec. 3).

Monitoring agents stream entity observations and events to the central
server.  The :class:`Ingestor` is the server side of that pipeline:

* deduplicates entities through the shared :class:`EntityRegistry`;
* applies NTP-style clock correction per agent (Sec. 3.2);
* assigns globally unique event ids and per-agent monotone sequence
  numbers (Table 2's Event Sequence);
* validates events against the data model;
* fans the stream out to any number of attached stores, so the optimized
  store and the baseline stores ingest identical copies of the data (the
  fairness requirement of Sec. 6.2.2).

Validation and entity deduplication are hoisted above the fan-out: an event
is validated exactly once (:meth:`Ingestor.build_event`) and an entity is
registered into each store exactly once, no matter how many stores are
attached or how often agents re-observe the entity.  Live ingestion goes
through :class:`repro.service.stream.StreamSession`, which stages events
built here and commits them in batches via :meth:`Ingestor.commit`.

A batch is one block from the commit to the partition columns:
:meth:`Ingestor.commit` builds the batch's
:class:`~repro.storage.blocks.ColumnBlock` once and hands the same object
to the write-ahead log (which frames its columns) and to every store
(``add_batch(block)``, which is ``add_block(block)``: the store extends its
own columns from it) — every batch, from a commit or from disk, enters a
store through ``add_block``, and no row object is built after
:meth:`Ingestor.build_event`.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.model.entities import (
    Entity,
    EntityRegistry,
    FileEntity,
    NetworkEntity,
    ProcessEntity,
)
from repro.model.events import Operation, SystemEvent, validate_event
from repro.model.time import ClockSynchronizer
from repro.storage.blocks import ColumnBlock


class IngestError(ValueError):
    """Raised when an agent submits an event the data model rejects."""


class Ingestor:
    """Server-side ingestion fan-out."""

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        clock: Optional[ClockSynchronizer] = None,
    ) -> None:
        self.registry = registry if registry is not None else EntityRegistry()
        self.clock = clock or ClockSynchronizer()
        self._stores: List[object] = []
        self._event_ids = itertools.count(1)
        self._seq: Dict[int, int] = defaultdict(int)
        self._events_ingested = 0
        self._known_entities: set[int] = set()
        self._staged = 0
        self.validations = 0
        # Durability hook (repro.tier): when a write-ahead log is attached,
        # every commit appends to it before any store publishes, and the
        # entities observed since the previous append ride in the same
        # record as the first events that reference them.
        self.wal = None
        self._wal_pending_entities: List[Entity] = []
        self._wal_lock = contextlib.nullcontext()

    def attach(self, store: object) -> None:
        """Attach a store (EventStore / FlatStore / SegmentedStore /
        TieredStore / ShardedStore): anything with ``register_entity``,
        ``add_event`` (one row, for :meth:`emit`) and ``add_batch`` (a
        commit's block).

        A store attached after entities were already observed receives a
        replay of the registry, so its attribute indexes match its peers'.
        """
        if store.registry is not self.registry:  # type: ignore[attr-defined]
            raise ValueError("attached store must share the ingestor's registry")
        self._stores.append(store)
        for entity in self.registry:
            store.register_entity(entity)  # type: ignore[attr-defined]

    def attach_wal(self, wal, logged_entity_ids=(), lock=None) -> None:
        """Attach a write-ahead log; commits append to it before publishing.

        ``logged_entity_ids`` names the entities already durable (in the
        snapshot or the log itself, after recovery); every other entity
        currently in the registry is queued so the next batch record
        carries it.  ``lock`` (the tiered store's writer lock) makes the
        WAL-append + store-publish sequence atomic with respect to
        checkpoints: without it, a checkpoint could snapshot the hot tier
        *before* a batch publishes yet reset the WAL *after* the batch's
        record landed — acknowledging a commit that is durable nowhere.
        """
        self.wal = wal
        self._wal_lock = lock if lock is not None else contextlib.nullcontext()
        logged = set(logged_entity_ids)
        self._wal_pending_entities = [
            entity for entity in self.registry if entity.id not in logged
        ]

    def resume(
        self,
        next_event_id: int,
        seqs: Dict[int, int],
        events_ingested: int,
    ) -> None:
        """Fast-forward counters after crash recovery (repro.tier).

        New events continue the durable stream: globally unique ids pick
        up after the newest recovered event and per-agent sequence numbers
        after each agent's newest, so the monotonicity invariants the
        stores' watermarks rely on hold across the crash.
        """
        self._event_ids = itertools.count(next_event_id)
        self._seq = defaultdict(int, dict(seqs))
        self._events_ingested = events_ingested
        self._staged = 0
        self._known_entities.update(entity.id for entity in self.registry)

    @property
    def events_ingested(self) -> int:
        return self._events_ingested

    # -- entity observation helpers (delegate to the registry) -------------

    def process(
        self,
        agent_id: int,
        pid: int,
        exe_name: str,
        user: str = "root",
        cmd: str = "",
        signature: str = "",
        generation: int = 0,
    ) -> ProcessEntity:
        entity = self.registry.process(
            agent_id, pid, exe_name, user=user, cmd=cmd,
            signature=signature, generation=generation,
        )
        self._register(entity)
        return entity

    def file(
        self,
        agent_id: int,
        name: str,
        owner: str = "root",
        group: str = "root",
        vol_id: int = 0,
        data_id: int = 0,
    ) -> FileEntity:
        entity = self.registry.file(
            agent_id, name, owner=owner, group=group,
            vol_id=vol_id, data_id=data_id,
        )
        self._register(entity)
        return entity

    def connection(
        self,
        agent_id: int,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        protocol: str = "tcp",
    ) -> NetworkEntity:
        entity = self.registry.connection(
            agent_id, src_ip, src_port, dst_ip, dst_port, protocol=protocol
        )
        self._register(entity)
        return entity

    def registry_value(
        self, agent_id: int, key: str, value_name: str = ""
    ):
        entity = self.registry.registry_value(agent_id, key, value_name)
        self._register(entity)
        return entity

    def pipe(self, agent_id: int, name: str, mode: str = "fifo"):
        entity = self.registry.pipe(agent_id, name, mode=mode)
        self._register(entity)
        return entity

    def observe(self, entity: Entity) -> None:
        """Register an externally rebuilt entity into the fan-out.

        The shard-worker entity path (:mod:`repro.shard`): the coordinator
        broadcasts entity records and each worker re-interns them, then
        feeds them through the same dedup + WAL-pending + store fan-out an
        agent observation takes.  Idempotent per entity id.
        """
        self._register(entity)

    def seq_maxima(self) -> Dict[int, int]:
        """Per-agent max sequence numbers issued/recovered so far."""
        return dict(self._seq)

    def _register(self, entity: Entity) -> None:
        # Hoisted dedup: agents re-observe the same entity constantly (every
        # event mentions two), so the fan-out runs once per entity, not once
        # per observation per store.
        if entity.id in self._known_entities:
            return
        self._known_entities.add(entity.id)
        if self.wal is not None:
            self._wal_pending_entities.append(entity)
        for store in self._stores:
            store.register_entity(entity)  # type: ignore[attr-defined]

    # -- event ingestion ----------------------------------------------------

    def build_event(
        self,
        agent_id: int,
        timestamp: float,
        operation,
        subject: Entity,
        obj: Entity,
        duration: float = 0.0,
        amount: int = 0,
        failure_code: int = 0,
    ) -> SystemEvent:
        """Clock-correct, number and validate one event, without storing it.

        This is the single validation point of the pipeline: an event is
        checked against the data model exactly once here, regardless of how
        many stores the fan-out will later append it to.  Streaming sessions
        call this at append time and commit the already-validated batch.

        Every built event MUST reach the stores through :meth:`commit` (or
        the caller's own batched append): its id is issued into the stream
        order, and the stores' commit watermarks assume ids become visible
        in order.
        """
        if isinstance(operation, str):
            operation = Operation.parse(operation)
        corrected = self.clock.correct(agent_id, timestamp)
        self._seq[agent_id] += 1
        event = SystemEvent(
            event_id=next(self._event_ids),
            agent_id=agent_id,
            seq=self._seq[agent_id],
            start_time=corrected,
            end_time=corrected + max(duration, 0.0),
            operation=operation,
            subject_id=subject.id,
            object_id=obj.id,
            object_type=obj.entity_type,
            amount=amount,
            failure_code=failure_code,
        )
        try:
            validate_event(event, subject, obj)
        except ValueError as exc:
            raise IngestError(str(exc)) from exc
        self.validations += 1
        self._staged += 1
        return event

    def emit(
        self,
        agent_id: int,
        timestamp: float,
        operation,
        subject: Entity,
        obj: Entity,
        duration: float = 0.0,
        amount: int = 0,
        failure_code: int = 0,
    ) -> SystemEvent:
        """Ingest one event; returns the stored (corrected) form.

        Refused while a streaming batch is staged: the stores' commit
        watermarks require event ids to become visible in issue order, and
        a single-event append racing ahead of staged (lower-id) events
        would let a reader observe a later batch half-published.  Commit
        the session first.
        """
        if self._staged:
            raise IngestError(
                "cannot emit single events while a streaming batch is "
                "staged; commit the StreamSession first"
            )
        event = self.build_event(
            agent_id, timestamp, operation, subject, obj,
            duration=duration, amount=amount, failure_code=failure_code,
        )
        self._staged -= 1
        with self._wal_lock:
            if self.wal is not None:
                self._wal_append(ColumnBlock.from_events((event,)))
            for store in self._stores:
                store.add_event(event)  # type: ignore[attr-defined]
            self._events_ingested += 1
        return event

    def _wal_append(self, block: ColumnBlock) -> None:
        """Make a batch durable before any store publishes it.

        A failed append leaves the pending-entity queue intact and
        nothing published — the commit simply did not happen.
        """
        self.wal.append(self._wal_pending_entities, block)
        self._wal_pending_entities = []

    def commit(self, events: Sequence[SystemEvent]) -> None:
        """Fan a pre-validated batch out to every attached store.

        The batch becomes one :class:`~repro.storage.blocks.ColumnBlock`
        here, once, and :meth:`commit_block` hands that same object to the
        write-ahead log and to every store.
        """
        if events:
            self.commit_block(ColumnBlock.from_events(events))

    def commit_block(self, block: ColumnBlock) -> None:
        """Commit a batch that already is a block (a shard worker's slice,
        decoded from the coordinator's frame; :meth:`commit` for rows).

        Every store takes it through ``add_batch`` — which, handed a
        block, is ``add_block``: atomic publication, one cache invalidation
        per touched partition — after the write-ahead log, when one is
        attached, has made it durable.
        """
        count = len(block)
        if not count:
            return
        # max() tolerates batches built outside build_event (e.g. replayed
        # snapshots); the staged counter must never go negative.
        self._staged = max(0, self._staged - count)
        # The lock spans WAL append AND publication: a checkpoint (which
        # holds the same lock) therefore sees either neither or both, so
        # its snapshot + WAL reset can never strand an acknowledged batch.
        with self._wal_lock:
            if self.wal is not None:
                self._wal_append(block)
            for store in self._stores:
                store.add_batch(block)  # type: ignore[attr-defined]
            self._events_ingested += count

    def emit_batch(
        self,
        agent_id: int,
        records: Sequence[tuple],
    ) -> List[SystemEvent]:
        """Ingest ``(timestamp, operation, subject, object, amount)`` tuples."""
        out = []
        for timestamp, operation, subject, obj, amount in records:
            out.append(
                self.emit(agent_id, timestamp, operation, subject, obj, amount=amount)
            )
        return out
