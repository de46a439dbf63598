"""Write-ahead log: batch durability for live ingestion.

Every committed stream batch is appended here *before* it publishes to the
in-memory stores (the :class:`~repro.storage.ingest.Ingestor` calls
:meth:`WriteAheadLog.append` first in its commit fan-out).  After a crash,
replaying the log over the last snapshot reconstructs exactly the batches
whose commits were acknowledged — an unacknowledged batch is either absent
from the log or detected as a torn tail record and discarded.

A batch is a block on both sides of the file: :meth:`WriteAheadLog.append`
takes the :class:`~repro.storage.blocks.ColumnBlock` the commit built (the
object the stores then extend their columns from) and frames its columns,
and :meth:`WriteAheadLog.replay_into` hands each record's decoded block to
the stores' ``add_block`` — with a position list when the snapshot or the
cold tier already covers some rows.  Neither direction builds a row object.

File format: an 8-byte file magic, then one :mod:`repro.storage.codec`
frame (length-prefixed, crc32-checked) per committed batch, whose payload is
::

    record number u64 | max event id u64 | entity frame length u32
    entity frame    the batch's new entities
                    (:func:`repro.storage.persist.encode_entities`: their
                    JSON records; absent when the batch has none)
    event block     one block frame (:func:`encode_block`)

Nothing in a record is deflated: it sits on the ack path and dies at the
next checkpoint.  For the same reason an append gives up the GIL exactly
once: with ``sync`` the log is opened ``O_SYNC``, so the one ``write`` call
is also the sync — what a ``write`` followed by an ``fsync`` guarantees, in
one blocking call.  Every release, however short, lets a waiting query
thread take the GIL, and the committer then waits a whole switch interval
(5 ms) to get it back; whether a 30 us ``write`` ahead of the ``fsync``
lost that race depended on the machine's state, not on the program (beside
a busy reader a commit took 9 ms in one run and 14 ms in the next).

The magic is written with the first record, so an empty file is an empty
log.  The frame checksum is how replay distinguishes a record that was cut
short by a crash from a corrupt log: replay stops cleanly at the first short
or checksum-failing frame, which by the append-fsync-acknowledge ordering
can only ever be the unacknowledged tail.  Opening the log checks frame
lengths, checksums and record numbers only; payloads decode once, in
:meth:`WriteAheadLog.replay`.

A non-empty file that does not start with the magic — a JSON log of an
earlier format, or anything else — is refused with :class:`WALError` and
left untouched: treating it as a torn tail would truncate it to an empty
log.

New entities observed since the previous append ride in the same record as
the events that first reference them, so a batch and its entity closure are
durable atomically.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.model.entities import Entity, EntityRegistry
from repro.model.events import SystemEvent
from repro.obs.metrics import REGISTRY
from repro.storage.blocks import ColumnBlock, Positions
from repro.storage.codec import (
    FRAME_HEADER_BYTES,
    WAL_RECORD_KIND,
    BlockCodecError,
    decode_block,
    encode_block,
    pack_frame,
    read_frame,
    unpack_frame,
)
from repro.storage.persist import (
    decode_entities,
    encode_entities,
    rebuild_entity,
)

FILE_MAGIC = b"AIQLWAL\x01"

_RECORD = struct.Struct("<QQI")  # record number, max event id, entity blob length


_M_WAL_RECORDS = REGISTRY.counter(
    "aiql_wal_records_total", "WAL batch records appended"
)
_M_WAL_EVENTS = REGISTRY.counter(
    "aiql_wal_events_total", "Events made durable through the WAL"
)
_M_WAL_BYTES = REGISTRY.counter(
    "aiql_wal_bytes_total", "Bytes appended to the WAL"
)
_M_WAL_TORN = REGISTRY.counter(
    "aiql_wal_torn_tails_total",
    "Torn (unacknowledged) WAL tails detected and discarded",
)
_M_WAL_REPLAY_EVENTS = REGISTRY.counter(
    "aiql_wal_replay_events_total", "Events applied during WAL replay"
)
_M_WAL_REPLAY_SKIPPED = REGISTRY.counter(
    "aiql_wal_replay_skipped_events_total",
    "Replayed events skipped as snapshot-covered or cold-migrated",
)


class WALError(ValueError):
    """Raised for unusable write-ahead logs (not for torn tails)."""


@dataclass(frozen=True)
class WALRecord:
    """One replayed batch: decoded entity records and the event block."""

    number: int
    max_event_id: int
    entity_records: tuple
    block: ColumnBlock

    @property
    def events(self) -> Tuple[SystemEvent, ...]:
        return tuple(self.block.events())


class WriteAheadLog:
    """Append-only, checksummed batch log with torn-tail detection."""

    def __init__(self, path, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.torn_tails_detected = 0
        self.torn_bytes_discarded = 0
        self.replay_events_applied = 0
        self.replay_events_skipped = 0
        last_number = 0
        valid_bytes = 0
        for last_number, valid_bytes, _ in self._records():
            pass
        # Truncate a torn tail *before* appending: a record written after
        # a leftover partial frame would be unreachable forever (replay
        # stops at the first torn frame), silently losing every commit
        # acknowledged after the recovery.
        if self.path.exists() and self.path.stat().st_size > valid_bytes:
            self.torn_tails_detected += 1
            self.torn_bytes_discarded += self.path.stat().st_size - valid_bytes
            _M_WAL_TORN.inc()
            with self.path.open("rb+") as handle:
                handle.truncate(valid_bytes)
        self._handle = self._open("ab")
        self.records_appended = 0
        self.events_appended = 0
        self._next_number = last_number + 1

    def _records(self) -> Iterator[Tuple[int, int, memoryview]]:
        """``(record number, end offset, payload)`` of each durable record.

        Stops at the first short or checksum-failing frame — the torn tail
        — and verifies record numbers monotone, so a corrupted middle
        cannot be silently skipped.  Raises for a file that is not a
        write-ahead log at all.
        """
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            magic = handle.read(len(FILE_MAGIC))
            if magic != FILE_MAGIC:
                if FILE_MAGIC.startswith(magic):
                    return  # empty, or the very first append was cut short
                raise WALError(
                    f"{self.path} is not a write-ahead log of this format "
                    f"(no file magic); refusing to open or truncate it"
                )
            offset = len(FILE_MAGIC)
            expected: Optional[int] = None
            while True:
                try:
                    frame = read_frame(handle)
                    payload = unpack_frame(frame, WAL_RECORD_KIND)
                    number, _, entity_bytes = _RECORD.unpack_from(payload)
                    if _RECORD.size + entity_bytes + FRAME_HEADER_BYTES > len(payload):
                        return  # checksummed but incomplete: not a record
                except (BlockCodecError, struct.error):
                    return  # torn tail: everything after it is unacknowledged
                if expected is not None and number != expected:
                    raise WALError(
                        f"write-ahead log {self.path}: record {number} "
                        f"out of order (expected {expected})"
                    )
                expected = number + 1
                offset += len(frame)
                yield number, offset, payload

    # -- write path ---------------------------------------------------------

    def _open(self, mode: str):
        """The log opened for writing; ``O_SYNC`` when ``sync``, so that a
        write returns only once the record is on stable storage."""
        extra = os.O_SYNC if self.sync else 0
        return open(
            self.path,
            mode,
            opener=lambda path, flags: os.open(path, flags | extra, 0o666),
        )

    def append(self, entities: Sequence[Entity], block: ColumnBlock) -> int:
        """Durably append one committed batch; returns its record number.

        ``block`` is the batch as the commit built it — the same object
        the stores then extend their columns from.  The record is written
        (synchronously when ``sync``: see the module docstring) before
        this returns, so an acknowledged commit survives any later crash.
        """
        if self._handle.closed:
            raise WALError(f"write-ahead log {self.path} is closed")
        number = self._next_number
        entity_blob = encode_entities(entities, compress=False) if entities else b""
        record = pack_frame(
            WAL_RECORD_KIND,
            b"".join(
                (
                    _RECORD.pack(number, block.max_event_id, len(entity_blob)),
                    entity_blob,
                    encode_block(block),
                )
            ),
        )
        if not self._handle.tell():
            record = FILE_MAGIC + record
        # One write call whatever the record's size: a record larger than
        # the buffer goes straight to the file, a smaller one on the flush.
        self._handle.write(record)
        self._handle.flush()
        self._next_number = number + 1
        self.records_appended += 1
        self.events_appended += len(block)
        _M_WAL_RECORDS.inc()
        _M_WAL_EVENTS.inc(len(block))
        _M_WAL_BYTES.inc(len(record))
        return number

    # -- read path ----------------------------------------------------------

    def replay(self) -> Iterator[WALRecord]:
        """Yield durable records in append order.

        Stops cleanly at the first torn or checksum-failing frame — the
        unacknowledged tail a crash mid-append leaves behind.  A record
        whose checksum holds but whose contents do not decode was never
        written by :meth:`append`; that is corruption, and it is loud.
        """
        for number, _, payload in self._records():
            _, max_event_id, entity_bytes = _RECORD.unpack_from(payload)
            entities_end = _RECORD.size + entity_bytes
            try:
                entity_records = (
                    decode_entities(payload[_RECORD.size : entities_end])
                    if entity_bytes
                    else ()
                )
                block = decode_block(payload[entities_end:])
            except BlockCodecError as exc:
                raise WALError(
                    f"write-ahead log {self.path}: record {number} is "
                    f"checksummed but undecodable: {exc}"
                ) from exc
            yield WALRecord(
                number=number,
                max_event_id=max_event_id,
                entity_records=tuple(entity_records),
                block=block,
            )

    def replay_into(
        self,
        registry: EntityRegistry,
        stores: Sequence,
        after_event_id: int = 0,
        skip_rows: Optional[Callable[[ColumnBlock, Positions], List[int]]] = None,
    ) -> int:
        """Apply durable records to ``stores``; returns events applied.

        Each record's decoded block goes to the stores as it is
        (``add_block``), with a position list when part of it is skipped:
        rows with ids at or below ``after_event_id`` (already covered by
        the snapshot the log is being replayed over), and the positions
        ``skip_rows(block, positions)`` returns (already migrated to the
        cold tier: :meth:`~repro.tier.cold.ColdTier.event_id_probe`) —
        which is what makes replay idempotent.  No row object is built.
        Entities re-intern through the shared registry, so replaying a
        record twice is harmless.
        """
        applied = 0
        for record in self.replay():
            for raw in record.entity_records:
                entity = rebuild_entity(registry, raw)
                for store in stores:
                    store.register_entity(entity)
            block = record.block
            positions: Positions = range(len(block))
            event_ids = block.event_ids
            if after_event_id and min(event_ids, default=0) <= after_event_id:
                positions = [p for p in positions if event_ids[p] > after_event_id]
            if skip_rows is not None:
                cold = set(skip_rows(block, positions))
                if cold:
                    positions = [p for p in positions if p not in cold]
            skipped = len(block) - len(positions)
            if skipped:
                # Snapshot-covered or cold-migrated: idempotence at work,
                # but surfaced — a replay skipping *everything* is how a
                # stale-snapshot misconfiguration shows up.
                self.replay_events_skipped += skipped
                _M_WAL_REPLAY_SKIPPED.inc(skipped)
            if not positions:
                continue
            for store in stores:
                store.add_block(block, positions if skipped else None)
            applied += len(positions)
        if applied:
            self.replay_events_applied += applied
            _M_WAL_REPLAY_EVENTS.inc(applied)
        return applied

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Truncate the log (called after a successful checkpoint).

        Safe ordering is the caller's contract: the snapshot covering every
        logged event must be durably in place *before* the reset, so a
        crash in between replays a log whose records are all snapshot-
        covered no-ops.
        """
        self._handle.close()
        self._handle = self._open("wb")
        if self.sync:
            os.fsync(self._handle.fileno())
        self._next_number = 1

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "bytes": self.size_bytes(),
            "records_appended": self.records_appended,
            "events_appended": self.events_appended,
            "torn_tails_detected": self.torn_tails_detected,
            "torn_bytes_discarded": self.torn_bytes_discarded,
            "replay_events_applied": self.replay_events_applied,
            "replay_events_skipped": self.replay_events_skipped,
        }
