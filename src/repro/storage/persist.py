"""Snapshot persistence for event stores.

The paper keeps "at least a 0.5-1 year worth of data" on disk in
PostgreSQL; our in-memory substrate gets a simple durable form instead: a
snapshot of the entity population and the event stream.  Snapshots restore
into any combination of store backends (the entity ids and event
ids/sequence numbers are preserved verbatim, so query results over a
restored store are identical to the original — a test invariant).

Format (``snapshot.blk``): a sequence of :mod:`repro.storage.codec` frames,
each length-prefixed and checksummed —

* one header frame: format version, entity count, event count;
* entity frames: the deflated JSON list of :func:`entity_record` dicts, in
  id order, ``_CHUNK_ROWS`` entities to a frame (entities are irregular and
  a fraction of the volume; events are the volume);
* block frames, deflated: one per hot table a checkpoint writes
  (straight from the table's columns — no
  :class:`~repro.model.events.SystemEvent` is built).

The loader trusts nothing it has not counted: a file cut anywhere, a
flipped bit or trailing bytes raise :class:`SnapshotError`, never a
short-but-successful load.

Durability: snapshots are written to a temporary file in the destination
directory, flushed and fsync'd, then atomically renamed over the target.
A crash mid-snapshot therefore never truncates a previously good snapshot
— readers see either the old complete file or the new complete file.
The write path streams frame by frame, so snapshotting a large store never
materializes a second full copy in memory.

The entity codec (:func:`entity_record` / :func:`rebuild_entity`) is shared
with the write-ahead log (:mod:`repro.tier.wal`) and the shard pipe
(:mod:`repro.shard`).
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Iterable, Sequence, Tuple

from repro.model.entities import (
    Entity,
    EntityRegistry,
    FileEntity,
    NetworkEntity,
    PipeEntity,
    ProcessEntity,
    RegistryEntity,
)
from repro.storage.blocks import ColumnBlock
from repro.storage.codec import (
    ENTITY_KIND,
    SNAPSHOT_HEADER_KIND,
    BlockCodecError,
    decode_block,
    encode_block,
    pack_frame,
    read_frame,
    unpack_frame,
)

FORMAT_VERSION = 2

_HEADER = struct.Struct("<HQQ")  # format version, entity count, event count
_CHUNK_ROWS = 256

_TYPE_TAGS = {
    FileEntity: "file",
    ProcessEntity: "proc",
    NetworkEntity: "ip",
    RegistryEntity: "reg",
    PipeEntity: "pipe",
}


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot files."""


def entity_record(entity: Entity) -> dict:
    record = {"t": _TYPE_TAGS[type(entity)]}
    record.update(
        {
            field: getattr(entity, field)
            for field in entity.__dataclass_fields__  # type: ignore[attr-defined]
        }
    )
    return record


def encode_entities(entities: Iterable[Entity], compress: bool) -> bytes:
    """One frame holding the JSON list of :func:`entity_record`s."""
    records = [entity_record(entity) for entity in entities]
    return pack_frame(ENTITY_KIND, json.dumps(records).encode("utf-8"), compress)


def decode_entities(frame: bytes) -> list:
    """The entity records of one :func:`encode_entities` frame."""
    try:
        records = json.loads(bytes(unpack_frame(frame, ENTITY_KIND)))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BlockCodecError(f"undecodable entity section: {exc}") from exc
    if not isinstance(records, list):
        raise BlockCodecError("entity section is not a list of records")
    return records


def _header_frame(entities: int, events: int) -> bytes:
    return pack_frame(SNAPSHOT_HEADER_KIND, _HEADER.pack(FORMAT_VERSION, entities, events))


def write_snapshot(
    path, registry: EntityRegistry, blocks: Iterable[Tuple[ColumnBlock, int]]
) -> int:
    """Write a snapshot atomically; returns the number of events written.

    ``blocks`` yields ``(block, visible rows)`` pairs, consumed lazily.
    The snapshot lands under a temporary name first and is renamed over
    ``path`` only after every frame is flushed and fsync'd, so an existing
    snapshot at ``path`` survives any crash during the write.
    """
    path = Path(path)
    # Sorting holds references only (the registry already owns the entities).
    entities = sorted(registry, key=lambda e: e.id)
    count = 0
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            # The event count is known only once ``blocks`` is exhausted;
            # the header frame has a fixed size and is rewritten in place.
            handle.write(_header_frame(len(entities), 0))
            for start in range(0, len(entities), _CHUNK_ROWS):
                handle.write(
                    encode_entities(
                        entities[start : start + _CHUNK_ROWS], compress=True
                    )
                )
            for block, stop in blocks:
                if stop:
                    handle.write(encode_block(block, stop, compress=True))
                    count += stop
            handle.seek(0)
            handle.write(_header_frame(len(entities), count))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def rebuild_entity(registry: EntityRegistry, record: dict) -> Entity:
    """Re-intern one :func:`entity_record` dict into ``registry``."""
    record = dict(record)
    tag = record.pop("t")
    expected_id = record.pop("id")
    agent_id = record.pop("agent_id")
    if tag == "file":
        entity = registry.file(agent_id, record.pop("name"), **record)
    elif tag == "proc":
        entity = registry.process(agent_id, record.pop("pid"),
                                  record.pop("exe_name"), **record)
    elif tag == "ip":
        entity = registry.connection(
            agent_id,
            record.pop("src_ip"),
            record.pop("src_port"),
            record.pop("dst_ip"),
            record.pop("dst_port"),
            **record,
        )
    elif tag == "reg":
        entity = registry.registry_value(
            agent_id, record.pop("key"), record.pop("value_name")
        )
    elif tag == "pipe":
        entity = registry.pipe(agent_id, record.pop("name"), **record)
    else:
        raise SnapshotError(f"unknown entity tag {tag!r}")
    if entity.id != expected_id:
        raise SnapshotError(
            f"entity id mismatch on restore: expected {expected_id}, "
            f"got {entity.id} (snapshot not loaded into a fresh registry?)"
        )
    return entity


def load_snapshot(
    path,
    registry: EntityRegistry,
    stores: Sequence,
) -> int:
    """Restore a snapshot into ``stores`` (which must share ``registry``,
    fresh/empty).  Returns the number of events restored.

    Each decoded block frame goes to the stores as it is (``add_block``):
    the rows come back as columns, and no row object is built."""
    restored = 0
    try:
        with Path(path).open("rb") as handle:
            header = unpack_frame(read_frame(handle), SNAPSHOT_HEADER_KIND)
            if len(header) != _HEADER.size:
                raise SnapshotError("malformed snapshot header")
            version, entity_count, event_count = _HEADER.unpack(header)
            if version != FORMAT_VERSION:
                raise SnapshotError(f"unsupported snapshot version {version!r}")
            entities = 0
            while entities < entity_count:
                records = decode_entities(read_frame(handle))
                for record in records:
                    entity = rebuild_entity(registry, record)
                    for store in stores:
                        store.register_entity(entity)
                entities += len(records)
            while restored < event_count:
                block = decode_block(read_frame(handle))
                for store in stores:
                    store.add_block(block)
                restored += len(block)
            if entities != entity_count or restored != event_count or handle.read(1):
                raise SnapshotError(
                    f"snapshot holds more than its declared {entity_count} "
                    f"entities and {event_count} events"
                )
    except BlockCodecError as exc:
        raise SnapshotError(f"damaged or truncated snapshot: {exc}") from exc
    return restored
