"""Durable deployment state: data-dir layout, recovery and checkpoints.

A durable AIQL deployment keeps everything it needs to survive a crash in
one *data directory*::

    <data_dir>/
        snapshot.blk      # last checkpoint: full registry + hot events
        wal.log           # batches committed since that checkpoint
        cold/             # immutable compressed segments + manifest.json

All three hold events as :mod:`repro.storage.codec` block frames.  Files of
the earlier JSON formats are refused, never misread as empty or torn: a
``snapshot.jsonl`` in the directory raises
:class:`~repro.storage.persist.SnapshotError`, a ``wal.log`` without the
file magic :class:`~repro.tier.wal.WALError`, a version-1 cold manifest
:class:`~repro.tier.cold.ColdTierError`.

:func:`open_data_dir` is the single entry point for both a fresh start
and crash recovery — an empty directory recovers to an empty system, a
populated one replays ``snapshot + WAL`` into the hot store, attaches
the cold tier, reconciles a half-finished migration, and fast-forwards
the ingestor's id/sequence counters so new events continue the stream
exactly where the last durable commit left it.

Recovery moves columns, not rows: every snapshot frame and every WAL
record decodes to a :class:`~repro.storage.blocks.ColumnBlock` that the hot
store extends its own columns from (``add_block``), the cold-tier probe
and the duplicate reconciliation read ``(event_id, agent_id)`` from those
columns, and the counters fast-forward from them — no
:class:`~repro.model.events.SystemEvent` is built.

Idempotence: WAL records whose events are covered by the snapshot (id at
or below the snapshot's max event id) or already migrated cold are
skipped, so replaying any prefix-plus-suffix of the log converges to the
same state.  :func:`checkpoint` writes the snapshot atomically *before*
truncating the WAL, so a crash between the two replays a log of no-ops; it
writes each hot table's columns as they are, without building row objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.persist import SnapshotError, load_snapshot, write_snapshot
from repro.tier.cold import ColdTier
from repro.tier.store import TieredStore
from repro.tier.wal import WriteAheadLog

SNAPSHOT_NAME = "snapshot.blk"
LEGACY_SNAPSHOT_NAME = "snapshot.jsonl"
WAL_NAME = "wal.log"
COLD_DIR_NAME = "cold"


def snapshot_path(data_dir) -> Path:
    return Path(data_dir) / SNAPSHOT_NAME


def wal_path(data_dir) -> Path:
    return Path(data_dir) / WAL_NAME


def cold_path(data_dir) -> Path:
    return Path(data_dir) / COLD_DIR_NAME


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`open_data_dir` found and rebuilt."""

    snapshot_events: int
    wal_events_replayed: int
    cold_events: int
    duplicates_reconciled: int
    next_event_id: int

    @property
    def total_events(self) -> int:
        return self.snapshot_events + self.wal_events_replayed + self.cold_events

    def to_dict(self) -> dict:
        return {
            "snapshot_events": self.snapshot_events,
            "wal_events_replayed": self.wal_events_replayed,
            "cold_events": self.cold_events,
            "duplicates_reconciled": self.duplicates_reconciled,
            "next_event_id": self.next_event_id,
        }


def open_data_dir(
    data_dir,
    hot: EventStore,
    ingestor: Ingestor,
    retention_days: Optional[int] = None,
    wal_sync: bool = True,
    cold_cache_segments: int = 4,
    cold_scan_cache_entries: int = 128,
) -> Tuple[TieredStore, WriteAheadLog, RecoveryReport]:
    """Open (or create) a durable data directory over a fresh hot store.

    Returns the wired ``(tiered store, write-ahead log, recovery report)``
    triple; the caller owns attaching the tiered store to the ingestor's
    fan-out.  ``hot`` and ``ingestor`` must be fresh and share a registry.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    if (data_dir / LEGACY_SNAPSHOT_NAME).exists():
        raise SnapshotError(
            f"{data_dir / LEGACY_SNAPSHOT_NAME} is a snapshot of the earlier "
            f"JSON format, which this build does not read; opening the "
            f"directory without it would drop every event it holds"
        )
    registry = ingestor.registry
    cold = ColdTier(
        cold_path(data_dir),
        registry.get,
        cache_segments=cold_cache_segments,
        scan_cache_entries=cold_scan_cache_entries,
    )

    snapshot_events = 0
    snapshot = snapshot_path(data_dir)
    if snapshot.exists():
        snapshot_events = load_snapshot(snapshot, registry, [hot])
    # Recovery is the only writer, so every row of a hot block is visible;
    # the columns answer what follows without building row objects.
    snapshot_max = max(
        (block.max_event_id for block, _ in hot.column_blocks()), default=0
    )

    # One probe for the whole recovery: each cold segment's id set is
    # materialized at most once, however many WAL/hot events are tested.
    in_cold = cold.event_id_probe() if cold.event_count else None
    wal = WriteAheadLog(wal_path(data_dir), sync=wal_sync)
    wal_events = wal.replay_into(
        registry,
        [hot],
        after_event_id=snapshot_max,
        skip_rows=in_cold,
    )

    # Reconcile a crash between cold publication and hot removal: events
    # reachable in both tiers leave the hot store now, so compaction
    # and len() converge instead of re-migrating duplicates forever.
    duplicates = 0
    if in_cold is not None:
        doubled = {
            block.event_ids[p]
            for block, visible in hot.column_blocks()
            for p in in_cold(block, range(visible))
        }
        if doubled:
            duplicates = hot.remove_events(doubled)

    # Fast-forward the ingestor: ids continue after the newest durable
    # event, per-agent sequence numbers after the newest in either tier.
    max_eid = cold.max_event_id()
    seqs: Dict[int, int] = dict(cold.seq_maxima())
    hot_events = 0
    for block, visible in hot.column_blocks():
        hot_events += visible
        max_eid = max(max_eid, block.max_event_id)
        agents = block.agents
        for code, seq in zip(block.agent_codes, block.seqs):
            if seq > seqs.get(agents[code], 0):
                seqs[agents[code]] = seq
    ingestor.resume(
        next_event_id=max_eid + 1,
        seqs=seqs,
        events_ingested=hot_events + cold.event_count,
    )

    store = TieredStore(hot, cold, retention_days=retention_days)
    ingestor.attach_wal(
        wal,
        logged_entity_ids=(e.id for e in registry),
        lock=store.writer_lock,
    )
    report = RecoveryReport(
        snapshot_events=snapshot_events,
        wal_events_replayed=wal_events,
        cold_events=cold.event_count,
        duplicates_reconciled=duplicates,
        next_event_id=max_eid + 1,
    )
    return store, wal, report


def checkpoint(data_dir, store: TieredStore, wal: WriteAheadLog) -> int:
    """Snapshot the registry + hot tier, then truncate the WAL.

    Runs under the store's writer lock so the snapshot is an exact,
    batch-consistent image of the hot tier (cold segments are durable on
    their own and are deliberately *not* re-written).  Ordering makes the
    pair crash-safe: the snapshot replaces its predecessor atomically
    before the WAL resets, and a crash in between merely replays
    snapshot-covered records as no-ops.  Returns hot events written.
    """
    with store.writer_lock:
        written = write_snapshot(
            snapshot_path(data_dir), store.registry, store.hot.column_blocks()
        )
        wal.reset()
    return written
