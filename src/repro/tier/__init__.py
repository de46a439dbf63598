"""Durable tiered storage: WAL, compressed cold segments, compaction.

The paper's deployment keeps "at least a 0.5-1 year worth of data" on
disk; this package is our reproduction of that capacity/durability story
over the in-memory partitioned store:

* :mod:`repro.tier.wal` — every committed stream batch is durable before
  it publishes; replay over the last snapshot recovers a crash.
* :mod:`repro.tier.cold` — immutable, compressed, columnar segments with
  zone maps that prune cold scans (and cost estimates) without
  decompression.
* :mod:`repro.tier.store` — :class:`TieredStore` wraps the partitioned
  :class:`~repro.storage.database.EventStore` as its hot tier with the
  cold-scan path and the migration machinery.
* :mod:`repro.tier.compactor` — the background retention enforcer.
* :mod:`repro.tier.recovery` — data-dir layout, ``open_data_dir`` (fresh
  start and crash recovery are one code path) and ``checkpoint``.
"""

from repro.tier.cold import ColdTier, ColdTierError, ZoneMap
from repro.tier.compactor import Compactor
from repro.tier.recovery import (
    RecoveryReport,
    checkpoint,
    cold_path,
    open_data_dir,
    snapshot_path,
    wal_path,
)
from repro.tier.store import CompactionReport, TieredStore
from repro.tier.wal import WALError, WALRecord, WriteAheadLog

__all__ = [
    "ColdTier",
    "ColdTierError",
    "ZoneMap",
    "Compactor",
    "CompactionReport",
    "TieredStore",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
    "RecoveryReport",
    "open_data_dir",
    "checkpoint",
    "snapshot_path",
    "wal_path",
    "cold_path",
]
