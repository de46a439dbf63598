"""Sharded multi-process deployment (ISSUE 7, fault tolerance ISSUE 9).

The store partitioned by ``(day, agent-group)`` across N worker
processes — each with its own hot tier, WAL and cold segments — behind
a coordinator that routes ingest, sends a query only one shard can answer
whole to that shard, scatter/gathers the scans of every other query as
serialized column-block slices, and merges per-shard recovery.  Enabled through
``SystemConfig(shards=N)``.

Deployments are supervised: every coordinator command runs under a
deadline, dead or wedged workers are quarantined, respawned and
re-admitted (WAL replay + entity-registry replay), idempotent commands
retry with bounded backoff, and the configured read policy decides
whether a scan missing a shard fails fast or answers degraded with a
:class:`ScanCompleteness` annotation.  A deterministic
:class:`FaultPlan` (``SystemConfig(shard_chaos=...)``, ``corpus
--chaos``, or ``AIQL_SHARD_CHAOS``) injects kills, wedges and delays at
exact command counts for reproducible failure drills.
"""

from repro.shard.chaos import (
    ChaosAgent,
    ChaosSpecError,
    Fault,
    FaultPlan,
    plan_from_env,
)
from repro.shard.coordinator import (
    ScanCompleteness,
    ShardCommitError,
    ShardError,
    ShardReadPolicy,
    ShardTimeout,
    ShardedStore,
)
from repro.shard.supervisor import ShardHealth, ShardSupervisor
from repro.shard.worker import ShardSpec, shard_worker_main
from repro.shard.wire import (
    WireError,
    decode_events,
    decode_result,
    encode_events,
    encode_result,
)

__all__ = [
    "ChaosAgent",
    "ChaosSpecError",
    "Fault",
    "FaultPlan",
    "ScanCompleteness",
    "ShardCommitError",
    "ShardError",
    "ShardHealth",
    "ShardReadPolicy",
    "ShardSpec",
    "ShardSupervisor",
    "ShardTimeout",
    "ShardedStore",
    "WireError",
    "decode_events",
    "decode_result",
    "encode_events",
    "encode_result",
    "plan_from_env",
    "shard_worker_main",
]
