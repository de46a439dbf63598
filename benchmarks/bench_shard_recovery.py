"""Shard fault-tolerance acceptance: recovery time, durability, degraded reads.

The ISSUE-9 acceptance benchmark (machine-readable output in
``BENCH_shard_recovery.json``).  Cells:

* **recovery** — SIGKILL one worker of a durable 4-shard deployment
  mid-corpus, then issue a scatter scan: the coordinator detects the
  dead pipe inline, quarantines, respawns (WAL replay + entity-registry
  replay) and re-gathers.  Time-to-recovery is the wall clock from the
  post-kill scan to its complete answer, reported against the healthy
  scan latency.  Recovery must be lossless (full row count, zero
  ``lost_events``, exactly one restart).
* **durability** — a seeded chaos plan (``kill@1:batch#2``) kills a
  worker mid-commit while every day-batch spans all four shards.  The
  failed batch must report a precise acked/failed split, its torn
  slices must never surface in any scan, and every *acknowledged* batch
  must survive a full deployment restart from disk: zero lost acked
  batches.
* **degraded** — a RAM-only deployment under ``shard_read_policy=
  "degraded"`` with a zero restart budget loses a worker for good:
  scans must answer with exactly the surviving shards' committed
  slices, and the completeness annotation must be *exact* — the missing
  shard id and a missed-row estimate equal to the victim's acked event
  count.

Acceptance gates (``--check`` exits nonzero):

* time-to-recovery under kill <= 5 s at the smoke rate (rate <= 60;
  at larger rates WAL replay grows with the corpus, so the timing gate
  is reported but not enforced — the lossless checks gate at every
  rate);
* zero lost acked batches across kill + restart;
* degraded-read annotations exact.

Run:  PYTHONPATH=src python benchmarks/bench_shard_recovery.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the corpus, default 300 events/host-day)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.shard import ShardCommitError, ShardedStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.workload.loader import build_enterprise

DAYS = 8
REPEATS = 5
SMOKE_RATE = 60  # the timing gate only enforces at/below this rate
RECOVERY_BUDGET_S = 5.0

# Agents drawn from four agent-groups (agents_per_group=10), so every
# day-batch routes slices to all four shards — multi-shard commits.
SPREAD_AGENTS = (1, 2, 11, 12, 21, 22, 31, 32)


def median_ms(runner) -> float:
    runner()  # warm caches once
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        runner()
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def _kill_worker(store: ShardedStore, shard: int) -> None:
    proc = store._procs[shard]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


def _entities(ingestor: Ingestor, agents):
    return {
        agent: (
            ingestor.process(agent, 100, "bash"),
            ingestor.file(agent, f"/var/log/host{agent}.log"),
        )
        for agent in agents
    }


def _day_batch(ingestor, entities, day, per_agent=3):
    batch = []
    for agent, (shell, log) in entities.items():
        for i in range(per_agent):
            batch.append(
                ingestor.build_event(
                    agent,
                    day * DAY + 60.0 * agent + 10 * (i + 1),
                    "write",
                    shell,
                    log,
                    amount=64 * (i + 1),
                )
            )
    return batch


def bench_recovery(rate: int, root: Path) -> dict:
    """Kill a durable worker, time the inline heal-and-regather."""
    system = AIQLSystem(
        SystemConfig(
            shards=4,
            data_dir=str(root / "recovery"),
            wal_sync=False,
            compact_interval_s=3600,
            shard_heartbeat_interval_s=0,
        )
    )
    try:
        build_enterprise(
            stores=(),
            ingestor=system.ingestor,
            events_per_host_day=rate,
            days=DAYS,
            stream_batch_size=512,
        )
        total = len(system.store)
        flt = EventFilter()
        healthy_ms = median_ms(lambda: system.store.scan_columns(flt).events())

        victim = 2
        _kill_worker(system.store, victim)
        started = time.perf_counter()
        rows = system.store.scan_columns(flt).events()  # dead pipe -> inline recovery
        recovery_s = time.perf_counter() - started
        health = system.stats()["shard_health"]
        return {
            "events": total,
            "healthy_scan_ms": round(healthy_ms, 3),
            "recovery_s": round(recovery_s, 3),
            "rows_after_recovery": len(rows),
            "lossless": len(rows) == total,
            "restarts": health["restarts"],
            "lost_events": health["lost_events"],
            "failed_shards": health["failed_shards"],
        }
    finally:
        system.close()


def bench_durability(root: Path) -> dict:
    """Kill a worker mid-commit; acked batches must survive a restart."""
    data_dir = root / "durability"
    config = SystemConfig(
        shards=4,
        data_dir=str(data_dir),
        wal_sync=False,
        shard_chaos="kill@1:batch#2",
        shard_heartbeat_interval_s=0,
    )
    ingestor = Ingestor()
    store = ShardedStore(ingestor, config)
    ingestor.attach(store)
    entities = _entities(ingestor, SPREAD_AGENTS)
    committed, failed = [], None
    for day in range(DAYS):
        batch = _day_batch(ingestor, entities, day)
        try:
            ingestor.commit(batch)
            committed.append(batch)
        except ShardCommitError as exc:
            failed = (batch, exc)
    acked_ids = {e.event_id for batch in committed for e in batch}
    torn_ids = {e.event_id for e in failed[0]} if failed else set()
    scanned = {e.event_id for e in store.scan_columns(EventFilter()).events()}
    health = store.stats()["shard_health"]
    store.close()

    reopened = ShardedStore(
        Ingestor(),
        SystemConfig(
            shards=4,
            data_dir=str(data_dir),
            wal_sync=False,
            shard_heartbeat_interval_s=0,
        ),
    )
    try:
        survived = {
            e.event_id for e in reopened.scan_columns(EventFilter()).events()
        }
    finally:
        reopened.close()
    lost_batches = sum(
        1
        for batch in committed
        if any(e.event_id not in survived for e in batch)
    )
    return {
        "batches_committed": len(committed),
        "fault_fired": failed is not None,
        "failed_shards": list(failed[1].failed_shards) if failed else [],
        "acked_shards": list(failed[1].acked_shards) if failed else [],
        "restarts": health["restarts"],
        "torn_slices_hidden": not (scanned & torn_ids),
        "scan_is_exactly_acked": scanned == acked_ids,
        "lost_acked_batches": lost_batches,
        "lost_acked_events": len(acked_ids - survived),
    }


def bench_degraded() -> dict:
    """Lose a RAM-only worker for good; annotation must be exact."""
    config = SystemConfig(
        shards=4,
        shard_read_policy="degraded",
        shard_max_restarts=0,
        shard_heartbeat_interval_s=0,
    )
    ingestor = Ingestor()
    store = ShardedStore(ingestor, config)
    ingestor.attach(store)
    entities = _entities(ingestor, SPREAD_AGENTS)
    committed = []
    for day in range(4):
        batch = _day_batch(ingestor, entities, day)
        ingestor.commit(batch)
        committed.append(batch)
    try:
        victim = 2
        acked_before = store._shard_acked[victim]
        _kill_worker(store, victim)
        store.supervisor.check()  # quarantine; zero budget -> failed
        started = time.perf_counter()
        result = store.scan_columns(EventFilter())
        degraded_ms = (time.perf_counter() - started) * 1000
        rows = {e.event_id for e in result.events()}
        expected = {
            e.event_id
            for batch in committed
            for e in batch
            if store.shard_of(store.scheme.key_for(e.agent_id, e.start_time))
            != victim
        }
        note = result.completeness
        annotation_exact = (
            note is not None
            and note.missing_shards == (victim,)
            and note.estimated_missed_rows == acked_before
            and note.watermark == store._committed
        )
        return {
            "degraded_scan_ms": round(degraded_ms, 3),
            "rows": len(rows),
            "rows_exact": rows == expected,
            "victim_acked_events": acked_before,
            "annotation": note.to_dict() if note else None,
            "annotation_exact": annotation_exact,
        }
    finally:
        store.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_shard_recovery.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))

    root = Path(tempfile.mkdtemp(prefix="bench-shard-recovery-"))
    try:
        print(f"recovery cell at rate={rate}...", file=sys.stderr)
        recovery = bench_recovery(rate, root)
        print("durability cell...", file=sys.stderr)
        durability = bench_durability(root)
        print("degraded cell...", file=sys.stderr)
        degraded = bench_degraded()

        checks = {
            "recovery_lossless": (
                recovery["lossless"]
                and recovery["lost_events"] == 0
                and recovery["restarts"] == 1
                and recovery["failed_shards"] == []
            ),
            "durability_fault_fired": durability["fault_fired"],
            "durability_torn_slices_hidden": (
                durability["torn_slices_hidden"]
                and durability["scan_is_exactly_acked"]
            ),
            "durability_zero_lost_acked_batches": (
                durability["lost_acked_batches"] == 0
                and durability["lost_acked_events"] == 0
            ),
            "degraded_rows_exact": degraded["rows_exact"],
            "degraded_annotation_exact": degraded["annotation_exact"],
        }
        if rate <= SMOKE_RATE:
            # WAL replay time grows with the corpus, so the absolute
            # budget only gates at the smoke rate CI runs.
            checks["recovery_under_5s"] = (
                recovery["recovery_s"] <= RECOVERY_BUDGET_S
            )
        result = {
            "bench": "shard_recovery",
            "workload": {
                "rate": rate,
                "days": DAYS,
                "shards": 4,
                "recovery_budget_s": RECOVERY_BUDGET_S,
            },
            "recovery": recovery,
            "durability": durability,
            "degraded": degraded,
            "checks": checks,
        }
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        if args.check and not all(checks.values()):
            failed = sorted(k for k, v in checks.items() if not v)
            print(f"ACCEPTANCE FAILED: {failed}", file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
