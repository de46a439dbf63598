"""Fault-injection integration: kills mid-scan and mid-ingest (ISSUE 9).

The differential proofs behind the fault-tolerant sharded deployment:

* a seeded :class:`FaultPlan` SIGKILLs 1 of 4 shard workers at its first
  scatter scan; supervised recovery (respawn + WAL replay + entity
  replay) brings it back and the full corpus still answers byte-equal
  to the never-faulted single-process reference;
* a worker SIGKILLed mid-commit fails the batch fast with the precise
  acked/failed shard split, the torn slices never surface in any scan
  (even after later commits raise the watermark), and every batch that
  *was* acknowledged survives — including across a full restart of the
  deployment from disk;
* degraded reads after an unrecoverable loss stay watermark-consistent:
  answering shards return exactly their committed slices, annotated.

Worker processes are real (``spawn``); rates are kept small.
"""

import os
import signal

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.shard import ShardCommitError, ShardedStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise

RATE = 20

# Seed 7 over 4 shards: kill@2:scan#0 (+ a small delay on shard 0) —
# the victim dies at its very first scatter scan, mid-corpus.
SCAN_KILL_SEED = "7"

@pytest.fixture(scope="module")
def reference():
    """Never-faulted single-process answers for every corpus query."""
    enterprise = build_enterprise(
        stores=("partitioned",), events_per_host_day=RATE
    )
    system = AIQLSystem.over(
        enterprise.store("partitioned"), ingestor=enterprise.ingestor
    )
    return {
        query.qid: set(system.query(query.text).rows) for query in ALL_QUERIES
    }, enterprise.total_events


def test_kill_mid_scan_recovers_to_reference(reference, tmp_path):
    """Seeded kill at the first scatter scan; corpus equals reference."""
    config = SystemConfig(
        shards=4,
        data_dir=str(tmp_path),
        wal_sync=False,
        shard_chaos=SCAN_KILL_SEED,
        shard_heartbeat_interval_s=0,
        shard_command_timeout_s=30.0,
        shard_scan_timeout_s=60.0,
    )
    answers, total = reference
    system = AIQLSystem(config)
    try:
        build_enterprise(
            stores=(), ingestor=system.ingestor, events_per_host_day=RATE,
            stream_batch_size=128,
        )
        assert len(system.store) == total
        routed_before = system.stats()["scatter_gather"]["routed_queries"]
        for query in ALL_QUERIES:
            result = system.query(query.text)
            assert set(result.rows) == answers[query.qid], (
                f"the deployment diverged from the never-faulted reference on "
                f"{query.qid} after supervised recovery"
            )
            # Durable recovery is lossless: answers are never annotated.
            assert result.meta.get("completeness") is None
        stats = system.stats()
        # Point queries run whole on their shard and send no ``scan``; the
        # multi-owner ones still scatter, so the scan#0 kill must fire.
        assert stats["scatter_gather"]["routed_queries"] > routed_before
        health = stats["shard_health"]
        assert health["restarts"] == 1
        assert health["lost_events"] == 0
        assert health["failed_shards"] == []
    finally:
        system.close()


# Agents drawn from four agent-groups (agents_per_group=10), so every
# day-batch routes slices to all four shards — multi-shard commits.
SPREAD_AGENTS = (1, 2, 11, 12, 21, 22, 31, 32)


def _entities(ingestor, agents):
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


class TestKillMidIngest:
    def _run(self, tmp_path):
        config = SystemConfig(
            shards=4,
            data_dir=str(tmp_path),
            wal_sync=False,
            shard_chaos="kill@1:batch#2",
            shard_heartbeat_interval_s=0,
            shard_command_timeout_s=30.0,
        )
        ingestor = Ingestor()
        store = ShardedStore(ingestor, config)
        ingestor.attach(store)
        # Every day-batch spans all four shards, so shard 1 receives one
        # batch command per commit — its third one (day 2) kills it.
        entities = _entities(ingestor, SPREAD_AGENTS)
        committed, failed = [], None
        for day in range(8):
            batch = _day_batch(ingestor, entities, day)
            try:
                ingestor.commit(batch)
                committed.append(batch)
            except ShardCommitError as exc:
                assert failed is None, "only one planned fault"
                failed = (batch, exc)
        return store, committed, failed

    def test_commit_reports_precise_ack_split(self, tmp_path):
        store, committed, failed = self._run(tmp_path)
        try:
            assert failed is not None, "planned kill never fired"
            batch, exc = failed
            assert exc.failed_shards == (1,)
            assert exc.acked_shards  # other shards did commit slices
            assert 1 not in exc.acked_shards
            assert committed  # commits before and after the fault landed
            assert len(committed) == 7
        finally:
            store.close()

    def test_torn_slices_never_surface(self, tmp_path):
        """The failed batch is all-or-nothing: its acked slices stay
        invisible even after later commits raise the watermark."""
        store, committed, failed = self._run(tmp_path)
        try:
            failed_ids = {e.event_id for e in failed[0]}
            committed_ids = {
                e.event_id for batch in committed for e in batch
            }
            scanned = {e.event_id for e in store.scan(EventFilter())}
            assert scanned == committed_ids
            assert not scanned & failed_ids
            full = {e.event_id for e in store.full_scan(EventFilter())}
            assert not full & failed_ids
        finally:
            store.close()

    def test_quarantine_holds_exactly_the_acked_slices_ids(self, tmp_path):
        """The ids the coordinator hides after the failed commit are those
        of the slices the other shards acknowledged — read off the slice
        columns — no more (the dead shard's slice never committed) and no
        less."""
        store, _, failed = self._run(tmp_path)
        try:
            batch, exc = failed
            acked_ids = {
                e.event_id
                for e in batch
                if store.shard_of(store.scheme.key_for(e.agent_id, e.start_time))
                in exc.acked_shards
            }
            assert acked_ids and len(acked_ids) < len(batch)
            assert store._torn == acked_ids
        finally:
            store.close()

    def test_no_acked_batch_lost_across_restart(self, tmp_path):
        """Every acknowledged batch survives a full deployment restart
        (per-shard WAL replay on the way up)."""
        store, committed, failed = self._run(tmp_path)
        committed_ids = {e.event_id for batch in committed for e in batch}
        health = store.stats()["shard_health"]
        assert health["restarts"] == 1  # supervised heal after the kill
        store.close()
        reopened = ShardedStore(
            Ingestor(),
            SystemConfig(
                shards=4,
                data_dir=str(tmp_path),
                wal_sync=False,
                shard_heartbeat_interval_s=0,
            ),
        )
        try:
            scanned = {e.event_id for e in reopened.scan(EventFilter())}
            missing = committed_ids - scanned
            assert not missing, f"acked events lost across restart: {missing}"
        finally:
            reopened.close()


class TestDegradedWatermarkConsistency:
    def test_degraded_reads_return_exactly_committed_slices(self):
        """After an unrecoverable shard loss, answering shards return
        exactly the slices of fully-acknowledged batches — and a commit
        refused by the dead shard adds nothing anywhere."""
        config = SystemConfig(
            shards=4,
            shard_read_policy="degraded",
            shard_max_restarts=0,
            shard_heartbeat_interval_s=0,
            shard_command_timeout_s=30.0,
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
            proc = store._procs[victim]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            store.supervisor.check()  # quarantine; budget 0 -> failed
            with pytest.raises(ShardCommitError) as exc_info:
                ingestor.commit(_day_batch(ingestor, entities, 5))
            assert exc_info.value.acked_shards == ()
            result = store.scan_columns(EventFilter())
            events = result.events()
            expected = {
                e.event_id
                for batch in committed
                for e in batch
                if store.shard_of(
                    store.scheme.key_for(e.agent_id, e.start_time)
                )
                != victim
            }
            assert {e.event_id for e in events} == expected
            completeness = result.completeness
            assert completeness is not None
            assert completeness.missing_shards == (victim,)
            assert completeness.estimated_missed_rows == acked_before
            assert completeness.watermark == store._committed
        finally:
            store.close()
