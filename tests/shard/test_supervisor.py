"""Shard supervision: sentinels, heartbeats, recovery, read policies.

Worker processes are real (``spawn``), so deployments are small and
most fixtures function-scoped — each test mutates deployment health.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.model.time import DAY, TimeWindow
from repro.shard import ShardError, ShardTimeout, ShardedStore
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from tests.oracle import rows


def populate(ingestor, agents=(1, 2, 3), days=3, per_day=2):
    for agent in agents:
        shell = ingestor.process(agent, 100, "bash")
        log = ingestor.file(agent, "/var/log/syslog")
        for day in range(days):
            base = day * DAY + 60.0 * agent
            for i in range(per_day):
                ingestor.emit(agent, base + 10 * (i + 1), "write", shell, log,
                              amount=64 * (i + 1))


def build(tmp_path=None, **overrides):
    kwargs = dict(
        shards=2,
        data_dir=str(tmp_path) if tmp_path is not None else None,
        wal_sync=False,
        shard_command_timeout_s=15.0,
        shard_scan_timeout_s=30.0,
        shard_heartbeat_interval_s=0,  # explicit check() calls only
    )
    kwargs.update(overrides)
    config = SystemConfig(**kwargs)
    ingestor = Ingestor()
    store = ShardedStore(ingestor, config)
    ingestor.attach(store)
    populate(ingestor)
    return store


def kill_worker(store, shard):
    proc = store._procs[shard]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    assert not proc.is_alive()


class TestSentinelRecovery:
    def test_check_detects_and_restarts_dead_worker(self, tmp_path):
        store = build(tmp_path)
        try:
            before = len(rows(store, EventFilter()))
            kill_worker(store, 1)
            recovered = store.supervisor.check()
            assert recovered == [1]
            health = store.supervisor.health[1]
            assert health.restarts == 1
            assert not health.quarantined
            assert health.lost_events == 0  # durable: WAL replay restores
            assert health.last_recovery_s is not None
            # The deployment serves the full answer again.
            assert len(rows(store, EventFilter())) == before
        finally:
            store.close()

    def test_scan_recovers_dead_worker_inline(self, tmp_path):
        """A scan hitting a dead pipe recovers and retries by itself."""
        store = build(tmp_path)
        try:
            before = len(rows(store, EventFilter()))
            kill_worker(store, 0)
            assert len(rows(store, EventFilter())) == before
            assert store.supervisor.health[0].restarts == 1
            assert store.supervisor.health[0].retries >= 1
        finally:
            store.close()

    def test_ram_only_restart_reports_lost_events(self):
        store = build()
        try:
            acked = store._shard_acked[1]
            assert acked > 0
            kill_worker(store, 1)
            store.supervisor.check()
            assert store.supervisor.health[1].lost_events == acked
            summary = store.stats()["shard_health"]
            assert summary["lost_events"] == acked
        finally:
            store.close()


class TestWedgedWorker:
    def test_wedge_times_out_and_recovers(self, tmp_path):
        """A wedged (alive but stuck) worker blows the deadline, is
        SIGKILLed, respawned, and the scan retried — bounded wait, full
        answer, no leaked straggler blocking the drain."""
        store = build(
            tmp_path,
            shard_chaos="wedge@1:scan#0",
            shard_scan_timeout_s=2.0,
        )
        try:
            started = time.monotonic()
            events = rows(store, EventFilter())
            elapsed = time.monotonic() - started
            assert events  # full answer after recovery
            health = store.supervisor.health[1]
            assert health.timeouts >= 1
            assert health.restarts == 1
            # Deadline + recovery + retry, not the 3600 s wedge.
            assert elapsed < 30
        finally:
            store.close()


class TestFailedRespawn:
    def test_sweep_retries_a_shard_a_failed_respawn_left_quarantined(
        self, tmp_path
    ):
        """One failed respawn does not take a shard out for good: the next
        sweep re-attempts it while the restart budget lasts."""
        store = build(tmp_path, shard_max_restarts=3)
        try:
            before = len(rows(store, EventFilter()))
            spawn = store._spawn_worker
            failures = []

            def fail_once(index, faults=()):
                if not failures:
                    failures.append(index)
                    raise OSError("spawn refused")
                return spawn(index, faults=faults)

            store._spawn_worker = fail_once
            kill_worker(store, 1)
            assert store.supervisor.check() == [1]
            health = store.supervisor.health[1]
            assert failures == [1]
            assert health.quarantined and not health.failed
            assert health.restarts == 1
            with pytest.raises(ShardError):
                rows(store, EventFilter())  # fail_fast while it is out
            assert store.supervisor.check() == [1]
            assert health.restarts == 2
            assert not health.quarantined and not health.failed
            assert len(rows(store, EventFilter())) == before
            assert store.supervisor.check() == []  # healthy: nothing to do
        finally:
            store.close()


class TestHello:
    """A worker's hello comes only after its spawn, its imports and a
    durable shard's replay, so it waits under the longer of the command
    and scan deadlines, not under the ping deadline.  Two spawned
    workers took 0.4-0.9 s to say hello on a 2-vCPU box, so a 0.2 s
    command deadline must not apply to it."""

    @staticmethod
    def reference(ingestor):
        store = EventStore(
            registry=ingestor.registry,
            scheme=PartitionScheme(agents_per_group=10),
        )
        ingestor.attach(store)
        return store

    def test_a_short_command_deadline_still_starts_the_deployment(self):
        ingestor = Ingestor()
        store = ShardedStore(
            ingestor, SystemConfig(shards=2, shard_command_timeout_s=0.2)
        )
        try:
            ingestor.attach(store)
            reference = self.reference(ingestor)
            populate(ingestor)
            assert len(store) == len(reference) > 0
            assert rows(store, EventFilter()) == rows(reference, EventFilter())
        finally:
            store.close()

    def test_a_killed_worker_respawns_under_a_short_command_deadline(
        self, tmp_path
    ):
        ingestor = Ingestor()
        store = ShardedStore(
            ingestor,
            SystemConfig(
                shards=2,
                shard_command_timeout_s=0.2,
                data_dir=str(tmp_path),
                wal_sync=False,
                shard_heartbeat_interval_s=0,  # explicit check() only
            ),
        )
        try:
            ingestor.attach(store)
            reference = self.reference(ingestor)
            populate(ingestor)
            kill_worker(store, 1)
            assert store.supervisor.check() == [1]
            health = store.supervisor.health[1]
            assert health.restarts == 1 and not health.quarantined
            assert rows(store, EventFilter()) == rows(reference, EventFilter())
        finally:
            store.close()

    def test_a_durable_respawn_replays_a_registry_larger_than_the_pipe(
        self, tmp_path
    ):
        """The registry replay is sent only once the hello is read.  A
        durable worker's hello carries the registry too; were both sent
        at once, two writes larger than the pipe's buffer would each wait
        for the other side to read."""
        store = build(tmp_path)
        ingestor = store.ingestor
        try:
            batch = []
            for i in range(6000):  # ~470 kB of entity records each way
                proc = ingestor.process(1, 1000 + i, f"/usr/bin/tool-{i}")
                log = ingestor.file(1, f"/var/log/app/deep/path/file-{i}.log")
                batch.append(
                    ingestor.build_event(1, 10.0 + i, "write", proc, log)
                )
            ingestor.commit(batch)
            before = len(rows(store, EventFilter()))
            kill_worker(store, 0)
            sweep = threading.Thread(target=store.supervisor.check, daemon=True)
            sweep.start()
            sweep.join(60)
            hung = sweep.is_alive()
            if hung:  # break the stuck write so close() can run
                store._procs[0].kill()
                sweep.join(10)
            assert not hung, "respawn hung writing the registry replay"
            assert store.supervisor.health[0].restarts == 1
            assert len(rows(store, EventFilter())) == before
        finally:
            store.close()


class TestReadPolicies:
    def test_fail_fast_raises_when_shard_unrecoverable(self):
        store = build(shard_max_restarts=0, shard_read_policy="fail_fast")
        try:
            kill_worker(store, 1)
            with pytest.raises((ShardError, ShardTimeout)):
                rows(store, EventFilter())
            assert store.supervisor.health[1].failed
        finally:
            store.close()

    def test_degraded_answers_from_survivors_with_annotation(self):
        store = build(shard_max_restarts=0, shard_read_policy="degraded")
        try:
            full = rows(store, EventFilter())
            acked = store._shard_acked[1]
            kill_worker(store, 1)
            result = store.scan_columns(EventFilter())
            events = result.events()
            assert 0 < len(events) < len(full)
            completeness = result.completeness
            assert completeness is not None
            assert completeness.missing_shards == (1,)
            assert completeness.estimated_missed_rows == acked
            assert completeness.total_shards == 2
            # Survivors' rows are exactly the reference rows they own.
            surviving_ids = {e.event_id for e in events}
            expected = {
                e.event_id
                for e in full
                if store.shard_of(
                    store.scheme.key_for(e.agent_id, e.start_time)
                )
                != 1
            }
            assert surviving_ids == expected
            assert store.stats()["shard_health"]["degraded_scans"] >= 1
        finally:
            store.close()

    def test_only_an_owner_shard_can_fail_or_degrade_a_scan(self):
        """Agents 1-3 share group 0, so day ``d`` lives on shard ``d % 2``:
        a filter that names its agents and bounds its window to day 0 (or
        2) is owned by shard 0 alone and never asks the dead shard 1."""
        store = build(shard_max_restarts=0)  # fail_fast reads
        try:
            day0 = EventFilter(
                agent_ids=frozenset({1, 2}), window=TimeWindow(start=0.0, end=DAY)
            )
            day1 = EventFilter(
                agent_ids=frozenset({1, 2}),
                window=TimeWindow(start=DAY, end=2 * DAY),
            )
            both_days = EventFilter(
                agent_ids=frozenset({1, 2}), window=TimeWindow(start=0.0, end=2 * DAY)
            )
            before = {
                flt: rows(store, flt) for flt in (day0, day1, both_days)
            }
            assert all(before.values())
            kill_worker(store, 1)
            store.supervisor.check()  # quarantine; budget 0 -> failed
            # the dead shard owns nothing day0 can match: a full answer
            result = store.scan_columns(day0)
            assert result.events() == before[day0]
            assert result.completeness is None
            # ... but it is an owner of these, and of any unbounded filter
            for flt in (day1, both_days, EventFilter(agent_ids=frozenset({1}))):
                with pytest.raises(ShardError):
                    rows(store, flt)
            # degraded reads: the annotation counts owners, not the fleet
            store.read_policy = "degraded"
            assert store.scan_columns(day0).completeness is None
            lone = store.scan_columns(day1).completeness
            assert lone.missing_shards == (1,) and lone.total_shards == 1
            assert rows(store, day1) == []
            wide = store.scan_columns(both_days)
            assert wide.completeness.missing_shards == (1,)
            assert wide.completeness.total_shards == 2
            assert wide.events() == before[day0]
        finally:
            store.close()

    def test_restart_budget_exhaustion_marks_failed(self):
        store = build(shard_max_restarts=1, shard_read_policy="degraded")
        try:
            kill_worker(store, 0)
            store.supervisor.check()
            assert store.supervisor.health[0].restarts == 1
            kill_worker(store, 0)
            store.supervisor.check()
            health = store.supervisor.health[0]
            assert health.failed
            assert store.stats()["shard_health"]["failed_shards"] == [0]
            # Degraded reads still answer.
            assert store.scan_columns(EventFilter()).completeness is not None
        finally:
            store.close()


class TestCommitFailFast:
    def test_commit_refused_when_target_shard_down(self):
        from repro.shard import ShardCommitError

        store = build(shard_max_restarts=0, shard_read_policy="degraded")
        try:
            kill_worker(store, 0)
            store.supervisor.check()  # quarantine + mark failed
            ingestor = store.ingestor
            shell = ingestor.process(9, 100, "bash")
            log = ingestor.file(9, "/tmp/x")
            with pytest.raises(ShardCommitError) as exc_info:
                for day in range(4):  # touch partitions on both shards
                    ingestor.emit(9, day * DAY + 5.0, "write", shell, log)
            assert exc_info.value.acked_shards == ()
            assert 0 in exc_info.value.failed_shards
        finally:
            store.close()

    def test_watermark_not_raised_on_refused_commit(self):
        from repro.shard import ShardCommitError

        store = build(shard_max_restarts=0, shard_read_policy="degraded")
        try:
            before = len(store)
            watermark = store._committed
            kill_worker(store, 0)
            store.supervisor.check()
            ingestor = store.ingestor
            shell = ingestor.process(9, 100, "bash")
            log = ingestor.file(9, "/tmp/x")
            with pytest.raises(ShardCommitError):
                for day in range(4):
                    ingestor.emit(9, day * DAY + 5.0, "write", shell, log)
            assert store._committed == watermark
            assert len(store) == before
        finally:
            store.close()


class TestLifecycle:
    def test_close_is_idempotent_and_counts_leaks(self, tmp_path):
        store = build(tmp_path)
        store.close()
        store.close()
        assert store.leaked_workers == 0
        assert all(
            proc is None or not proc.is_alive() for proc in store._procs
        )
        # stats() still answers after close (no scatter to dead pipes).
        stats = store.stats()
        assert stats["closed"] is True
        assert "shard_health" in stats

    def test_close_after_quarantine(self):
        store = build()
        kill_worker(store, 1)
        store.supervisor.check()
        store.close()
        assert all(
            proc is None or not proc.is_alive() for proc in store._procs
        )

    def test_stats_include_health_summary(self):
        store = build()
        try:
            health = store.stats()["shard_health"]
            assert health["restarts"] == 0
            assert health["failed_shards"] == []
            assert len(health["per_shard"]) == 2
            assert all(entry["alive"] for entry in health["per_shard"])
        finally:
            store.close()


class TestHeartbeatThread:
    def test_background_sweep_recovers_without_queries(self, tmp_path):
        store = build(tmp_path, shard_heartbeat_interval_s=0.2)
        try:
            kill_worker(store, 1)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if store.supervisor.health[1].restarts:
                    break
                time.sleep(0.05)
            assert store.supervisor.health[1].restarts == 1
            assert len(rows(store, EventFilter())) > 0
        finally:
            store.close()
