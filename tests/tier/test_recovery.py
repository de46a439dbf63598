"""Data-dir recovery: snapshot + WAL replay, reconciliation, counters."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.storage.filters import EventFilter
from repro.tier import checkpoint, open_data_dir, snapshot_path, wal_path
from repro.storage.ingest import Ingestor
from repro.storage.flat import FlatStore

from tests.tier.conftest import EventFeed, day_ts


def durable_system(tmp_path, **overrides):
    config = SystemConfig(
        data_dir=str(tmp_path / "data"),
        compact_interval_s=3600,
        **overrides,
    )
    return AIQLSystem(config)


def stream_days(system, days=4, per_day=5, agent=1):
    feed = EventFeed(system.ingestor)
    with system.stream(batch_size=3) as session:
        proc, fobj = feed.entities(agent)
        for day in range(days):
            for i in range(per_day):
                session.append(
                    agent, day_ts(day, 600.0 * i), "write", proc, fobj
                )
    return system.ingestor.events_ingested


def content(system):
    return [
        (e.event_id, e.agent_id, e.seq, e.start_time, e.operation)
        for e in system.store.scan(EventFilter())
    ]


class TestFreshStart:
    def test_empty_dir_recovers_to_empty_system(self, tmp_path):
        with durable_system(tmp_path) as system:
            assert system.durable
            assert system.recovery.total_events == 0
            assert len(system.store) == 0

    def test_ram_only_system_refuses_durability_api(self):
        system = AIQLSystem()
        assert not system.durable
        with pytest.raises(RuntimeError):
            system.checkpoint()
        with pytest.raises(RuntimeError):
            system.compact()
        system.close()  # no-op, must not raise


class TestWalOnlyRecovery:
    def test_committed_batches_survive_a_crash(self, tmp_path):
        system = durable_system(tmp_path)
        total = stream_days(system)
        reference = content(system)
        # crash: no checkpoint, no close — the WAL is all there is
        del system
        with AIQLSystem.recover(str(tmp_path / "data")) as recovered:
            assert recovered.recovery.wal_events_replayed == total
            assert recovered.recovery.snapshot_events == 0
            assert recovered.ingestor.events_ingested == total
            assert content(recovered) == reference

    def test_recovery_is_idempotent(self, tmp_path):
        system = durable_system(tmp_path)
        stream_days(system)
        reference = content(system)
        del system
        once = AIQLSystem.recover(str(tmp_path / "data"))
        first = content(once)
        once.close()
        twice = AIQLSystem.recover(str(tmp_path / "data"))
        assert content(twice) == first == reference
        twice.close()

    def test_ingest_continues_after_recovery(self, tmp_path):
        system = durable_system(tmp_path)
        total = stream_days(system, agent=7)
        last = content(system)[-1]
        del system
        recovered = AIQLSystem.recover(str(tmp_path / "data"))
        feed = EventFeed(recovered.ingestor)
        fresh = feed.emit(7, day_ts(9))
        assert fresh.event_id == last[0] + 1  # ids continue the stream
        assert fresh.seq == last[2] + 1  # per-agent seqs continue too
        assert recovered.ingestor.events_ingested == total + 1
        recovered.close()


class TestCheckpoint:
    def test_snapshot_plus_tail_wal(self, tmp_path):
        system = durable_system(tmp_path)
        stream_days(system, days=3)
        written = system.checkpoint()
        assert written == len(system.store)
        assert wal_path(system.config.data_dir).stat().st_size == 0
        # post-checkpoint commits land in the (reset) WAL
        feed = EventFeed(system.ingestor)
        feed.entities(1)
        with system.stream(batch_size=2) as session:
            proc, fobj = feed.entities(1)
            session.append(1, day_ts(8), "write", proc, fobj)
        reference = content(system)
        del system
        with AIQLSystem.recover(str(tmp_path / "data")) as recovered:
            report = recovered.recovery
            assert report.snapshot_events == len(reference) - 1
            assert report.wal_events_replayed == 1
            assert content(recovered) == reference

    def test_checkpoint_after_compaction_snapshots_hot_only(self, tmp_path):
        system = durable_system(tmp_path, retention_days=2)
        stream_days(system, days=5)
        reference = content(system)
        report = system.compact()
        assert report.moved
        system.checkpoint()
        cold_events = system.store.cold.event_count
        del system
        with AIQLSystem.recover(str(tmp_path / "data")) as recovered:
            assert recovered.recovery.cold_events == cold_events
            assert recovered.recovery.snapshot_events == (
                len(reference) - cold_events
            )
            assert content(recovered) == reference


class TestLegacyRefusal:
    """Files of the JSON formats fail loudly; they never look empty."""

    def test_legacy_snapshot_in_the_data_dir(self, tmp_path):
        from repro.storage.persist import SnapshotError

        root = tmp_path / "data"
        root.mkdir()
        legacy = root / "snapshot.jsonl"
        legacy.write_text('{"version": 1, "entities": 0}\n')
        with pytest.raises(SnapshotError, match="JSON format"):
            durable_system(tmp_path)
        assert legacy.read_text() == '{"version": 1, "entities": 0}\n'

    def test_legacy_wal_is_refused_byte_identical(self, tmp_path):
        from repro.tier.wal import WALError

        root = tmp_path / "data"
        root.mkdir()
        content = b'{"n": 1, "eid": 1, "ents": [], "evts": [], "crc": 0}\n'
        wal_path(root).write_bytes(content)
        with pytest.raises(WALError):
            durable_system(tmp_path)
        assert wal_path(root).read_bytes() == content

    def test_version_1_cold_manifest(self, tmp_path):
        import json

        from repro.tier.cold import ColdTierError

        cold = tmp_path / "data" / "cold"
        cold.mkdir(parents=True)
        (cold / "manifest.json").write_text(
            json.dumps({"version": 1, "next_id": 0, "segments": []})
        )
        with pytest.raises(ColdTierError, match="version"):
            durable_system(tmp_path)


class TestInterruptedCheckpoint:
    def test_failure_before_the_rename_keeps_the_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        import os

        system = durable_system(tmp_path)
        stream_days(system, days=2)
        system.checkpoint()
        stream_days(system, days=1, agent=2)
        reference = content(system)

        def no_rename(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="before the rename"):
            system.checkpoint()
        monkeypatch.undo()
        # the WAL was not reset, the old snapshot is intact: nothing is lost
        assert wal_path(system.config.data_dir).stat().st_size > 0
        del system
        with AIQLSystem.recover(str(tmp_path / "data")) as recovered:
            assert content(recovered) == reference

    def test_checkpoint_builds_no_row_objects(self, tmp_path):
        with durable_system(tmp_path) as system:
            stream_days(system, days=2)
            system.checkpoint()
            assert not any(
                block.rows_materialized
                for block, _ in system.store.hot.column_blocks()
            )


class TestRecoveryBuildsNoRows:
    """The recovery twins of ``test_checkpoint_builds_no_row_objects``:
    snapshot frames and WAL records come back as columns."""

    @staticmethod
    def _hot_blocks(system):
        return [block for block, _ in system.store.hot.column_blocks()]

    @pytest.mark.parametrize("backend", ["partitioned", "flat", "segmented"])
    def test_snapshot_plus_wal_without_a_cold_tier(
        self, tmp_path, rows_built, backend
    ):
        system = durable_system(tmp_path, backend=backend)
        stream_days(system, days=3)
        system.checkpoint()
        total = stream_days(system, days=5, agent=12)  # the WAL tail
        del system  # crash
        before = rows_built()
        recovered = AIQLSystem.recover(
            str(tmp_path / "data"), SystemConfig(backend=backend)
        )
        try:
            assert rows_built() == before
            assert recovered.recovery.snapshot_events == 15
            assert recovered.recovery.wal_events_replayed == 25
            assert recovered.ingestor.events_ingested == total
            blocks = self._hot_blocks(recovered)
            assert sum(len(block) for block in blocks) == total
            assert not any(block.rows_materialized for block in blocks)
            assert len(content(recovered)) == total  # and the rows are there
        finally:
            recovered.close()

    def test_snapshot_plus_wal_under_a_cold_tier(self, tmp_path, rows_built):
        system = durable_system(tmp_path, retention_days=2)
        stream_days(system, days=6)
        assert system.compact().moved
        system.checkpoint()
        total = stream_days(system, days=7, agent=3)
        reference = content(system)
        del system
        before = rows_built()
        recovered = AIQLSystem.recover(str(tmp_path / "data"))
        try:
            assert rows_built() == before
            assert recovered.recovery.cold_events == 20
            assert recovered.recovery.snapshot_events == 10
            assert recovered.recovery.wal_events_replayed == 35
            assert not any(
                block.rows_materialized for block in self._hot_blocks(recovered)
            )
            assert recovered.ingestor.events_ingested == total
            assert content(recovered) == reference
        finally:
            recovered.close()

    def test_reconciling_a_half_finished_migration(self, tmp_path, rows_built):
        """The cold probe and the duplicate removal read and rebuild by
        position: the rows a crash left in both tiers leave the hot one
        without a row object being built."""
        system = durable_system(tmp_path)
        stream_days(system, days=3)
        system.checkpoint()
        stream_days(system, days=4, agent=2)
        store = system.store
        day0 = [e for e in store.hot if e.start_time < day_ts(1, 0.0)]
        key = store.partition_scheme.key_for(1, day0[0].start_time)
        store.cold.add_segment(key, [e for e in day0 if e.agent_id == 1])
        reference = content(system)
        del system, store  # crash before the hot removal
        before = rows_built()
        recovered = AIQLSystem.recover(str(tmp_path / "data"))
        try:
            assert rows_built() == before
            assert recovered.recovery.duplicates_reconciled == 5
            assert not any(
                block.rows_materialized for block in self._hot_blocks(recovered)
            )
            assert len(recovered.store) == len(reference)
            assert content(recovered) == reference
        finally:
            recovered.close()


class TestReconciliation:
    def test_crash_between_cold_publish_and_hot_removal(self, tmp_path):
        """Mid-migration crash: events reachable in both tiers converge."""
        ingestor = Ingestor()
        hot = FlatStore(registry=ingestor.registry)
        data_dir = tmp_path / "data"
        store, wal, _ = open_data_dir(data_dir, hot, ingestor)
        ingestor.attach(store)
        feed = EventFeed(ingestor)
        old_day = [feed.emit(1, day_ts(0, 60.0 * i)) for i in range(4)]
        feed.emit(1, day_ts(3))
        # the snapshot covers everything ...
        checkpoint(data_dir, store, wal)
        # ... then a migration publishes its cold segment and crashes
        # before the hot removal (and before any further checkpoint)
        key = store.partition_scheme.key_for(1, old_day[0].start_time)
        store.cold.add_segment(key, old_day)
        wal.close()

        ingestor2 = Ingestor()
        hot2 = FlatStore(registry=ingestor2.registry)
        store2, wal2, report = open_data_dir(data_dir, hot2, ingestor2)
        assert report.duplicates_reconciled == 4
        assert report.cold_events == 4
        assert len(store2) == 5  # no double counting
        ids = [e.event_id for e in store2.scan(EventFilter())]
        assert ids == sorted(set(ids))
        wal2.close()


class TestCheckpointCommitAtomicity:
    def test_wal_appends_serialize_with_checkpoints(self, tmp_path):
        """A commit's WAL append + publication is atomic w.r.t. checkpoint.

        The ingestor's WAL lock must be the tiered store's writer lock;
        a checkpoint racing a commit then snapshots either neither or
        both halves, never an acknowledged batch that is durable nowhere.
        """
        import threading

        system = durable_system(tmp_path)
        assert system.ingestor._wal_lock is system.store.writer_lock

        proc = system.ingestor.process(1, 101, "w.exe")
        fobj = system.ingestor.file(1, "/var/x.log")
        session = system.stream(batch_size=10 ** 9)
        for i in range(5):
            session.append(1, day_ts(0, 60.0 * i), "write", proc, fobj)

        wal = system._wal
        entered, release = threading.Event(), threading.Event()
        original_append = wal.append

        def slow_append(entities, block):
            entered.set()
            assert release.wait(5)
            return original_append(entities, block)

        wal.append = slow_append
        committer = threading.Thread(target=session.commit)
        committer.start()
        assert entered.wait(5)
        checkpointer = threading.Thread(target=system.checkpoint)
        checkpointer.start()
        checkpointer.join(timeout=0.2)
        assert checkpointer.is_alive(), (
            "checkpoint must block while a commit is mid-flight"
        )
        release.set()
        committer.join(timeout=5)
        checkpointer.join(timeout=5)
        total = system.ingestor.events_ingested
        assert total == 5
        del session, system  # crash after the acknowledged commit

        with AIQLSystem.recover(str(tmp_path / "data")) as recovered:
            assert recovered.ingestor.events_ingested == total


class TestConcurrentCompaction:
    def test_racing_compact_passes_write_no_duplicate_segments(self, tmp_path):
        import threading

        system = durable_system(tmp_path, retention_days=1)
        stream_days(system, days=5)
        total = system.ingestor.events_ingested
        barrier = threading.Barrier(2)

        def run():
            barrier.wait()
            system.compact()

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(system.store) == total
        assert (
            len(system.store.hot) + system.store.cold.event_count == total
        )
        system.close()


class TestSystemIntegration:
    def test_background_compactor_starts_with_retention(self, tmp_path):
        with durable_system(tmp_path, retention_days=2) as system:
            assert system.compactor is not None
            assert system.compactor.running
            stats = system.stats()
            assert "wal" in stats and "compactor" in stats
            assert stats["recovery"]["next_event_id"] == 1
        assert not system.compactor.running  # close() stopped it

    def test_no_compactor_without_retention(self, tmp_path):
        with durable_system(tmp_path) as system:
            assert system.compactor is None

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SystemConfig(retention_days=2)  # needs data_dir
        with pytest.raises(ValueError):
            SystemConfig(data_dir="x", retention_days=0)
        with pytest.raises(ValueError):
            SystemConfig(compact_interval_s=0)
        with pytest.raises(ValueError):
            SystemConfig(cold_cache_segments=0)

    def test_snapshot_path_layout(self, tmp_path):
        with durable_system(tmp_path) as system:
            stream_days(system, days=1)
            system.checkpoint()
            root = tmp_path / "data"
            assert snapshot_path(root).exists()
            assert wal_path(root).exists()
            assert (root / "cold").is_dir()
