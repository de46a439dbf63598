"""StreamSession: batched atomic commits, watermark, exactly-once validation."""

import pytest

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.time import DAY
from repro.service.stream import StreamSession
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import IngestError, Ingestor
from repro.storage.partition import PartitionScheme
from tests.oracle import rows


def make_session(batch_size=4, extra_stores=()):
    ingestor = Ingestor()
    store = EventStore(
        registry=ingestor.registry,
        scheme=PartitionScheme(agents_per_group=1),
    )
    ingestor.attach(store)
    for name in extra_stores:
        if name == "flat":
            ingestor.attach(FlatStore(registry=ingestor.registry))
        elif name == "segmented":
            ingestor.attach(
                SegmentedStore(registry=ingestor.registry, segments=3)
            )
    session = StreamSession(ingestor, batch_size=batch_size)
    return ingestor, store, session


def entities(ingestor, agent_id=1):
    proc = ingestor.process(agent_id, 10, "bash")
    target = ingestor.file(agent_id, f"/data/a{agent_id}")
    return proc, target


class TestStreamSession:
    def test_append_is_invisible_until_commit(self):
        _, store, session = make_session(batch_size=100)
        proc, target = entities(session)
        session.append(1, 5.0, "read", proc, target)
        assert len(store) == 0
        assert session.pending == 1
        watermark = session.commit()
        assert watermark == 1
        assert len(store) == 1
        assert session.pending == 0

    def test_auto_commit_at_batch_size(self):
        _, store, session = make_session(batch_size=3)
        proc, target = entities(session)
        session.append(1, 5.0, "read", proc, target)
        session.append(1, 6.0, "read", proc, target)
        assert len(store) == 0
        session.append(1, 7.0, "read", proc, target)  # fills the batch
        assert len(store) == 3
        assert session.batches_committed == 1

    def test_watermark_monotone_and_read_your_writes(self):
        _, store, session = make_session(batch_size=100)
        proc, target = entities(session)
        marks = []
        for batch in range(3):
            for i in range(4):
                session.append(1, batch * 10.0 + i, "read", proc, target)
            marks.append(session.commit())
            # Read-your-writes: a scan after observing the watermark sees
            # every committed event.
            assert len(rows(store, EventFilter())) == marks[-1]
        assert marks == sorted(marks) == [4, 8, 12]

    def test_empty_commit_is_noop(self):
        _, _, session = make_session()
        before = session.watermark
        assert session.commit() == before
        assert session.batches_committed == 0

    def test_context_manager_commits_tail(self):
        _, store, session = make_session(batch_size=100)
        proc, target = entities(session)
        with session:
            session.append(1, 5.0, "read", proc, target)
        assert len(store) == 1

    def test_invalid_event_rejected_at_append_and_not_staged(self):
        _, store, session = make_session(batch_size=100)
        proc, target = entities(session)
        with pytest.raises(IngestError):
            session.append(1, 5.0, "start", proc, target)  # can't start a file
        assert session.pending == 0
        session.commit()
        assert len(store) == 0

    def test_invalid_batch_size_rejected(self):
        ingestor = Ingestor()
        with pytest.raises(ValueError):
            StreamSession(ingestor, batch_size=0)

    def test_entity_helpers_delegate_to_ingestor(self):
        ingestor, store, session = make_session()
        proc = session.process(1, 10, "bash")
        target = session.file(1, "/x")
        conn = session.connection(1, "10.0.0.1", 1000, "10.0.0.2", 443)
        assert session.registry is ingestor.registry
        assert {proc.id, target.id, conn.id} <= set(
            e.id for e in ingestor.registry
        )

    def test_emit_alias_streams(self):
        _, store, session = make_session(batch_size=2)
        proc, target = entities(session)
        session.emit(1, 5.0, "read", proc, target)
        session.emit(1, 6.0, "write", proc, target)
        assert len(store) == 2  # auto-committed

    def test_ipc_entity_helpers_delegate(self):
        ingestor, _, session = make_session()
        value = session.registry_value(1, "HKLM/SOFTWARE/Probe", "v0")
        fifo = session.pipe(1, "/run/probe-pipe")
        assert ingestor.registry.get(value.id) is value
        assert ingestor.registry.get(fifo.id) is fifo
        assert session.clock is ingestor.clock

    def test_counters_and_stats(self):
        _, _, session = make_session(batch_size=10)
        proc, target = entities(session)
        session.append(1, 5.0, "read", proc, target)
        session.append(1, 6.0, "read", proc, target)
        assert session.events_ingested == 2  # committed + staged
        assert session.stats() == {
            "appended": 2,
            "committed": 0,
            "pending": 2,
            "batches": 0,
            "batch_size": 10,
            "commit_hooks": 0,
            "hook_errors": 0,
        }
        session.commit()
        stats = session.stats()
        assert stats["committed"] == 2 and stats["pending"] == 0
        assert stats["batches"] == 1


class TestValidationHoisting:
    def test_batch_validated_exactly_once_regardless_of_store_count(self):
        ingestor, _, session = make_session(
            batch_size=100, extra_stores=("flat", "segmented")
        )
        proc, target = entities(session)
        for i in range(10):
            session.append(1, float(i), "read", proc, target)
        session.commit()
        # 3 attached stores, but each event was validated exactly once.
        assert ingestor.validations == 10

    def test_emit_path_also_validates_once(self):
        ingestor, _, _ = make_session(extra_stores=("flat",))
        proc, target = entities(ingestor)
        ingestor.emit(1, 5.0, "read", proc, target)
        assert ingestor.validations == 1

    def test_all_stores_receive_identical_batch(self):
        ingestor, store, session = make_session(
            batch_size=100, extra_stores=("flat", "segmented")
        )
        proc, target = entities(session)
        for i in range(7):
            session.append(1, float(i), "read", proc, target)
        session.commit()
        flat, segmented = ingestor._stores[1], ingestor._stores[2]
        reference = [e.event_id for e in rows(store, EventFilter())]
        assert sorted(e.event_id for e in rows(flat, EventFilter())) == reference
        assert sorted(e.event_id for e in rows(segmented, EventFilter())) == reference


class TestMultiPartitionBatches:
    def test_batch_spanning_partitions_touches_each_once(self):
        _, store, session = make_session(batch_size=100)
        proc, target = entities(session)
        for day in range(3):
            for i in range(5):
                session.append(1, day * DAY + float(i), "read", proc, target)
        session.commit()
        assert len(store.partition_keys) == 3
        assert session.batches_committed == 1
        assert len(store) == 15
