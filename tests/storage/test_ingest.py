"""Unit tests for the ingestion pipeline."""

import pytest

from repro.baselines.flat import FlatStore
from repro.model.entities import EntityRegistry
from repro.model.time import ClockSynchronizer
from repro.storage.ingest import IngestError, Ingestor


def make_ingestor(clock=None):
    ingestor = Ingestor(clock=clock)
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    return ingestor, store


class TestIngestor:
    def test_sequence_numbers_monotone_per_agent(self):
        ingestor, _ = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        q = ingestor.process(2, 5, "zsh")
        g = ingestor.file(2, "/y")
        e1 = ingestor.emit(1, 10.0, "read", p, f)
        e2 = ingestor.emit(2, 10.0, "read", q, g)
        e3 = ingestor.emit(1, 11.0, "write", p, f)
        assert (e1.seq, e3.seq) == (1, 2)
        assert e2.seq == 1

    def test_event_ids_globally_unique(self):
        ingestor, _ = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        events = [ingestor.emit(1, float(i), "read", p, f) for i in range(5)]
        assert len({e.event_id for e in events}) == 5

    def test_clock_correction_applied(self):
        clock = ClockSynchronizer()
        clock.observe(agent_id=1, agent_clock=100.0, server_clock=103.0)
        ingestor, _ = make_ingestor(clock)
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        event = ingestor.emit(1, 200.0, "read", p, f)
        assert event.start_time == 203.0

    def test_duration_sets_end_time(self):
        ingestor, _ = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        event = ingestor.emit(1, 100.0, "read", p, f, duration=2.5)
        assert event.end_time == 102.5

    def test_operation_string_parsed(self):
        ingestor, _ = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        child = ingestor.process(1, 6, "vim")
        event = ingestor.emit(1, 100.0, "fork", p, child)
        assert event.operation.value == "start"

    def test_model_violation_raises_ingest_error(self):
        ingestor, store = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        with pytest.raises(IngestError):
            ingestor.emit(1, 100.0, "connect", p, f)  # connect on a file
        assert len(store) == 0  # nothing was stored

    def test_fan_out_to_multiple_stores(self):
        ingestor = Ingestor()
        s1 = FlatStore(registry=ingestor.registry)
        s2 = FlatStore(registry=ingestor.registry)
        ingestor.attach(s1)
        ingestor.attach(s2)
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        ingestor.emit(1, 100.0, "read", p, f)
        assert len(s1) == 1 and len(s2) == 1

    def test_attach_foreign_registry_rejected(self):
        ingestor = Ingestor()
        foreign = FlatStore(registry=EntityRegistry())
        with pytest.raises(ValueError):
            ingestor.attach(foreign)

    def test_emit_batch(self):
        ingestor, store = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        events = ingestor.emit_batch(
            1, [(10.0, "read", p, f, 100), (11.0, "write", p, f, 200)]
        )
        assert len(events) == 2
        assert ingestor.events_ingested == 2

    def test_entity_helpers_deduplicate(self):
        ingestor, _ = make_ingestor()
        a = ingestor.file(1, "/etc/passwd")
        b = ingestor.file(1, "/etc/passwd")
        assert a is b


class RecordingStore:
    """Minimal store double that records every call the fan-out makes."""

    def __init__(self, registry):
        self.registry = registry
        self.registered = []
        self.added = []
        self.blocks = []

    def register_entity(self, entity):
        self.registered.append(entity.id)

    def add_event(self, event):
        self.added.append(event.event_id)

    def add_batch(self, block):
        self.blocks.append(block)
        self.added.extend(block.event_ids)


class TestFanOutHoisting:
    """Validation and entity dedup run once, not once per attached store."""

    def test_entity_registered_once_per_store_despite_reobservation(self):
        ingestor = Ingestor()
        stores = [RecordingStore(ingestor.registry) for _ in range(3)]
        for store in stores:
            ingestor.attach(store)
        first = ingestor.process(1, 5, "bash")
        again = ingestor.process(1, 5, "bash")  # agents re-observe constantly
        assert first is again
        for store in stores:
            assert store.registered == [first.id]

    def test_validation_counted_once_regardless_of_store_count(self):
        ingestor = Ingestor()
        for _ in range(4):
            ingestor.attach(RecordingStore(ingestor.registry))
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        ingestor.emit(1, 10.0, "read", p, f)
        ingestor.commit(
            [ingestor.build_event(1, 11.0 + i, "read", p, f) for i in range(5)]
        )
        assert ingestor.validations == 6

    def test_late_attached_store_receives_entity_replay(self):
        ingestor = Ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        late = RecordingStore(ingestor.registry)
        ingestor.attach(late)
        assert set(late.registered) == {p.id, f.id}

    def test_emit_refused_while_batch_staged(self):
        # A single-event emit racing ahead of staged (lower-id) events
        # would break the commit watermark's id-order assumption.
        ingestor, store = make_ingestor()
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        staged = [ingestor.build_event(1, 10.0, "read", p, f)]
        with pytest.raises(IngestError):
            ingestor.emit(1, 11.0, "read", p, f)
        ingestor.commit(staged)
        event = ingestor.emit(1, 12.0, "read", p, f)  # fine after commit
        assert event.event_id > staged[0].event_id
        assert len(store) == 2

    def test_commit_builds_one_block_for_the_log_and_every_store(self):
        ingestor = Ingestor()
        stores = [RecordingStore(ingestor.registry) for _ in range(2)]
        for store in stores:
            ingestor.attach(store)
        logged = []

        class Log:
            def append(self, entities, block):
                logged.append(block)

        ingestor.attach_wal(Log())
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        events = [
            ingestor.build_event(1, 10.0 + i, "read", p, f) for i in range(3)
        ]
        ingestor.commit(events)
        (block,) = logged
        assert all(store.blocks == [block] for store in stores)
        assert all(store.blocks[0] is block for store in stores)
        assert not block.rows_materialized
        assert stores[0].added == stores[1].added == [e.event_id for e in events]
        assert ingestor.events_ingested == 3
