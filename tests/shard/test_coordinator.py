"""Coordinator: routing, scatter/gather scans, recovery merge, lifecycle.

Worker processes are real (``spawn``), so fixtures are module-scoped and
small: a handful of agents over a few days is enough to land partitions
on every shard.
"""

import pytest

from repro.core.config import SystemConfig
from repro.model.time import DAY, TimeWindow
from repro.shard import ShardedStore, ShardError
from repro.shard.channel import Channel
from repro.storage.blocks import ColumnBlock
from repro.storage.codec import decode_block
from repro.storage.database import EventStore
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateLeaf,
)
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionKey, PartitionScheme
from tests.oracle import oracle_rows, rows


def populate(ingestor, agents=(1, 2, 3), days=4, per_day=3):
    for agent in agents:
        shell = ingestor.process(agent, 100, "bash", cmd="bash -l")
        editor = ingestor.process(agent, 200, "vim")
        log = ingestor.file(agent, "/var/log/syslog")
        secret = ingestor.file(agent, "/etc/passwd")
        for day in range(days):
            base = day * DAY + 60.0 * agent
            ingestor.emit(agent, base, "start", shell, editor)
            for i in range(per_day):
                ingestor.emit(agent, base + 10 * (i + 1), "write", editor, log,
                              amount=128 * (i + 1))
            ingestor.emit(agent, base + 50, "read", shell, secret)


@pytest.fixture(scope="module")
def deployment():
    """A 2-shard store and an in-process reference fed the same stream."""
    ingestor = Ingestor()
    sharded = ShardedStore(ingestor, SystemConfig(shards=2))
    reference = EventStore(
        registry=ingestor.registry,
        scheme=PartitionScheme(agents_per_group=10),
    )
    ingestor.attach(sharded)
    ingestor.attach(reference)
    populate(ingestor)
    yield sharded, reference
    sharded.close()


FILTERS = (
    EventFilter(),
    EventFilter(agent_ids=frozenset({1, 3})),
    EventFilter(window=TimeWindow(start=DAY, end=3 * DAY)),
    EventFilter(
        subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "vim"))
    ),
    EventFilter(
        agent_ids=frozenset({2}),
        window=TimeWindow(start=0.0, end=2 * DAY),
        object_pred=PredicateLeaf(AttrPredicate("name", "=", "/etc/passwd")),
    ),
)


class TestRouting:
    def test_shard_of_is_deterministic_and_total(self, deployment):
        sharded, _ = deployment
        keys = [PartitionKey(day=d, agent_group=g)
                for d in range(6) for g in range(3)]
        first = [sharded.shard_of(k) for k in keys]
        assert first == [sharded.shard_of(k) for k in keys]
        assert set(first) == {0, 1}  # both shards actually used
        assert all(0 <= s < sharded.shards for s in first)

    def test_events_spread_over_both_shards(self, deployment):
        sharded, _ = deployment
        per_shard = sharded.stats()["shard_events"]
        assert len(per_shard) == 2
        assert all(count > 0 for count in per_shard)
        assert sum(per_shard) == len(sharded)


class TestScatterGatherScans:
    def test_len_matches_reference(self, deployment):
        sharded, reference = deployment
        assert len(sharded) == len(reference) > 0

    @pytest.mark.parametrize("flt", FILTERS, ids=lambda f: repr(f)[:40])
    def test_scan_matches_reference(self, deployment, flt):
        sharded, reference = deployment
        assert rows(sharded, flt) == rows(reference, flt)

    @pytest.mark.parametrize("flt", FILTERS, ids=lambda f: repr(f)[:40])
    def test_scan_matches_reference_oracle(self, deployment, flt):
        sharded, reference = deployment
        assert rows(sharded, flt) == oracle_rows(reference, flt)

    def test_scan_excludes_torn_ids(self, deployment):
        """Ids of a torn commit's acknowledged slices never surface in a
        scan, whichever shard holds them."""
        sharded, reference = deployment
        everything = oracle_rows(reference, EventFilter())
        torn = {e.event_id for e in everything[::3]}
        sharded._torn.update(torn)
        try:
            got = rows(sharded, EventFilter())
        finally:
            sharded._torn.difference_update(torn)
        assert got == [e for e in everything if e.event_id not in torn]
        assert rows(sharded, EventFilter()) == everything

    def test_scan_columns_result_is_globally_ordered(self, deployment):
        sharded, _ = deployment
        handles = sharded.scan_columns(EventFilter()).handles()
        order = [(t, eid) for t, eid, _, _ in handles]
        assert order == sorted(order)

    def test_estimated_events_sums_shards(self, deployment):
        sharded, _ = deployment
        flt = EventFilter(agent_ids=frozenset({1}))
        assert sharded.estimated_events(EventFilter()) >= sharded.estimated_events(flt)
        assert sharded.estimated_events(flt) > 0

    def test_time_range_merges_shards(self, deployment):
        sharded, reference = deployment
        assert sharded.time_range() == reference.time_range()

    def test_stats_shape(self, deployment):
        sharded, _ = deployment
        stats = sharded.stats()
        assert stats["shards"] == 2
        assert stats["events"] == len(sharded)
        assert stats["entities"] == len(sharded.registry)
        assert len(stats["per_shard"]) == 2


class TestErrorContainment:
    def test_worker_error_surfaces_and_worker_survives(self, deployment):
        sharded, reference = deployment
        # checkpoint on a RAM-only deployment fails inside the worker …
        with pytest.raises(ShardError, match="not durable"):
            sharded.checkpoint()
        # … but the workers keep answering: errors are per command.
        assert rows(sharded, EventFilter()) == rows(reference, EventFilter())


class TestEntityBroadcast:
    def test_late_entity_reaches_every_shard(self, deployment):
        sharded, reference = deployment
        ingestor = sharded.ingestor
        tool = ingestor.process(2, 300, "nmap")
        target = ingestor.connection(2, "10.0.0.2", 40000, "8.8.8.8", 53)
        ingestor.emit(2, 5 * DAY + 7.0, "connect", tool, target)
        flt = EventFilter(
            subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "nmap"))
        )
        got = rows(sharded, flt)
        assert got == rows(reference, flt)
        assert len(got) == 1


class TestLifecycle:
    def test_close_is_idempotent_and_context_managed(self):
        ingestor = Ingestor()
        with ShardedStore(ingestor, SystemConfig(shards=1)) as sharded:
            ingestor.attach(sharded)
            populate(ingestor, agents=(1,), days=1, per_day=1)
            assert len(sharded) == 3
            sharded.close()
        sharded.close()  # after __exit__ already closed it

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedStore(Ingestor(), SystemConfig(shards=0))


class TestDurableRecovery:
    def test_each_shard_replays_its_own_wal(self, tmp_path):
        config = SystemConfig(shards=2, data_dir=str(tmp_path))
        ingestor = Ingestor()
        sharded = ShardedStore(ingestor, config)
        ingestor.attach(sharded)
        populate(ingestor, days=3)
        before = rows(sharded, EventFilter())
        count = len(sharded)
        next_id = ingestor.events_ingested
        sharded.close()

        ingestor2 = Ingestor()
        recovered = ShardedStore(ingestor2, config)
        ingestor2.attach(recovered)
        try:
            report = recovered.recovery
            assert report is not None
            assert report.wal_events_replayed == count  # no checkpoint ran
            assert report.next_event_id == next_id + 1
            assert len(recovered) == count
            assert rows(recovered, EventFilter()) == before
            # The merged registry lets ingest continue seamlessly.
            agent = 1
            shell = ingestor2.process(agent, 100, "bash", cmd="bash -l")
            log = ingestor2.file(agent, "/var/log/syslog")
            event = ingestor2.emit(agent, 9 * DAY, "write", shell, log)
            assert event.event_id == next_id + 1
            assert len(recovered) == count + 1
        finally:
            recovered.close()

    def test_checkpoint_then_recover_uses_snapshot(self, tmp_path):
        config = SystemConfig(shards=2, data_dir=str(tmp_path))
        ingestor = Ingestor()
        sharded = ShardedStore(ingestor, config)
        ingestor.attach(sharded)
        populate(ingestor, agents=(1, 2), days=2)
        count = len(sharded)
        snapshotted = sharded.checkpoint()
        assert snapshotted == count
        before = rows(sharded, EventFilter())
        sharded.close()

        ingestor2 = Ingestor()
        recovered = ShardedStore(ingestor2, config)
        try:
            assert recovered.recovery.snapshot_events == count
            assert recovered.recovery.wal_events_replayed == 0
            assert rows(recovered, EventFilter()) == before
        finally:
            recovered.close()


class TestBlockIngest:
    """A commit crosses the pipes as one block frame per shard slice."""

    def test_batch_command_ships_one_frame_per_shard_slice(self, monkeypatch):
        ingestor = Ingestor()
        sharded = ShardedStore(ingestor, SystemConfig(shards=2))
        reference = EventStore(
            registry=ingestor.registry,
            scheme=PartitionScheme(agents_per_group=10),
        )
        ingestor.attach(sharded)
        ingestor.attach(reference)
        try:
            # agents of two groups over three days: both shards, several
            # partitions each, rows of one shard interleaved with the other's
            batch = []
            for i in range(30):
                agent = (1, 12, 2, 11)[i % 4]
                shell = ingestor.process(agent, 100, "bash")
                log = ingestor.file(agent, "/var/log/syslog")
                batch.append(
                    ingestor.build_event(
                        agent, (i % 3) * DAY + 5.0 * i, "write", shell, log, amount=i
                    )
                )
            sent = []
            send = Channel.send

            def recording(channel, message, budget):
                sent.append((channel.shard, message))
                return send(channel, message, budget)

            monkeypatch.setattr(Channel, "send", recording)
            ingestor.commit(batch)
            frames = {s: m[1] for s, m in sent if m[0] == "batch"}
            assert sorted(frames) == [0, 1]
            assert len([m for _, m in sent if m[0] == "batch"]) == 2
            for shard, frame in frames.items():
                assert isinstance(frame, bytes)
                block = decode_block(frame)
                expected = [
                    e
                    for e in batch
                    if sharded.shard_of(
                        sharded.scheme.key_for(e.agent_id, e.start_time)
                    )
                    == shard
                ]
                assert block.events() == expected  # the slice, in batch order
            assert len(sharded) == len(reference) == len(batch)
            assert sharded._committed == batch[-1].event_id
            assert rows(sharded, EventFilter()) == rows(reference, EventFilter())
            stats = sharded.stats()
            assert sorted(stats["shard_events"]) == sorted(
                len(decode_block(f)) for f in frames.values()
            )
        finally:
            sharded.close()

    def test_add_block_with_positions_routes_only_those_rows(self):
        ingestor = Ingestor()
        sharded = ShardedStore(ingestor, SystemConfig(shards=2))
        try:
            shell = ingestor.process(1, 100, "bash")
            log = ingestor.file(1, "/var/log/syslog")
            sharded.register_entity(shell)
            sharded.register_entity(log)
            events = [
                ingestor.build_event(1, day * DAY + 7.0, "write", shell, log)
                for day in range(6)
            ]
            block = ColumnBlock.from_events(events)
            touched = sharded.add_block(block, [1, 2, 4])
            assert touched == tuple(
                sharded.scheme.key_for(1, events[p].start_time) for p in (1, 2, 4)
            )
            assert len(sharded) == 3
            assert sharded._committed == events[4].event_id
            assert rows(sharded, EventFilter()) == [events[p] for p in (1, 2, 4)]
            assert sharded.add_block(block, []) == ()
            assert not block.rows_materialized
        finally:
            sharded.close()
