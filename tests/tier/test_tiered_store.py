"""TieredStore: cold-scan merge, compaction safety, estimates."""

import pytest

from repro.model.time import DAY, TimeWindow
from repro.obs import REGISTRY
from repro.storage.blocks import ColumnBlock
from repro.storage.codec import encode_block
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.tier.cold import ColdTier
from repro.tier.store import TieredStore

from tests.oracle import oracle_rows, rows
from tests.tier.conftest import EventFeed, day_ts

@pytest.fixture
def tiered(tmp_path):
    ingestor = Ingestor()
    hot = EventStore(registry=ingestor.registry)
    cold = ColdTier(tmp_path / "cold", ingestor.registry.get)
    store = TieredStore(hot, cold, retention_days=2)
    ingestor.attach(store)
    feed = EventFeed(ingestor)
    for day in range(6):
        for agent in (1, 2, 25):
            for i in range(3):
                feed.emit(agent, day_ts(day, 300.0 * i))
    return store, feed


def all_events(store):
    return rows(store, EventFilter())


class TestCompaction:
    def test_scan_results_identical_after_compaction(self, tiered):
        store, _ = tiered
        before = all_events(store)
        report = store.compact()
        assert report.moved
        assert report.cutoff_day is not None
        # newest 2 of 6 days stay hot; 4 days x 3 agents x 3 events move
        assert report.events_migrated == 4 * 3 * 3
        assert all_events(store) == before
        assert len(store) == len(before)

    def test_hot_tier_shrinks_and_cold_grows(self, tiered):
        store, _ = tiered
        total = len(store)
        store.compact()
        assert len(store.hot) == 2 * 3 * 3
        assert store.cold.event_count == total - len(store.hot)
        assert store.events_migrated == store.cold.event_count
        assert store.compactions == 1

    def test_compaction_is_idempotent(self, tiered):
        store, _ = tiered
        before = all_events(store)
        store.compact()
        second = store.compact()
        assert not second.moved
        assert all_events(store) == before

    def test_window_scans_per_tier(self, tiered):
        store, _ = tiered
        store.compact()
        hot_window = TimeWindow(start=day_ts(5, 0.0), end=day_ts(5, 0.0) + DAY)
        cold_window = TimeWindow(start=day_ts(0, 0.0), end=day_ts(0, 0.0) + DAY)
        mixed = TimeWindow(start=day_ts(2, 0.0), end=day_ts(5, 0.0) + DAY)
        assert len(rows(store, EventFilter(window=hot_window))) == 9
        assert len(rows(store, EventFilter(window=cold_window))) == 9
        assert len(rows(store, EventFilter(window=mixed))) == 36
        # spatial constraint reaches the cold tier too
        got = rows(store, EventFilter(window=cold_window, agent_ids=frozenset({25})))
        assert {e.agent_id for e in got} == {25}

    def test_scan_equals_oracle_across_compaction(self, tiered):
        store, _ = tiered
        before = oracle_rows(store, EventFilter())
        assert rows(store, EventFilter()) == before
        store.compact()
        assert oracle_rows(store, EventFilter()) == before
        assert rows(store, EventFilter()) == before

    def test_ingest_after_compaction_continues(self, tiered):
        store, feed = tiered
        store.compact()
        before = len(store)
        feed.emit(1, day_ts(6))
        assert len(store) == before + 1
        assert len(all_events(store)) == before + 1

    def test_late_arrival_into_cold_day_stays_queryable(self, tiered):
        store, feed = tiered
        store.compact()
        # an event landing on an already-migrated day goes hot again ...
        late = feed.emit(1, day_ts(0, 7200.0))
        window = TimeWindow(start=day_ts(0, 0.0), end=day_ts(0, 0.0) + DAY)
        got = rows(store, EventFilter(window=window))
        assert late.event_id in {e.event_id for e in got}
        assert len(got) == 10
        # ... and the next pass migrates it without duplicating anything
        report = store.compact(now=day_ts(6))
        assert report.moved
        assert len(rows(store, EventFilter(window=window))) == 10

    def test_compact_requires_a_horizon(self, tmp_path):
        ingestor = Ingestor()
        hot = EventStore(registry=ingestor.registry)
        store = TieredStore(
            hot, ColdTier(tmp_path / "c", ingestor.registry.get)
        )
        with pytest.raises(ValueError):
            store.compact()
        with pytest.raises(ValueError):
            store.compact(retention_days=0)
        assert not store.compact(retention_days=1).moved  # empty store

    def test_retention_validation(self, tmp_path):
        ingestor = Ingestor()
        hot = EventStore(registry=ingestor.registry)
        with pytest.raises(ValueError):
            TieredStore(
                hot,
                ColdTier(tmp_path / "c", ingestor.registry.get),
                retention_days=0,
            )


class TestCompactionByColumn:
    def test_no_row_is_built_and_segments_match_the_row_encoding(
        self, tiered, monkeypatch
    ):
        """Compaction gathers columns: it never asks a block for a row, and
        each segment file is byte for byte the encoding of its partition's
        rows, sorted — so the on-disk format cannot move."""
        store, feed = tiered
        feed.emit(1, day_ts(0, 50.0))  # out of order inside its partition
        feed.emit(25, day_ts(1, 10.0))
        before = rows(store.hot, EventFilter())
        calls = []
        event_at = ColumnBlock.event_at

        def spy(block, position):
            calls.append(position)
            return event_at(block, position)

        monkeypatch.setattr(ColumnBlock, "event_at", spy)
        report = store.compact()
        monkeypatch.undo()
        assert report.moved
        assert calls == []
        key_for = store.partition_scheme.key_for
        zones = store.cold.zones
        assert [z.key for z in zones] == list(report.partitions)
        assert sum(z.count for z in zones) == report.events_migrated
        for zone in zones:
            segment = sorted(
                (e for e in before if key_for(e.agent_id, e.start_time) == zone.key),
                key=lambda e: (e.start_time, e.event_id),
            )
            written = (store.cold.directory / zone.filename).read_bytes()
            assert written == encode_block(
                ColumnBlock.from_events(segment), compress=True
            )
            assert zone.count == len(segment)
            assert zone.min_time == segment[0].start_time
            assert zone.max_eid == max(e.event_id for e in segment)
            assert zone.agents == {e.agent_id for e in segment}

    def test_a_late_event_stays_out_of_the_segment_zone_map(
        self, tiered, monkeypatch
    ):
        """Compaction gathers from live partitions without the writer lock.
        An event committed into an old partition while its rows are being
        gathered (here: right after the gather reads the partition's
        length) is not migrated, and its time and id do not widen the
        segment's zone map."""
        store, feed = tiered
        key_for = store.partition_scheme.key_for
        key = key_for(1, day_ts(0, 900.0))
        migrating = [
            e
            for e in rows(store.hot, EventFilter())
            if key_for(e.agent_id, e.start_time) == key
        ]
        hot_block = store.hot._partitions[key].block
        scan_columns = store.hot.scan_columns
        length = ColumnBlock.__len__
        armed, late = [], []

        def scan_then_arm(*args, **kwargs):
            result = scan_columns(*args, **kwargs)
            armed.append(True)
            return result

        def commit_after_length(block):
            n = length(block)
            if block is hot_block and armed:
                armed.clear()
                late.append(feed.emit(1, day_ts(0, 900.0)))
            return n

        monkeypatch.setattr(store.hot, "scan_columns", scan_then_arm)
        monkeypatch.setattr(ColumnBlock, "__len__", commit_after_length)
        report = store.compact()
        monkeypatch.undo()
        (event,) = late
        (zone,) = [z for z in store.cold.zones if z.key == key]
        assert key_for(event.agent_id, event.start_time) == key
        assert zone.count == len(migrating) == 6
        assert zone.max_time == max(e.start_time for e in migrating) < event.start_time
        assert zone.max_eid == max(e.event_id for e in migrating) < event.event_id
        assert report.events_migrated == 4 * 3 * 3
        assert rows(store.hot, EventFilter())[0] == event


class TestMigrationHandOff:
    def test_an_event_in_both_tiers_appears_once_in_order(self, tiered):
        """Mid-migration: a segment written from hot rows not yet removed."""
        store, feed = tiered
        feed.emit(1, day_ts(0, 50.0))
        expected = oracle_rows(store.hot, EventFilter())
        day0 = [
            e for e in rows(store.hot, EventFilter()) if e.start_time < day_ts(1, 0.0)
        ]
        key = store.partition_scheme.key_for(1, day0[0].start_time)
        store.cold.add_segments(
            [(key, ColumnBlock.from_events([e for e in day0 if e.agent_id == 1]))]
        )
        got = oracle_rows(store, EventFilter())
        assert got == sorted(got, key=lambda e: (e.start_time, e.event_id))
        assert len({e.event_id for e in got}) == len(got)
        assert got == expected
        assert got == rows(store, EventFilter())


class TestStoreSurface:
    def test_len_rows_and_stats_span_tiers(self, tiered):
        store, _ = tiered
        total = len(store)
        ids = {e.event_id for e in all_events(store)}
        store.compact()
        assert len(store) == total
        assert {e.event_id for e in all_events(store)} == ids
        stats = store.stats()
        assert stats["events"] == total
        assert stats["hot_events"] == len(store.hot)
        assert stats["cold"]["events"] == store.cold.event_count
        assert stats["compactions"] == 1

    def test_cold_selection_cache_counts_reach_store_stats(self, tiered):
        # benchmarks/e2e/layers.py::cache_counters reads these two keys
        store, _ = tiered
        store.compact()
        cold_window = EventFilter(
            window=TimeWindow(start=day_ts(0, 0.0), end=day_ts(1, 0.0))
        )
        first = rows(store, cold_window)
        assert first and rows(store, cold_window) == first
        counts = store.stats()["cold"]["scan_cache"]
        assert counts["hits"] >= 1
        assert counts["misses"] == counts["hits"]

    def test_estimated_events_prunes_cold_by_zone_map(self, tiered):
        store, _ = tiered
        store.compact()
        hot_window = EventFilter(
            window=TimeWindow(start=day_ts(5, 0.0), end=day_ts(5, 0.0) + DAY)
        )
        unbounded = EventFilter()
        assert store.estimated_events(unbounded) == len(store)
        bounded = store.estimated_events(hot_window)
        assert bounded < store.estimated_events(unbounded)
        # cold contributes nothing inside the hot-only window
        assert bounded <= len(store.hot)

    def test_explicit_attributes_shared_with_hot_store(self, tiered):
        store, _ = tiered
        assert store.registry is store.hot.registry
        assert store.entity_index is store.hot.entity_index
        assert store.route is None and store.completeness_mark is None
        # Nothing else reaches the hot store implicitly.
        for name in ("partition_keys", "scheme", "remove_events", "does_not_exist"):
            with pytest.raises(AttributeError):
                getattr(store, name)

    def test_column_blocks_include_compacted_cold_rows(self, tiered):
        store, _ = tiered
        ids = {e.event_id for e in all_events(store)}
        store.compact()
        assert store.cold.event_count > 0
        stored = [
            block.event_ids[p]
            for block, visible in store.column_blocks()
            for p in range(visible)
        ]
        assert sorted(stored) == sorted(ids)

    def test_time_range_spans_tiers(self, tiered):
        store, _ = tiered
        lo, hi = store.time_range()
        store.compact()
        assert store.time_range() == (lo, hi)


class TestPlanlessScanCompilesOnce:
    """Without a plan's kernel (a shard worker answering a wire filter, a
    direct ``store.scan_columns``), both tiers share one compilation."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        monkeypatch.setattr(REGISTRY, "enabled", True)
        return lambda: REGISTRY.get("aiql_kernel_compiled_total").value()

    def test_hot_and_cold_survivors_compile_one_kernel(self, tiered, compiles):
        store, _ = tiered
        store.compact()
        mixed = EventFilter(
            window=TimeWindow(start=day_ts(2, 0.0), end=day_ts(5, 0.0) + DAY)
        )
        before = compiles()
        result = store.scan_columns(mixed)
        assert compiles() == before + 1
        days = {int((e.start_time - day_ts(0, 0.0)) // DAY) for e in result.events()}
        assert days == {2, 3, 4, 5}  # survivors from both tiers
        assert len(result) == 36

    def test_constant_false_filter_compiles_nothing(self, tiered, compiles):
        store, _ = tiered
        store.compact()
        before = compiles()
        assert not rows(store, EventFilter(subject_ids=frozenset()))
        assert compiles() == before


class TestRemoveEvents:
    """The hot-store side of the migration hand-off used by compaction."""

    def test_remove_then_readd_roundtrip(self, tmp_path):
        ingestor = Ingestor()
        hot = EventStore(registry=ingestor.registry)
        ingestor.attach(hot)
        feed = EventFeed(ingestor)
        events = [feed.emit(1, day_ts(0, 60.0 * i)) for i in range(6)]
        victims = {e.event_id for e in events[:3]}
        removed = hot.remove_events(victims)
        assert removed == 3
        assert len(hot) == 3
        kept = {e.event_id for e in rows(hot, EventFilter())}
        assert kept == {e.event_id for e in events[3:]}
        assert hot.remove_events(victims) == 0  # idempotent
        lo, hi = hot.time_range()
        assert lo == events[3].start_time and hi == events[5].start_time

    def test_partitioned_remove_drops_empty_partition(self, tmp_path):
        ingestor = Ingestor()
        hot = EventStore(registry=ingestor.registry)
        ingestor.attach(hot)
        feed = EventFeed(ingestor)
        day0 = [feed.emit(1, day_ts(0, 60.0 * i)) for i in range(3)]
        feed.emit(1, day_ts(1))
        assert len(hot.partition_keys) == 2
        day0_ids = {e.event_id for e in day0}
        hot.remove_events(day0_ids)
        assert len(hot.partition_keys) == 1
        assert hot.estimated_events(EventFilter()) == 1
        assert hot.remove_events(day0_ids) == 0  # partition already gone

    def test_empty_store_time_range(self):
        assert EventStore().time_range() == (None, None)
