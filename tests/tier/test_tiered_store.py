"""TieredStore: cold-scan merge, compaction safety, estimates."""

import pytest

from repro.model.time import DAY, TimeWindow
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.tier.cold import ColdTier
from repro.tier.store import TieredStore

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
    return store.scan(EventFilter())


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
        assert len(store.scan(EventFilter(window=hot_window))) == 9
        assert len(store.scan(EventFilter(window=cold_window))) == 9
        assert len(store.scan(EventFilter(window=mixed))) == 36
        # spatial constraint reaches the cold tier too
        got = store.scan(
            EventFilter(window=cold_window, agent_ids=frozenset({25}))
        )
        assert {e.agent_id for e in got} == {25}

    def test_full_scan_merges_tiers(self, tiered):
        store, _ = tiered
        before = store.full_scan(EventFilter())
        store.compact()
        assert store.full_scan(EventFilter()) == before

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
        got = store.scan(EventFilter(window=window))
        assert late.event_id in {e.event_id for e in got}
        assert len(got) == 10
        # ... and the next pass migrates it without duplicating anything
        report = store.compact(now=day_ts(6))
        assert report.moved
        assert len(store.scan(EventFilter(window=window))) == 10

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


class TestSortedRunMerge:
    """_merge interleaves two sorted tier runs and drops hand-off dupes."""

    def build(self, feed, agent, times):
        return [feed.emit(agent, day_ts(0, t)) for t in times]

    def test_interleave_and_dedup(self, tmp_path):
        feed = EventFeed(Ingestor())
        a, b, c, d = self.build(feed, 1, (10.0, 20.0, 30.0, 40.0))
        hot = [a, c, d]
        cold = [a, b, d]  # a and d reachable in both tiers mid-migration
        merged = TieredStore._merge(hot, cold)
        assert merged == [a, b, c, d]
        key = lambda e: (e.start_time, e.event_id)  # noqa: E731
        assert merged == sorted(merged, key=key)

    def test_empty_runs_short_circuit(self, tmp_path):
        feed = EventFeed(Ingestor())
        run = self.build(feed, 1, (10.0, 20.0))
        assert TieredStore._merge(run, []) is run
        assert TieredStore._merge([], run) is run
        assert TieredStore._merge([], []) == []

    def test_equal_start_times_order_by_event_id(self, tmp_path):
        feed = EventFeed(Ingestor())
        x, y = self.build(feed, 1, (10.0, 10.0))
        merged = TieredStore._merge([y], [x])
        assert merged == [x, y]


class TestStoreSurface:
    def test_len_iter_and_stats_span_tiers(self, tiered):
        store, _ = tiered
        total = len(store)
        ids = {e.event_id for e in store}
        store.compact()
        assert len(store) == total
        assert {e.event_id for e in store} == ids
        stats = store.stats()
        assert stats["events"] == total
        assert stats["hot_events"] == len(store.hot)
        assert stats["cold"]["events"] == store.cold.event_count
        assert stats["compactions"] == 1

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

    def test_delegation_reaches_hot_backend(self, tiered):
        store, _ = tiered
        assert store.registry is store.hot.registry
        assert store.entity_index is store.hot.entity_index
        with pytest.raises(AttributeError):
            store.does_not_exist
        # a half-built wrapper must not recurse through __getattr__
        with pytest.raises(AttributeError):
            TieredStore.__new__(TieredStore).anything

    def test_time_range_spans_tiers(self, tiered):
        store, _ = tiered
        lo, hi = store.time_range()
        store.compact()
        assert store.time_range() == (lo, hi)


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
        kept = {e.event_id for e in hot.scan(EventFilter())}
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
