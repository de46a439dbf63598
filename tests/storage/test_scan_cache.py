"""ScanCache + filter fingerprinting: LRU bounds, invalidation, dedup."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.time import DAY, TimeWindow
from repro.service.cache import ScanCache
from repro.service.stream import StreamSession
from repro.storage.blocks import ColumnBlock
from repro.storage.database import EventStore
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
    canonical_predicate,
    filter_fingerprint,
)
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme


def leaf(attr, op, value):
    return PredicateLeaf(AttrPredicate(attr, op, value))


class TestFilterFingerprint:
    def test_equal_filters_equal_fingerprints(self):
        a = EventFilter(agent_ids=frozenset({1, 2}))
        b = EventFilter(agent_ids=frozenset({2, 1}))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_and_children_order_insensitive(self):
        x, y = leaf("exe_name", "=", "bash"), leaf("user", "=", "root")
        a = EventFilter(subject_pred=PredicateAnd((x, y)))
        b = EventFilter(subject_pred=PredicateAnd((y, x)))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_or_children_order_insensitive(self):
        x, y = leaf("name", "=", "%.sh"), leaf("name", "=", "%.py")
        a = EventFilter(object_pred=PredicateOr((x, y)))
        b = EventFilter(object_pred=PredicateOr((y, x)))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_case_insensitive_values_share_fingerprint(self):
        # String matching is case-insensitive throughout, so the
        # fingerprint must fold case or equal filters would miss.
        a = EventFilter(subject_pred=leaf("exe_name", "=", "BASH"))
        b = EventFilter(subject_pred=leaf("exe_name", "=", "bash"))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_in_list_order_and_container_insensitive(self):
        a = EventFilter(event_pred=leaf("amount", "in", (1, 2, 3)))
        b = EventFilter(event_pred=leaf("amount", "in", [3, 1, 2]))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_ordered_comparisons_do_not_fold_case(self):
        # Regression: < <= > >= compare raw strings at match time
        # (case-sensitive), so "ABC" and "abc" thresholds must NOT share a
        # fingerprint or the cache would serve one query the other's rows.
        a = EventFilter(subject_pred=leaf("exe_name", ">", "ABC"))
        b = EventFilter(subject_pred=leaf("exe_name", ">", "abc"))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_different_windows_differ(self):
        a = EventFilter(window=TimeWindow(start=0.0, end=DAY))
        b = EventFilter(window=TimeWindow(start=0.0, end=2 * DAY))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_not_is_preserved(self):
        a = EventFilter(subject_pred=PredicateNot(leaf("user", "=", "root")))
        b = EventFilter(subject_pred=leaf("user", "=", "root"))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_fingerprint_is_hashable(self):
        flt = EventFilter(
            agent_ids=frozenset({3}),
            subject_pred=PredicateAnd(
                (leaf("exe_name", "=", "a"), leaf("user", "in", ["x", "y"]))
            ),
            subject_ids=frozenset({10, 11}),
        )
        hash(filter_fingerprint(flt))
        assert canonical_predicate(None) is None


class TestScanCacheCore:
    def test_hit_after_miss(self):
        cache = ScanCache(max_entries=4)
        calls = []
        value = cache.get_or_compute("p1", "f1", lambda: calls.append(1) or [1, 2])
        assert value == [1, 2]
        again = cache.get_or_compute("p1", "f1", lambda: calls.append(1) or [9])
        assert again == [1, 2]
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_respects_bound(self):
        cache = ScanCache(max_entries=2)
        cache.get_or_compute("p1", "a", lambda: [1])
        cache.get_or_compute("p1", "b", lambda: [2])
        cache.get_or_compute("p1", "a", lambda: [0])  # refresh a
        cache.get_or_compute("p1", "c", lambda: [3])  # evicts b
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get_or_compute("p1", "a", lambda: [9]) == [1]  # still hot
        cache.get_or_compute("p1", "b", lambda: [8])
        assert cache.misses == 4  # b was recomputed

    def test_invalidate_drops_only_that_partition(self):
        cache = ScanCache(max_entries=8)
        cache.get_or_compute("p1", "a", lambda: [1])
        cache.get_or_compute("p2", "a", lambda: [2])
        assert cache.invalidate("p1") == 1
        assert cache.get_or_compute("p2", "a", lambda: [9]) == [2]  # hit
        assert cache.get_or_compute("p1", "a", lambda: [7]) == [7]  # recomputed

    def test_invalidation_during_compute_prevents_stale_insert(self):
        cache = ScanCache(max_entries=8)

        def compute():
            # An ingest lands in partition p1 while this scan is running.
            cache.invalidate("p1")
            return [1]

        assert cache.get_or_compute("p1", "a", compute) == [1]
        # The raced result must not have been cached.
        assert cache.get_or_compute("p1", "a", lambda: [2]) == [2]

    def test_miss_after_invalidate_does_not_join_stale_inflight(self):
        """Read-your-writes: a scan submitted after an ingest must compute
        fresh, not join a single-flight started before the ingest."""
        import threading

        cache = ScanCache(max_entries=8)
        release = threading.Event()
        started = threading.Event()
        results = {}

        def slow_pre_ingest_scan():
            started.set()
            assert release.wait(5)
            return [1]  # the pre-ingest view

        worker = threading.Thread(
            target=lambda: results.setdefault(
                "old", cache.get_or_compute("p1", "a", slow_pre_ingest_scan)
            )
        )
        worker.start()
        assert started.wait(5)
        cache.invalidate("p1")  # the ingest lands
        fresh = cache.get_or_compute("p1", "a", lambda: [2])
        assert fresh == [2]  # computed fresh, did not join the stale owner
        release.set()
        worker.join()
        assert results["old"] == [1]  # detached owner still resolved
        # The fresh (post-ingest) value is the one that stayed cached.
        assert cache.get_or_compute("p1", "a", lambda: [9]) == [2]

    def test_compute_error_not_cached(self):
        cache = ScanCache(max_entries=8)
        with pytest.raises(ZeroDivisionError):
            cache.get_or_compute("p1", "a", lambda: 1 / 0 and [])
        assert cache.get_or_compute("p1", "a", lambda: [5]) == [5]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ScanCache(max_entries=0)


def test_compute_error_raises_original():
    cache = ScanCache()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        cache.get_or_compute("p", "f", boom)


class TestStatsSnapshot:
    """stats() is the canonical, mutually consistent counter snapshot."""

    def test_every_outcome_is_counted(self):
        cache = ScanCache(max_entries=2)
        cache.get_or_compute("p", "a", lambda: [1], generation=1)  # miss
        cache.get_or_compute("p", "a", lambda: [2], generation=1)  # hit
        cache.get_or_compute("p", "a", lambda: [3], generation=2)  # gen miss
        cache.get_or_compute("p", "b", lambda: [4])                # miss
        cache.get_or_compute("p", "c", lambda: [5])                # miss+evict
        cache.invalidate("p")
        stats = cache.stats()
        assert stats == {
            "entries": 0,
            "hits": 1,
            "misses": 4,
            "evictions": 1,
            "invalidations": 1,
            "shared_waits": 0,
            "generation_mismatches": 1,
        }

    def test_generation_mismatch_evicts_stale_entry(self):
        cache = ScanCache(max_entries=8)
        cache.get_or_compute("p", "a", lambda: [1], generation=1)
        cache.get_or_compute("p", "a", lambda: [2], generation=2)
        # The stale generation's entry was evicted, not shadowed: the
        # cache holds exactly the rebuilt entry.
        assert len(cache) == 1
        assert cache.stats()["generation_mismatches"] == 1

    def test_single_flight_wait_counted(self):
        import threading
        import time

        cache = ScanCache(max_entries=8)
        release = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            assert release.wait(5)
            return [1]

        owner = threading.Thread(
            target=lambda: cache.get_or_compute("p", "a", slow)
        )
        owner.start()
        assert started.wait(5)
        waiter = threading.Thread(
            target=lambda: cache.get_or_compute("p", "a", lambda: [9])
        )
        waiter.start()
        deadline = time.monotonic() + 5
        while cache.shared_waits == 0 and time.monotonic() < deadline:
            time.sleep(0.001)  # waiter registers before the owner releases
        release.set()
        owner.join()
        waiter.join()
        stats = cache.stats()
        assert stats["shared_waits"] == 1
        assert stats["misses"] == 1  # one compute, shared by both callers


class TestEventStoreIntegration:
    def _store(self):
        ingestor = Ingestor()
        store = EventStore(
            registry=ingestor.registry,
            scheme=PartitionScheme(agents_per_group=1),
            scan_cache=ScanCache(max_entries=64),
        )
        ingestor.attach(store)
        return ingestor, store

    def test_repeated_scan_served_from_cache(self):
        ingestor, store = self._store()
        proc = ingestor.process(1, 10, "bash")
        target = ingestor.file(1, "/etc/passwd")
        for day in range(3):
            ingestor.emit(1, day * DAY + 5.0, "read", proc, target)
        flt = EventFilter(window=TimeWindow(start=0.0, end=3 * DAY))
        first = store.scan(flt)
        assert store.scan_cache.misses == 3  # one per partition
        second = store.scan(flt)
        assert second == first
        assert store.scan_cache.hits == 3

    def test_ingest_invalidates_only_touched_partition(self):
        ingestor, store = self._store()
        proc = ingestor.process(1, 10, "bash")
        target = ingestor.file(1, "/etc/passwd")
        ingestor.emit(1, 5.0, "read", proc, target)
        ingestor.emit(1, DAY + 5.0, "read", proc, target)
        flt = EventFilter(window=TimeWindow(start=0.0, end=2 * DAY))
        store.scan(flt)
        misses_before = store.scan_cache.misses
        # New event lands in day 0 only; day 1's entry stays warm.
        ingestor.emit(1, 6.0, "write", proc, target)
        result = store.scan(flt)
        assert len(result) == 3
        assert store.scan_cache.misses == misses_before + 1
        assert store.scan_cache.hits == 1
        assert result == store.full_scan(flt)

    def test_add_block_invalidates_touched_partitions_once(self):
        ingestor, store = self._store()
        proc = ingestor.process(1, 10, "bash")
        target = ingestor.file(1, "/etc/passwd")
        ingestor.emit(1, 5.0, "read", proc, target)
        ingestor.emit(1, DAY + 5.0, "read", proc, target)
        flt = EventFilter(window=TimeWindow(start=0.0, end=2 * DAY))
        store.scan(flt)  # warm both day partitions
        cache = store.scan_cache
        invalidations_before = cache.invalidations
        batch = [
            ingestor.build_event(1, 6.0 + i, "write", proc, target)
            for i in range(10)
        ]
        touched = store.add_block(ColumnBlock.from_events(batch))
        assert len(touched) == 1  # all ten events land in day 0
        assert cache.invalidations == invalidations_before + 1
        result = store.scan(flt)
        assert result == store.full_scan(flt)
        assert cache.hits == 1  # day 1's entry stayed warm


# Random interleavings of batch commits and cached scans.  Three agents with
# agents_per_group=1 and same-day timestamps give three distinct partitions;
# the invariants: a scan never returns stale rows for a partition a commit
# touched, and a commit never evicts the cached scans of untouched
# partitions (their next scan is a hit, not a recompute).

_AGENTS = (1, 2, 3)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("commit"),
            st.lists(st.sampled_from(_AGENTS), min_size=1, max_size=3),
        ),
        st.tuples(st.just("scan"), st.sampled_from(_AGENTS)),
    ),
    min_size=1,
    max_size=40,
)


class TestPartitionScopedInvalidationProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_random_interleavings_never_stale_never_overevict(self, ops):
        ingestor = Ingestor()
        store = EventStore(
            registry=ingestor.registry,
            scheme=PartitionScheme(agents_per_group=1),
            scan_cache=ScanCache(max_entries=64),
        )
        ingestor.attach(store)
        session = StreamSession(ingestor, batch_size=10**9)
        procs = {a: ingestor.process(a, 10, "bash") for a in _AGENTS}
        files = {a: ingestor.file(a, f"/data/{a}") for a in _AGENTS}
        filters = {a: EventFilter(agent_ids=frozenset({a})) for a in _AGENTS}
        cache = store.scan_cache
        clock = {a: 0.0 for a in _AGENTS}
        warm = set()  # agents whose partition has a cached scan
        for op in ops:
            if op[0] == "commit":
                _, agents = op
                for agent in agents:
                    clock[agent] += 1.0
                    session.append(
                        agent, 5.0 + clock[agent], "read",
                        procs[agent], files[agent],
                    )
                session.commit()
                warm -= set(agents)  # touched partitions are invalidated...
            else:
                _, agent = op
                hits_before = cache.hits
                result = store.scan(filters[agent])
                # ...and a scan never returns stale rows (oracle equality).
                assert result == store.full_scan(filters[agent])
                if agent in warm:
                    # Untouched partitions were NOT evicted: warm entries
                    # are served from cache, not recomputed.
                    assert cache.hits == hits_before + 1
                if clock[agent] > 0:  # partition exists => entry now cached
                    warm.add(agent)


class TestGenerationKeying:
    """Block-generation keyed entries: the unified invalidation path."""

    def test_hit_requires_generation_match(self):
        cache = ScanCache(max_entries=8)
        first = cache.get_or_compute("p", "f", lambda: [1, 2], generation=7)
        again = cache.get_or_compute("p", "f", lambda: [9], generation=7)
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_generation_mismatch_recomputes_and_replaces(self):
        cache = ScanCache(max_entries=8)
        cache.get_or_compute("p", "f", lambda: [1], generation=7)
        rebuilt = cache.get_or_compute("p", "f", lambda: [2], generation=8)
        assert rebuilt == [2]
        assert cache.misses == 2
        # the old generation's entry is gone, not shadowed
        assert cache.get_or_compute("p", "f", lambda: [3], generation=8) == [2]
        assert cache.get_or_compute("p", "f", lambda: [4], generation=7) == [4]

    def test_untagged_entries_keep_working(self):
        cache = ScanCache(max_entries=8)
        value = cache.get_or_compute("p", "f", lambda: ("rows",))
        assert cache.get_or_compute("p", "f", lambda: ()) is value
        # a generation-tagged caller never accepts an untagged entry
        assert cache.get_or_compute("p", "f", lambda: [5], generation=1) == [5]

    def test_generations_isolated_per_key(self):
        cache = ScanCache(max_entries=8)
        cache.get_or_compute("p", "f1", lambda: "a", generation=1)
        cache.get_or_compute("p", "f2", lambda: "b", generation=2)
        assert cache.get_or_compute("p", "f1", lambda: "x", generation=1) == "a"
        assert cache.get_or_compute("p", "f2", lambda: "y", generation=2) == "b"
