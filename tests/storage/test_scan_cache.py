"""ScanCache + filter fingerprinting: LRU bounds, generations, dedup."""

import pytest

from repro.model.time import DAY, TimeWindow
from repro.service.cache import ScanCache
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
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "hits": 1,
            "misses": 4,
            "evictions": 1,
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


class TestGenerationKeying:
    """Block-generation keyed entries: a re-decoded block never hits."""

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
