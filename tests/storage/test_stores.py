"""Store-level tests: pruning soundness, policy equivalence, parallelism."""

import pytest

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.entities import EntityType
from repro.model.time import DAY, TimeWindow
from repro.storage.database import EventStore
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from repro.workload.topology import APT_DAY, ATTACKER_IP


FILTERS = [
    EventFilter(),
    EventFilter(agent_ids=frozenset({1})),
    EventFilter(agent_ids=frozenset({3}), window=TimeWindow(APT_DAY, APT_DAY + DAY)),
    EventFilter(
        object_type=EntityType.NETWORK,
        object_pred=PredicateLeaf(AttrPredicate("dst_ip", "=", ATTACKER_IP)),
    ),
    EventFilter(
        subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "%sbblv%")),
    ),
    EventFilter(window=TimeWindow(start=APT_DAY + DAY / 2)),
]


class TestEventStoreSoundness:
    @pytest.mark.parametrize("flt", FILTERS)
    def test_scan_equals_full_scan(self, enterprise, flt):
        store = enterprise.store("partitioned")
        assert store.scan(flt) == store.full_scan(flt)

    @pytest.mark.parametrize("flt", FILTERS)
    def test_parallel_scan_equals_serial(self, enterprise, flt):
        store = enterprise.store("partitioned")
        assert store.scan(flt, parallel=True) == store.scan(flt, parallel=False)

    def test_partitions_exist_per_day_and_group(self, enterprise):
        store = enterprise.store("partitioned")
        days = {k.day for k in store.partition_keys}
        groups = {k.agent_group for k in store.partition_keys}
        assert len(days) >= 16
        assert groups == {0, 1}  # agents 1-9 and 10-15

    def test_stats(self, enterprise):
        stats = enterprise.store("partitioned").stats()
        assert stats["events"] == len(enterprise.store("partitioned"))
        assert stats["partitions"] > 16


class TestStoreEquivalence:
    """All stores ingest the same stream -> all scans agree."""

    @pytest.mark.parametrize("flt", FILTERS)
    @pytest.mark.parametrize(
        "name", ["flat", "segmented_domain", "segmented_arrival"]
    )
    def test_same_results_as_partitioned(self, enterprise, name, flt):
        reference = enterprise.store("partitioned").scan(flt)
        assert enterprise.store(name).scan(flt) == reference

    def test_same_event_counts(self, enterprise):
        counts = {name: len(store) for name, store in enterprise.stores.items()}
        assert len(set(counts.values())) == 1


class TestSegmentedStore:
    def test_domain_policy_balances_by_host_day(self, enterprise):
        store = enterprise.store("segmented_domain")
        assert store.skew() < 2.0

    def test_arrival_policy_round_robin_is_even(self, enterprise):
        store = enterprise.store("segmented_arrival")
        sizes = store.segment_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_domain_policy_prunes_segments(self, enterprise):
        store = enterprise.store("segmented_domain")
        flt = EventFilter(
            agent_ids=frozenset({3}),
            window=TimeWindow(APT_DAY, APT_DAY + DAY),
        )
        relevant = store._relevant_segments(flt)
        assert len(relevant) < store.segment_count

    def test_arrival_policy_cannot_prune(self, enterprise):
        store = enterprise.store("segmented_arrival")
        flt = EventFilter(
            agent_ids=frozenset({3}),
            window=TimeWindow(APT_DAY, APT_DAY + DAY),
        )
        assert len(store._relevant_segments(flt)) == store.segment_count

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SegmentedStore(policy="random")

    def test_invalid_segment_count_rejected(self):
        with pytest.raises(ValueError):
            SegmentedStore(segments=0)


class TestSmallStoreBehaviors:
    def test_flat_store_roundtrip(self):
        ingestor = Ingestor()
        store = FlatStore(registry=ingestor.registry)
        ingestor.attach(store)
        p = ingestor.process(1, 5, "bash")
        f = ingestor.file(1, "/x")
        ingestor.emit(1, 100.0, "read", p, f)
        assert len(store) == 1
        assert store.stats()["partitions"] == 1

    def test_event_store_iteration_ordered_by_partition(self):
        ingestor = Ingestor()
        store = EventStore(
            registry=ingestor.registry, scheme=PartitionScheme(agents_per_group=1)
        )
        ingestor.attach(store)
        p1 = ingestor.process(1, 5, "bash")
        p2 = ingestor.process(2, 6, "zsh")
        f = ingestor.file(1, "/x")
        f2 = ingestor.file(2, "/y")
        ingestor.emit(2, DAY + 1.0, "read", p2, f2)
        ingestor.emit(1, 1.0, "read", p1, f)
        events = list(store)
        assert events[0].agent_id == 1  # day 0 before day 1
