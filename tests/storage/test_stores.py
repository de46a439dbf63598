"""Store-level tests: pruning soundness, policy equivalence."""

import pytest

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.entities import EntityType
from repro.model.time import DAY, TimeWindow
from repro.storage.database import EventStore
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.ingest import Ingestor
from repro.storage.kernels import compile_filter
from repro.storage.partition import PartitionScheme
from repro.workload.topology import APT_DAY, ATTACKER_IP
from tests.oracle import oracle_rows, rows, stored_rows


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
    def test_scan_equals_oracle(self, enterprise, flt):
        store = enterprise.store("partitioned")
        assert rows(store, flt) == oracle_rows(store, flt)

    @pytest.mark.parametrize("flt", FILTERS)
    def test_scan_without_entity_index_equals_scan(self, enterprise, flt):
        store = enterprise.store("partitioned")
        assert rows(store, flt, use_entity_index=False) == rows(store, flt)

    @pytest.mark.parametrize("flt", FILTERS)
    def test_supplied_kernel_equals_self_compiled(self, enterprise, flt):
        """A plan's precompiled kernel selects what a plan-less scan does."""
        store = enterprise.store("partitioned")
        supplied = store.scan_columns(flt, kernel=compile_filter(flt))
        assert supplied.events() == rows(store, flt)

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
        reference = rows(enterprise.store("partitioned"), flt)
        assert rows(enterprise.store(name), flt) == reference

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
        assert len(store._pruned(flt)) < store.segment_count

    def test_arrival_policy_cannot_prune(self, enterprise):
        store = enterprise.store("segmented_arrival")
        flt = EventFilter(
            agent_ids=frozenset({3}),
            window=TimeWindow(APT_DAY, APT_DAY + DAY),
        )
        assert len(store._pruned(flt)) == store.segment_count

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SegmentedStore(policy="random")

    def test_invalid_segment_count_rejected(self):
        with pytest.raises(ValueError):
            SegmentedStore(segments=0)


class TestPlacements:
    """The baselines are EventStore layouts, not store implementations."""

    def test_baselines_are_event_store_placements(self, enterprise):
        flat = enterprise.store("flat")
        domain = enterprise.store("segmented_domain")
        arrival = enterprise.store("segmented_arrival")
        for store in (flat, domain, arrival):
            assert isinstance(store, EventStore)
        apt_host_day = EventFilter(
            agent_ids=frozenset({3}),
            window=TimeWindow(APT_DAY, APT_DAY + DAY),
        )
        assert flat.estimated_events(apt_host_day) == len(flat)
        kept = sum(len(table) for table in domain._pruned(apt_host_day))
        assert domain.estimated_events(apt_host_day) == kept < len(domain)
        assert arrival.estimated_events(apt_host_day) == len(arrival)


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

    def test_column_blocks_ordered_by_partition(self):
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
        events = stored_rows(store)
        assert events[0].agent_id == 1  # day 0 before day 1
