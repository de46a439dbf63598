"""Ablations for the design choices DESIGN.md calls out (paper Sec. 7).

* score model — the published constraint-count heuristic vs the Sec. 7
  statistical (cardinality) model, on the queries where the heuristic
  mispredicts;
* constrained execution on/off — relationship scheduling with vs without
  feeding prior results into pending data queries (= fetch-and-filter);
* partition pruning on/off — the same data query against the partitioned
  store vs the flat heap;
* distribution policy — domain vs arrival segment placement under the
  *same* scheduler (isolates the Sec. 6.3.3 claim from the join strategy);
* segment count sweep — scan cost of the MPP substrate as the segment
  count grows (segments scan serially in process).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import compile_text
from repro.baselines.segmented import SegmentedStore
from repro.engine.executor import MultieventExecutor
from repro.engine.scheduler import FetchFilterScheduler, RelationshipScheduler
from repro.model.time import DAY, TimeWindow
from repro.storage.filters import EventFilter
from repro.workload.corpus import by_id
from repro.workload.loader import build_enterprise
from repro.workload.topology import APT_DAY

HEAVY_QUERY = "c4-8"


class TestScoreModelAblation:
    """Sec. 7's proposed statistical pruning model vs the published
    constraint-count heuristic, on the queries where the heuristic
    mispredicts (documented in EXPERIMENTS.md)."""

    @pytest.mark.parametrize("qid", ["d3", "v2", "c4-8"])
    @pytest.mark.parametrize("model", ["constraints", "cardinality"])
    def test_score_model(self, benchmark, enterprise, qid, model):
        store = enterprise.store("partitioned")
        ctx = compile_text(by_id(qid).text)
        benchmark.pedantic(
            lambda: RelationshipScheduler(store, score_model=model).run(ctx),
            rounds=3,
            iterations=1,
        )

    def test_cardinality_model_fetches_less_on_d3(self, enterprise):
        store = enterprise.store("partitioned")
        ctx = compile_text(by_id("d3").text)
        heuristic = RelationshipScheduler(store)
        heuristic.run(ctx)
        statistical = RelationshipScheduler(store, score_model="cardinality")
        statistical.run(ctx)
        print(
            f"\nd3 events fetched — constraint-count: "
            f"{heuristic.stats.events_fetched}, cardinality: "
            f"{statistical.stats.events_fetched}"
        )
        assert (
            statistical.stats.events_fetched
            <= heuristic.stats.events_fetched
        )


class TestConstrainedExecutionAblation:
    def test_with_constrained_execution(self, benchmark, enterprise):
        store = enterprise.store("partitioned")
        ctx = compile_text(by_id(HEAVY_QUERY).text)
        benchmark.pedantic(
            lambda: RelationshipScheduler(store).run(ctx), rounds=3, iterations=1
        )

    def test_without_constrained_execution(self, benchmark, enterprise):
        store = enterprise.store("partitioned")
        ctx = compile_text(by_id(HEAVY_QUERY).text)
        benchmark.pedantic(
            lambda: FetchFilterScheduler(store).run(ctx), rounds=3, iterations=1
        )

    def test_constrained_fetches_no_more(self, enterprise):
        store = enterprise.store("partitioned")
        ctx = compile_text(by_id(HEAVY_QUERY).text)
        rel = RelationshipScheduler(store)
        rel.run(ctx)
        ff = FetchFilterScheduler(store)
        ff.run(ctx)
        print(
            f"\nevents fetched — relationship: {rel.stats.events_fetched}, "
            f"fetch-and-filter: {ff.stats.events_fetched}"
        )
        assert rel.stats.events_fetched <= ff.stats.events_fetched


class TestPartitionPruningAblation:
    FLT = EventFilter(
        agent_ids=frozenset({3}),
        window=TimeWindow(APT_DAY, APT_DAY + DAY),
    )

    def test_partitioned_scan(self, benchmark, enterprise):
        store = enterprise.store("partitioned")
        events = benchmark.pedantic(
            lambda: store.scan_columns(self.FLT).events(), rounds=5, iterations=1
        )
        assert events

    def test_flat_scan(self, benchmark, enterprise):
        store = enterprise.store("flat")
        events = benchmark.pedantic(
            lambda: store.scan_columns(self.FLT).events(), rounds=5, iterations=1
        )
        assert events

    def test_pruning_reduces_partitions_touched(self, enterprise):
        store = enterprise.store("partitioned")
        touched = len(store._pruned(self.FLT))
        total = len(store.partition_keys)
        print(f"\npartitions touched: {touched}/{total}")
        assert touched < total / 4


class TestDistributionPolicyAblation:
    """Same relationship scheduler, only the segment placement differs."""

    @pytest.mark.parametrize("policy", ["domain", "arrival"])
    def test_policy(self, benchmark, enterprise, policy):
        store = enterprise.store(f"segmented_{policy}")
        ctx = compile_text(by_id(HEAVY_QUERY).text)
        executor = MultieventExecutor(store)
        result = benchmark.pedantic(
            lambda: executor.run(ctx), rounds=3, iterations=1
        )
        assert len(result) >= 1


class TestSegmentCountSweep:
    @pytest.mark.parametrize("segments", [1, 2, 5, 10])
    def test_scan_scaling(self, benchmark, segments):
        ent = build_enterprise(
            stores=("segmented_domain",),
            events_per_host_day=60,
            segments=segments,
        )
        store = ent.store("segmented_domain")
        assert isinstance(store, SegmentedStore)
        flt = EventFilter(window=TimeWindow(APT_DAY, APT_DAY + DAY))
        events = benchmark.pedantic(
            lambda: store.scan_columns(flt).events(), rounds=3, iterations=1
        )
        assert events
