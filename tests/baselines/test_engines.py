"""Baseline engines must return exactly the AIQL engine's results."""

import pytest

from repro.baselines.graph import GraphEngine, GraphStore
from repro.baselines.mpp import aiql_parallel_engine, greenplum_engine
from repro.baselines.relational import MonolithicJoinEngine
from repro.engine.executor import MultieventExecutor
from repro.storage.filters import EventFilter
from repro.workload.corpus import CASE_STUDY_QUERIES, PERFORMANCE_QUERIES
from tests.conftest import compile_text
from tests.oracle import rows

NON_ANOMALY = [
    q for q in CASE_STUDY_QUERIES + PERFORMANCE_QUERIES if q.kind != "anomaly"
]
SAMPLE = [q for q in NON_ANOMALY if q.qid in (
    "c1-1", "c2-5", "c2-8", "c3-2", "c4-4", "c4-8", "c5-2", "c5-7",
    "a2", "a5", "d1", "d3", "v1", "v4", "s1", "s3", "s4",
)]


@pytest.fixture(scope="module")
def engines(enterprise):
    flat = enterprise.store("flat")
    graph = GraphStore.from_events(enterprise.registry, rows(flat, EventFilter()))
    return {
        "aiql": MultieventExecutor(enterprise.store("partitioned")),
        "postgres": MonolithicJoinEngine(flat),
        "postgres_sched": MonolithicJoinEngine(enterprise.store("partitioned")),
        "neo4j": GraphEngine(graph),
        "greenplum": greenplum_engine(enterprise.store("segmented_arrival")),
        "aiql_parallel": aiql_parallel_engine(
            enterprise.store("segmented_domain")
        ),
    }


class TestResultEquivalence:
    @pytest.mark.parametrize("query", SAMPLE, ids=lambda q: q.qid)
    def test_all_engines_agree(self, engines, query):
        ctx = compile_text(query.text)
        reference = set(engines["aiql"].run(ctx).rows)
        for name in ("postgres", "postgres_sched", "neo4j", "greenplum",
                     "aiql_parallel"):
            got = set(engines[name].run(ctx).rows)
            assert got == reference, f"{name} disagrees on {query.qid}"

    @pytest.mark.parametrize("query", NON_ANOMALY, ids=lambda q: q.qid)
    def test_postgres_full_corpus(self, engines, query):
        ctx = compile_text(query.text)
        assert set(engines["postgres"].run(ctx).rows) == set(
            engines["aiql"].run(ctx).rows
        )


class TestCostAsymmetry:
    """The baselines must *fetch more* than relationship scheduling —
    the mechanism behind the paper's Figs. 5-6 speedups."""

    def test_postgres_fetches_at_least_as_much(self, engines):
        query = next(q for q in NON_ANOMALY if q.qid == "c5-7")
        ctx = compile_text(query.text)
        engines["aiql"].run(ctx)
        engines["postgres_sched"].run(ctx)
        aiql_fetched = engines["aiql"].last_stats.events_fetched
        pg_fetched = engines["postgres_sched"].last_stats.events_fetched
        assert pg_fetched >= aiql_fetched

    def test_graph_scans_more_edges_than_aiql_fetches(self, engines):
        query = next(q for q in NON_ANOMALY if q.qid == "c4-8")
        ctx = compile_text(query.text)
        engines["aiql"].run(ctx)
        engines["neo4j"].run(ctx)
        assert (
            engines["neo4j"].last_stats.events_fetched
            > engines["aiql"].last_stats.events_fetched
        )


class TestMppGuards:
    def test_greenplum_requires_arrival(self, enterprise):
        with pytest.raises(ValueError, match="arrival"):
            greenplum_engine(enterprise.store("segmented_domain"))

    def test_aiql_parallel_requires_domain(self, enterprise):
        with pytest.raises(ValueError, match="domain"):
            aiql_parallel_engine(enterprise.store("segmented_arrival"))


class TestGraphStore:
    def test_edge_counts(self, enterprise):
        flat = enterprise.store("flat")
        graph = GraphStore.from_events(enterprise.registry, rows(flat, EventFilter()))
        assert len(graph) == len(flat)

    def test_adjacency_lists(self, enterprise):
        flat = enterprise.store("flat")
        events = rows(flat, EventFilter())
        graph = GraphStore.from_events(enterprise.registry, events)
        event = events[0]
        assert any(
            graph.edges[i] is event
            for i in graph.out_edges[event.subject_id]
        )
