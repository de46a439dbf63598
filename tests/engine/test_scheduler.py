"""Scheduler tests: Algorithm 1 vs fetch-and-filter equivalence + behavior."""

import re

import pytest

from repro.engine.scheduler import (
    FetchFilterScheduler,
    RelationshipScheduler,
    make_scheduler,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Trace, activate
from repro.workload.corpus import (
    CASE_STUDY_QUERIES,
    PERFORMANCE_QUERIES,
)
from tests.conftest import compile_text

NON_ANOMALY = [
    q for q in CASE_STUDY_QUERIES + PERFORMANCE_QUERIES if q.kind != "anomaly"
]


def rows_as_set(tuples):
    return {tuple(e.event_id for e in row) for row in tuples.rows}


class TestEquivalence:
    """Both strategies must produce identical tuple sets (paper invariant)."""

    @pytest.mark.parametrize("query", NON_ANOMALY, ids=lambda q: q.qid)
    def test_relationship_equals_fetch_filter(self, store, query):
        ctx = compile_text(query.text)
        rel = RelationshipScheduler(store).run(ctx)
        ff = FetchFilterScheduler(store).run(ctx)
        assert rel.patterns == ff.patterns
        assert rows_as_set(rel) == rows_as_set(ff)


class TestRelationshipScheduling:
    def test_higher_score_executes_first(self, store):
        # pattern 2 has far more constraints than pattern 1
        ctx = compile_text(
            'agentid = 3\n(at "01/05/2017")\n'
            "proc p1 read file f1 as e1\n"
            'proc p2["%sbblv.exe"] write ip i1[dstip = "203.0.113.129"] as e2\n'
            "with p1 = p2, e1 before e2\nreturn p1, f1"
        )
        scheduler = RelationshipScheduler(store)
        scheduler.run(ctx)
        assert scheduler.stats.order[0] == 1  # the constrained pattern first

    def test_constrained_execution_fetches_less(self, store):
        query = (
            'agentid = 3\n(at "01/05/2017")\n'
            "proc p1 read file f1 as e1\n"
            'proc p2["%sbblv.exe"] write ip i1[dstip = "203.0.113.129"] as e2\n'
            "with p1 = p2, e1 before e2\nreturn p1, f1"
        )
        ctx = compile_text(query)
        rel = RelationshipScheduler(store)
        rel.run(ctx)
        ff = FetchFilterScheduler(store)
        ff.run(ctx)
        assert rel.stats.constrained_executions >= 1
        assert rel.stats.events_fetched < ff.stats.events_fetched

    def test_single_pattern_no_relationships(self, store):
        ctx = compile_text(
            'agentid = 3\n(at "01/05/2017")\n'
            'proc p1 write ip i1[dstip = "203.0.113.129"] as e1\nreturn p1'
        )
        scheduler = RelationshipScheduler(store)
        tuples = scheduler.run(ctx)
        assert len(tuples) > 0
        assert scheduler.stats.data_queries_executed == 1

    def test_disconnected_patterns_cross_join(self, store):
        # two patterns with no relationship: result is the cross product
        ctx = compile_text(
            'agentid = 3\n(at "01/05/2017")\n'
            'proc p1["%osql.exe%"] start proc p2 as e1\n'
            'proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as e2\n'
            "return p1, f1"
        )
        rel = RelationshipScheduler(store).run(ctx)
        ff = FetchFilterScheduler(store).run(ctx)
        assert rows_as_set(rel) == rows_as_set(ff)

    def test_file_relationships_sorted_last(self, store):
        # relationship between two network/process patterns should be
        # processed before one touching a file pattern
        ctx = compile_text(
            'agentid = 1\n(at "01/05/2017")\n'
            "proc p1 start proc p2 as e1\n"
            "proc p2 connect ip i1 as e2\n"
            "proc p2 read file f1 as e3\n"
            "with e1 before e2, e2 before e3\nreturn p1, f1"
        )
        scheduler = RelationshipScheduler(store)
        scheduler.run(ctx)
        # first two executed patterns must be the process/network ones
        assert set(scheduler.stats.order[:2]) <= {0, 1}

    def test_empty_result_when_no_match(self, store):
        ctx = compile_text(
            'agentid = 1\n(at "01/05/2017")\n'
            'proc p1["%no_such_binary%"] start proc p2 as e1\n'
            "proc p2 read file f1 as e2\nwith e1 before e2\nreturn p1"
        )
        tuples = RelationshipScheduler(store).run(ctx)
        assert len(tuples) == 0


class TestBoundSetConstrainedExecution:
    """A pending pattern is constrained by every pattern already bound, and
    every equality crossing a join lands in its hash key (ISSUE 20)."""

    # The corpus's v2 made enterprise-wide over five days, as the lifecycle
    # benchmark's hunts are: evt2 shares its subject and object with evt1
    # but is scheduled by its temporal relationship to evt3.
    V2_HUNT = re.sub(
        r'agentid\s*=\s*\d+\s*\(at\s+"[^"]+"\)',
        '(from "01/06/2017" to "01/11/2017")',
        next(q for q in PERFORMANCE_QUERIES if q.qid == "v2").text,
    )

    @pytest.mark.parametrize("score_model", ["constraints", "cardinality"])
    def test_v2_hunt_fetches_and_joins_a_handful(self, store, score_model):
        ctx = compile_text(self.V2_HUNT)
        scheduler = RelationshipScheduler(store, score_model=score_model)
        tuples = scheduler.run(ctx)
        ff = FetchFilterScheduler(store).run(ctx)
        assert rows_as_set(tuples) == rows_as_set(ff) and len(tuples) > 0
        # Parent commit: 1,814 fetched (evt2 by time bound alone) and
        # 10,848 joined (a keyless join of evt2 into the bound set).
        assert scheduler.stats.events_fetched <= 10
        assert scheduler.stats.rows_joined <= 20

    def test_every_join_of_the_v2_hunt_has_a_key(self, store):
        ctx = compile_text(self.V2_HUNT)
        before = _cross_products()
        with activate(Trace("query")) as trace:
            RelationshipScheduler(store).run(ctx)
        assert _cross_products() == before
        joins = trace.root.find("join")
        assert [s.attrs["keys"] for s in joins] == [1, 2]
        assert not any("cross" in s.attrs for s in joins)
        scans = {s.attrs["pattern"]: s for s in trace.root.find("scan")}
        # evt2 is narrowed by both bound patterns: ids from evt1, the
        # window from evt1 and evt3.
        assert scans[1].attrs["narrowed_by"] == [0, 2]
        assert scans[1].attrs["narrow_subject.id"] == 1
        assert scans[1].attrs["narrow_object.id"] == 1
        assert scans[1].attrs["rows"] <= 2

    def test_keyless_join_is_marked_and_counted(self, store):
        ctx = compile_text(
            'agentid = 3\n(at "01/05/2017")\n'
            'proc p1["%sbblv.exe"] write ip i1[dstip = "203.0.113.129"] as e1\n'
            'proc p2["%osql.exe%"] start proc p3 as e2\n'
            "with e2 before e1\nreturn p1, p2"
        )
        before = _cross_products()
        with activate(Trace("query")) as trace:
            RelationshipScheduler(store).run(ctx)
        (join,) = trace.root.find("join")
        assert join.attrs["keys"] == 0 and join.attrs["cross"] is True
        assert _cross_products() == before + 1

    def test_fetch_filter_is_unchanged(self, store):
        # The Fig. 6 baseline narrows nothing and joins pair by pair.
        scheduler = FetchFilterScheduler(store)
        scheduler.run(compile_text(self.V2_HUNT))
        assert scheduler.stats.constrained_executions == 0
        assert scheduler.stats.order == [0, 1, 2]
        assert scheduler.stats.events_fetched > 1000


def _cross_products() -> float:
    return REGISTRY.get("aiql_join_cross_products_total").value()


class TestFactory:
    def test_make_scheduler(self, store):
        assert isinstance(
            make_scheduler("relationship", store), RelationshipScheduler
        )
        assert isinstance(
            make_scheduler("fetch_filter", store), FetchFilterScheduler
        )

    def test_unknown_scheduler(self, store):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("quantum", store)
