"""EXPLAIN ANALYZE ground truth on the paper's Fig. 4 APT query (c1-1).

The span tree's per-pattern cardinalities and prune/cache annotations are
asserted against independent scans of the same store — the annotations
must be facts about the execution, not estimates.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine import PLAN_CACHE
from repro.engine.data_query import DataQuery
from repro.obs import REGISTRY, set_metrics_enabled
from repro.workload.corpus import by_id
from repro.workload.loader import build_enterprise
from tests.oracle import rows

APT_QUERY = by_id("c1-1").text  # Fig. 4: outlook -> IMAP ip -> %.xlsm


@pytest.fixture(scope="module")
def system():
    deployment = AIQLSystem(SystemConfig())
    build_enterprise(
        stores=(), ingestor=deployment.ingestor, events_per_host_day=40
    )
    yield deployment
    deployment.close()


class TestExplainAnalyzeGroundTruth:
    def test_span_tree_shape(self, system):
        report = system.explain(APT_QUERY)
        assert report.kind == "multievent"
        assert report.root is not None
        assert report.root.name == "query"
        names = [c.name for c in report.root.children]
        assert names[0] == "compile"
        assert "schedule" in names
        assert len(report.spans("join")) >= 1

    def test_compile_span_says_whether_the_plan_was_cached(self, system):
        PLAN_CACHE.clear()
        first = system.explain(APT_QUERY).spans("compile")[0]
        second = system.explain(APT_QUERY).spans("compile")[0]
        assert first.attrs["cached"] is False
        assert second.attrs["cached"] is True
        assert "cached=True" in system.explain(APT_QUERY).to_text()

    def test_per_pattern_cardinalities_match_store(self, system):
        report = system.explain(APT_QUERY)
        ctx = system.compile(APT_QUERY)
        spans = report.pattern_spans()
        assert len(spans) == len(ctx.patterns)
        order = report.scheduler["order"]
        assert [s.attrs["pattern"] for s in spans] == order

        # The first-executed pattern runs unconstrained, so its filter is
        # exactly the compiled pattern filter — scan it independently.
        first = spans[0]
        assert "constrained" not in first.attrs
        flt = DataQuery.for_pattern(ctx.patterns[order[0]]).filter
        truth = len(rows(system.store, flt))
        assert first.attrs["rows"] == truth
        assert first.counters["rows_selected"] == truth
        assert first.counters["rows_scanned"] >= truth

        # Scanned + pruned partitions account for every partition.
        total_partitions = system.store.stats()["partitions"]
        assert (
            first.counters["partitions_scanned"]
            + first.counters["partitions_pruned"]
            == total_partitions
        )
        # Narrowed re-queries are marked and carry their narrowing inputs.
        constrained = [s for s in spans if s.attrs.get("constrained")]
        assert constrained
        for span in constrained:
            assert "narrowed_by" in span.attrs

        # The scheduler's fetched-event total is the sum of span rows.
        fetched = sum(s.attrs["rows"] for s in spans)
        assert fetched == report.scheduler["events_fetched"]

    def test_traced_result_equals_untraced(self, system):
        traced = system.explain(APT_QUERY)
        plain = system.query(APT_QUERY)
        assert traced.rows == len(plain)

    def test_text_rendering_carries_annotations(self, system):
        text = system.explain(APT_QUERY).to_text()
        assert "score=" in text
        assert "rows_scanned=" in text
        assert "partitions_pruned=" in text
        assert "scheduler order:" in text

    def test_json_rendering(self, system):
        import json

        payload = json.loads(system.explain(APT_QUERY).to_json())
        assert payload["kind"] == "multievent"
        assert payload["trace"]["name"] == "query"
        assert payload["rows"] >= 1

    def test_static_explain_has_no_spans(self, system):
        report = system.explain(APT_QUERY, analyze=False)
        assert report.root is None
        assert report.pattern_spans() == []
        assert "score=" in str(report)

    def test_tracing_disabled_falls_back_to_static(self):
        system = AIQLSystem(SystemConfig(tracing=False))
        try:
            report = system.explain("proc p read file f\nreturn p")
            assert report.root is None
        finally:
            system.close()
            set_metrics_enabled(True)


class TestSystemObservabilitySurface:
    def test_query_metrics_accumulate(self, system):
        counter = REGISTRY.get("aiql_queries_total")
        before = counter.value()
        system.query(APT_QUERY)
        assert counter.value() == before + 1

    def test_explain_analyze_counts_as_a_query(self, system):
        # Same convention as PostgreSQL: EXPLAIN ANALYZE executes, so it
        # shows up in the query statistics; plan-only explain does not.
        counter = REGISTRY.get("aiql_queries_total")
        before = counter.value()
        system.explain(APT_QUERY)
        assert counter.value() == before + 1
        system.explain(APT_QUERY, analyze=False)
        assert counter.value() == before + 1

    def test_metrics_text_exposition(self, system):
        text = system.metrics_text()
        assert "# TYPE aiql_queries_total counter" in text
        assert "aiql_query_seconds_bucket" in text
        assert "aiql_system_events" in text  # flattened system stats gauge

    def test_metrics_snapshot_is_plain_data(self, system):
        snap = system.metrics_snapshot()
        assert snap["aiql_queries_total"]["kind"] == "counter"

    def test_slow_query_log_records_through_facade(self):
        system = AIQLSystem(SystemConfig(slow_query_ms=0.0))
        try:
            build_enterprise(
                stores=(), ingestor=system.ingestor, events_per_host_day=5
            )
            system.query("proc p read file f\nreturn count p")
            entries = system.slow_queries()
            assert len(entries) == 1
            assert "proc p read file f" in entries[0].text
            assert system.stats()["slow_queries"]["recorded"] == 1
        finally:
            system.close()
            set_metrics_enabled(True)

    def test_metrics_disabled_config_stops_accounting(self):
        system = AIQLSystem(SystemConfig(metrics=False))
        try:
            assert not REGISTRY.enabled
            counter = REGISTRY.get("aiql_queries_total")
            before = counter.value()
            system.query("proc p read file f\nreturn count p")
            assert counter.value() == before
        finally:
            system.close()
            set_metrics_enabled(True)


class TestRowsVisited:
    """``rows_visited``: the candidates a hot scan hands the kernel after
    index and postings narrowing, between the rows resident in the
    scanned partitions and the rows selected."""

    def test_every_scan_span_brackets_its_visits(self, system):
        spans = system.explain(APT_QUERY).pattern_spans()
        for span in spans:
            counters = span.counters
            assert (
                counters["rows_selected"]
                <= counters["rows_visited"]
                <= counters["rows_scanned"]
            )
        # A constrained scan visits what its postings hold, not the
        # partitions it scans.
        assert any(
            s.counters["rows_visited"] < s.counters["rows_scanned"]
            for s in spans
            if s.attrs.get("constrained")
        )

    def test_the_counter_sums_the_spans(self, system):
        previous = REGISTRY.enabled
        set_metrics_enabled(True)
        try:
            metric = REGISTRY.get("aiql_scan_rows_visited_total")
            before = metric.value()
            spans = system.explain(APT_QUERY).pattern_spans()
            visited = sum(s.counters["rows_visited"] for s in spans)
            assert visited > 0
            assert metric.value() - before == visited
        finally:
            set_metrics_enabled(previous)

    def test_an_untraced_scan_without_metrics_counts_nothing(
        self, system, monkeypatch
    ):
        from repro.storage.table import EventTable

        handed = []
        real = EventTable.scan_select

        def scan_select(self, flt, kernel=None, visits=None):
            handed.append(visits)
            return real(self, flt, kernel, visits)

        monkeypatch.setattr(EventTable, "scan_select", scan_select)
        monkeypatch.setattr(REGISTRY, "enabled", False)
        system.query(APT_QUERY)
        assert handed and all(visits is None for visits in handed)
