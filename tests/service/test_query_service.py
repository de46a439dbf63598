"""QueryService: concurrent execution, dedup, correctness."""

import threading

import pytest

from repro import AIQLSystem
from repro.service import QueryService, SharedExecutor
from repro.workload.corpus import ALL_QUERIES

BASE = 1483228800.0  # 2017-01-01 UTC

DROPPER_QUERY = '''
    agentid = 1
    (at "01/01/2017")
    proc p1 write file f1["/tmp/%"] as evt1
    proc p2 read file f1 as evt2
    with evt1 before evt2
    return distinct p1, f1, p2
'''


def _dropper_system() -> AIQLSystem:
    system = AIQLSystem()
    ing = system.ingestor
    shell = ing.process(1, 100, "bash", user="alice")
    wget = ing.process(1, 102, "wget", user="alice")
    dropper = ing.file(1, "/tmp/.dropper", owner="alice")
    malware = ing.process(1, 103, ".dropper", user="alice")
    ing.emit(1, BASE + 200, "start", shell, wget)
    ing.emit(1, BASE + 210, "write", wget, dropper, amount=700000)
    ing.emit(1, BASE + 240, "start", shell, malware)
    ing.emit(1, BASE + 250, "read", malware, dropper, amount=700000)
    return system


# A mixed slice of the paper's corpus: multievent + anomaly kinds.
def _corpus_sample(n=6):
    sample = [q for q in ALL_QUERIES if q.kind in ("multievent", "anomaly")]
    return sample[:n]


class TestConcurrentCorrectness:
    def test_concurrent_results_match_serial(self, enterprise):
        store = enterprise.store("partitioned")
        system = AIQLSystem.over(store, ingestor=enterprise.ingestor)
        queries = [q.text for q in _corpus_sample()]
        serial = [system.query(text).rows for text in queries]
        concurrent = [r.rows for r in system.service.run_many(queries)]
        assert concurrent == serial

    @pytest.mark.parametrize(
        "scheduling",
        ("relationship", "relationship_cardinality", "fetch_filter"),
    )
    def test_all_schedulers_agree_through_service(self, enterprise, scheduling):
        """The scheduler-equivalence invariant survives the service path."""
        store = enterprise.store("partitioned")
        reference = QueryService(store, scheduling="relationship")
        service = QueryService(store, scheduling=scheduling)
        queries = [q.text for q in _corpus_sample(4)]
        expected = [sorted(r.rows) for r in reference.run_many(queries)]
        actual = [sorted(r.rows) for r in service.run_many(queries)]
        assert actual == expected

    def test_error_propagates_through_future(self):
        system = _dropper_system()
        from repro.lang.errors import AIQLError

        with pytest.raises(AIQLError):
            system.service.submit("this is not aiql ((").result()


class TestInflightDedup:
    def test_identical_inflight_queries_share_one_future(self):
        system = _dropper_system()
        service = QueryService(
            system.store, executor=SharedExecutor(max_workers=1)
        )
        gate = threading.Event()
        # Occupy the only worker so every submission below stays queued
        # (and therefore in flight) until we open the gate.
        blocker = service._executor.submit(gate.wait)
        variants = [DROPPER_QUERY, DROPPER_QUERY.replace("\n", " \n ")]
        futures = service.submit_many(variants * 3)
        gate.set()
        blocker.result()
        assert len({id(f) for f in futures}) == 1  # whitespace-insensitive
        assert service.stats.deduped == 5
        assert service.stats.submitted == 6
        rows = [f.result().rows for f in futures]
        assert rows == [[("wget", "/tmp/.dropper", ".dropper")]] * 6
        assert service.stats.executed == 1

    def test_completed_queries_are_not_deduped(self):
        system = _dropper_system()
        service = system.service
        first = service.run(DROPPER_QUERY)
        before = service.stats.executed
        second = service.run(DROPPER_QUERY)
        assert second.rows == first.rows
        assert service.stats.executed == before + 1
        assert service.stats.deduped == 0


class TestIngestVisibility:
    def test_new_events_visible_after_ingest(self):
        system = _dropper_system()
        ing = system.ingestor
        assert system.service.run(DROPPER_QUERY).rows == [
            ("wget", "/tmp/.dropper", ".dropper")
        ]
        curl = ing.process(1, 104, "curl", user="alice")
        stage2 = ing.file(1, "/tmp/.stage2", owner="alice")
        loader = ing.process(1, 105, ".stage2", user="alice")
        ing.emit(1, BASE + 300, "write", curl, stage2, amount=1000)
        ing.emit(1, BASE + 310, "read", loader, stage2, amount=1000)
        assert sorted(system.service.run(DROPPER_QUERY).rows) == [
            ("curl", "/tmp/.stage2", ".stage2"),
            ("wget", "/tmp/.dropper", ".dropper"),
        ]


class TestAnomalyThroughService:
    def test_anomaly_query_matches_direct_execution(self, enterprise):
        anomaly = next(q for q in ALL_QUERIES if q.kind == "anomaly")
        store = enterprise.store("partitioned")
        system = AIQLSystem.over(store, ingestor=enterprise.ingestor)
        direct = system.query(anomaly.text)
        via_service = system.service.run(anomaly.text)
        assert via_service.rows == direct.rows
