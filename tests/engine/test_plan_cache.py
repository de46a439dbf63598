"""The plan cache behind ``compile_query``: a query is prepared once."""

import sys
import threading

import pytest

import repro.lang.parser as parser_module
from repro import AIQLSystem, SystemConfig
from repro.engine import PLAN_CACHE, PlanCache, canonical_text, compile_query
from repro.engine.plan_cache import PLAN_CACHE_PLANS
from repro.lang.errors import AIQLSemanticError, AIQLSyntaxError
from repro.obs import REGISTRY
from repro.workload.corpus import ALL_QUERIES
from tests.conftest import compile_text

BASE = 1483228800.0  # 2017-01-01 UTC

DROPPER_QUERY = """
    agentid = 1
    (at "01/01/2017")
    proc p1 write file f1["/tmp/%"] as evt1
    proc p2 read file f1 as evt2
    with evt1 before evt2
    return distinct p1, f1, p2
"""


def numbered(n: int) -> str:
    return f'agentid = {n} (at "01/01/2017") proc p read file f return p'


def counter(name: str) -> float:
    return REGISTRY.get(name).value()


@pytest.fixture(autouse=True)
def empty_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


@pytest.fixture
def parses(monkeypatch):
    """Texts handed to ``repro.lang.parser.parse`` while the test runs."""
    seen = []
    real = parser_module.parse

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(parser_module, "parse", counting)
    return seen


def dropper_system() -> AIQLSystem:
    system = AIQLSystem(config=SystemConfig())
    ing = system.ingestor
    wget = ing.process(1, 102, "wget", user="alice")
    dropper = ing.file(1, "/tmp/.dropper", owner="alice")
    malware = ing.process(1, 103, ".dropper", user="alice")
    ing.emit(1, BASE + 210, "write", wget, dropper, amount=700000)
    ing.emit(1, BASE + 250, "read", malware, dropper, amount=700000)
    return system


class TestCanonicalText:
    def test_whitespace_between_tokens_collapses(self):
        assert canonical_text('  proc p\n\tread   file f["a b"]\n') == (
            'proc p read file f["a b"]'
        )

    def test_is_the_join_of_the_split_for_plain_texts(self):
        for query in ALL_QUERIES:
            assert canonical_text(query.text) == " ".join(query.text.split())

    @pytest.mark.parametrize(
        "text",
        [
            'proc p read file f["a  b"] return p',  # a run inside a literal
            'proc p read file f["a\tb"] return p',
            "proc p read file f['a b']   return p",  # single-quoted literal
            'proc p read file f["a\\"  b"]   return p',  # escaped quote
            'proc p read file f   // note\n return p',  # the newline ends it
            'proc p read file f["a] return  p',  # unterminated literal
        ],
    )
    def test_a_text_that_collapsing_could_change_is_only_stripped(self, text):
        assert canonical_text(f"  {text}\n") == text

    def test_literals_differing_in_whitespace_get_their_own_plans(self):
        one = compile_query('proc p read file f["a b"] return p')
        two = compile_query('proc p read file f["a  b"] return p')
        assert one is not two
        assert str(one.patterns[0].filter) != str(two.patterns[0].filter)

    def test_a_comment_does_not_swallow_the_rest_of_a_variant(self):
        commented = "proc p read file f // as evt\n return p"
        swallowed = "proc p read file f // as evt return p"
        assert compile_query(commented).labels == ("p",)
        with pytest.raises(AIQLSyntaxError):
            compile_query(swallowed)


class TestCompileOnce:
    def test_whitespace_variants_share_one_plan(self, parses):
        plan = compile_query(DROPPER_QUERY)
        assert compile_query(" ".join(DROPPER_QUERY.split())) is plan
        assert compile_query(DROPPER_QUERY.replace("\n", "\n\n\t")) is plan
        assert compile_query(DROPPER_QUERY, canonical_text(DROPPER_QUERY)) is plan
        assert len(parses) == 1
        assert len(PLAN_CACHE) == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ("proc p read file f return", AIQLSyntaxError),
            ("proc p read file f return q", AIQLSemanticError),
            ('proc p read file f["a\nb"] return p', AIQLSyntaxError),
        ],
    )
    def test_an_erroring_text_raises_every_time_and_is_not_cached(
        self, text, error, parses
    ):
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as caught:
                compile_query(text)
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert len(parses) == 3
        assert len(PLAN_CACHE) == 0

    def test_the_257th_distinct_text_evicts_the_least_recently_used(self):
        assert PLAN_CACHE.max_plans == PLAN_CACHE_PLANS == 256
        evictions = counter("aiql_plan_cache_evictions_total")
        plans = [compile_query(numbered(n)) for n in range(256)]
        assert len(PLAN_CACHE) == 256
        assert counter("aiql_plan_cache_evictions_total") == evictions
        assert compile_query(numbered(0)) is plans[0]  # 1 is now the oldest
        compile_query(numbered(256))
        assert len(PLAN_CACHE) == 256
        assert counter("aiql_plan_cache_evictions_total") == evictions + 1
        assert compile_query(numbered(0)) is plans[0]
        assert compile_query(numbered(2)) is plans[2]
        assert compile_query(numbered(1)) is not plans[1]

    def test_counters_and_the_stats_view_agree(self):
        hits = counter("aiql_plan_cache_hits_total")
        misses = counter("aiql_plan_cache_misses_total")
        compile_query(numbered(1))
        compile_query(numbered(1))
        compile_query(numbered(1))
        assert counter("aiql_plan_cache_misses_total") == misses + 1
        assert counter("aiql_plan_cache_hits_total") == hits + 2
        view = PLAN_CACHE.stats()
        assert view["plans"] == 1 and view["max_plans"] == 256
        assert view["hits"] == hits + 2 and view["misses"] == misses + 1

    def test_a_private_cache_needs_a_positive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(0)


class TestEveryCompilePath:
    def test_second_issue_of_every_corpus_query_parses_nothing(
        self, enterprise, parses
    ):
        """Facade, service, explain and subscribe all sit behind the cache."""
        system = AIQLSystem.over(
            enterprise.store("partitioned"), ingestor=enterprise.ingestor
        )
        first = {q.qid: system.query(q.text).rows for q in ALL_QUERIES}
        assert len(parses) == len(ALL_QUERIES)
        del parses[:]
        for query in ALL_QUERIES:
            assert system.query(query.text).rows == first[query.qid]
            assert system.service.run(query.text).rows == first[query.qid]
            assert system.explain(query.text, analyze=False).plan
        assert system.explain(DROPPER_QUERY).spans("compile")  # a miss
        standing = system.subscribe(DROPPER_QUERY)
        system.unsubscribe(standing)
        assert parses == [DROPPER_QUERY]

    def test_a_repeated_query_sees_events_ingested_since(self, parses):
        """Plans hold no data: the same plan object answers both."""
        with dropper_system() as system:
            before = system.query(DROPPER_QUERY)
            plan = compile_query(DROPPER_QUERY)
            ing = system.ingestor
            curl = ing.process(1, 200, "curl", user="bob")
            payload = ing.file(1, "/tmp/payload", owner="bob")
            runner = ing.process(1, 201, "payload", user="bob")
            ing.emit(1, BASE + 300, "write", curl, payload, amount=10)
            ing.emit(1, BASE + 310, "read", runner, payload, amount=10)
            after = system.query(DROPPER_QUERY)
            assert compile_query(DROPPER_QUERY) is plan
        assert len(parses) == 1
        assert len(before) == 1 and len(after) == 2
        assert set(before.rows) < set(after.rows)

    def test_slow_log_text_is_the_shared_canonical_form(self):
        config = SystemConfig(slow_query_ms=0.0)
        with AIQLSystem(config=config) as system:
            system.query(DROPPER_QUERY)
            system.service.run(DROPPER_QUERY)
            precompiled = system.service._execute(compile_query(DROPPER_QUERY))
            assert len(precompiled) == 0
            texts = [entry.text for entry in system.slow_queries()]
        key = canonical_text(DROPPER_QUERY)
        assert texts == [key, key, "<precompiled>"]

    def test_stats_expose_the_plan_cache_view(self):
        with AIQLSystem() as system:
            system.query(DROPPER_QUERY)
            system.query(DROPPER_QUERY)
            view = system.stats()["plan_cache"]
        assert view == PLAN_CACHE.stats()
        assert view["plans"] == 1 and view["hits"] >= 1


class TestSharedPlanUnderConcurrency:
    def test_one_plan_from_8_threads_beside_a_writer(self):
        """Every execution of the cached plan, and of a plan compiled
        fresh for that call, returns the answer the data holds — while a
        writer commits entities and events that land in the scanned
        partition without matching the query."""
        with dropper_system() as system:
            expected = sorted(system.query(DROPPER_QUERY).rows)
            cached = compile_query(DROPPER_QUERY)
            stop = threading.Event()
            wrong = []
            calls = [0] * 8

            def writer():
                ing = system.ingestor
                session = system.stream(batch_size=8)
                n = 0
                while not stop.is_set() and n < 20_000:
                    proc = ing.process(1, 1000 + n, f"job{n}", user="carol")
                    target = ing.file(1, f"/var/log/job{n}.log", owner="carol")
                    session.append(1, BASE + 400 + n, "write", proc, target)
                    n += 1
                session.commit()

            def reader(slot):
                while not stop.is_set():
                    plan = compile_query(DROPPER_QUERY)
                    fresh = compile_text(DROPPER_QUERY)
                    for ctx in (plan, fresh):
                        rows = sorted(system.service._execute(ctx).rows)
                        if plan is not cached or rows != expected:
                            wrong.append((slot, plan is cached, rows))
                    calls[slot] += 1

            threads = [threading.Thread(target=writer, daemon=True)] + [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                threads[0].join(timeout=1.0)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
                stop.set()
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert all(calls)
            assert system.store.stats()["events"] > 2
