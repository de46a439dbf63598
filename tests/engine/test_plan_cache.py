"""The plan cache behind ``compile_query``: a query is prepared once."""

import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.lang.parser as parser_module
from repro import AIQLSystem, SystemConfig
from repro.engine import PLAN_CACHE, PlanCache, canonical_text, compile_query
from repro.engine.plan_cache import PLAN_CACHE_PLANS
from benchmarks.e2e.tape import (
    SWEEP_TEMPLATE,
    hunt_candidates,
    hunt_text,
    round_queries,
)
from repro.api.errors import Code, classify
from repro.lang.errors import AIQLError, AIQLSemanticError, AIQLSyntaxError
from repro.lang.slots import scan_slots
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


# ---------------------------------------------------------------------------
# parameterised plans: a text whose skeleton is cached is bound, not compiled
# ---------------------------------------------------------------------------


def outcome(compile_fn, text):
    """``("plan", ctx)`` or ``("error", type, message)``."""
    try:
        return ("plan", compile_fn(text))
    except AIQLError as exc:
        return ("error", type(exc), str(exc))


def shifted(text: str) -> str:
    """``text`` with every corpus day moved to another day (same skeleton)."""
    def other_day(match):
        return '"01/%02d/2017"' % (int(match.group(1)) % 9 + 1)

    return re.sub(r'"01/(\d\d)/2017"', other_day, text)


class TestBoundEqualsCompiled:
    def test_every_corpus_query(self):
        for query in ALL_QUERIES:
            compile_query(shifted(query.text))  # caches the skeleton
            binds = counter("aiql_plan_cache_binds_total")
            bound = compile_query(query.text)
            assert counter("aiql_plan_cache_binds_total") == binds + 1, query.qid
            assert bound == compile_text(query.text), query.qid

    def test_every_hunt_candidate_and_window(self):
        for query in hunt_candidates():
            for before in (1, 2, 3):
                for after in (1, 2, 3):
                    text = hunt_text(query, before, after)
                    assert compile_query(text) == compile_text(text), text
        assert len(PLAN_CACHE) == len(hunt_candidates())

    def test_the_sweep_template(self):
        texts = [
            SWEEP_TEMPLATE.format(
                start=f"01/0{day}/2017", end="01/09/2017", amount=amount
            )
            for day in (1, 3, 5)
            for amount in (600_000, 777_777, 999_999)
        ]
        misses = counter("aiql_plan_cache_misses_total")
        for text in texts:
            assert compile_query(text) == compile_text(text)
        assert counter("aiql_plan_cache_misses_total") == misses + 1
        assert PLAN_CACHE.stats()["templates"] == 1

    def test_an_exact_repeat_is_a_hit_not_a_bind(self):
        text = SWEEP_TEMPLATE.format(start="01/02/2017", end="01/04/2017", amount=5)
        plan = compile_query(text)
        binds = counter("aiql_plan_cache_binds_total")
        assert compile_query(text) is plan
        assert counter("aiql_plan_cache_binds_total") == binds

    def test_a_bound_plan_answers_like_a_compiled_one(self):
        with dropper_system() as system:
            system.query(DROPPER_QUERY.replace("01/01/2017", "01/02/2017"))
            binds = counter("aiql_plan_cache_binds_total")
            rows = system.query(DROPPER_QUERY).rows
            assert counter("aiql_plan_cache_binds_total") == binds + 1
            compiled = system.service._execute(compile_text(DROPPER_QUERY))
            assert sorted(rows) == sorted(compiled.rows)
            assert len(rows) == 1

    def test_explain_analyze_marks_a_bound_compile(self):
        primer = DROPPER_QUERY.replace("01/01/2017", "01/02/2017")
        with dropper_system() as system:
            system.query(primer)
            for _ in range(2):  # a bound plan is not cached under its text
                span = system.explain(DROPPER_QUERY).spans("compile")[0]
                assert span.attrs["bound"] is True
                assert span.attrs["cached"] is False
            span = system.explain(primer).spans("compile")[0]
            assert span.attrs["cached"] is True and "bound" not in span.attrs

    def test_stats_view_counts_binds(self):
        binds = counter("aiql_plan_cache_binds_total")
        compile_query(numbered(1))
        compile_query(numbered(1).replace("01/01/2017", "01/03/2017"))
        view = PLAN_CACHE.stats()
        assert view["binds"] == binds + 1
        assert view["plans"] == 1 and view["templates"] == 1


class TestBadWindowLiterals:
    INVERTED = '(from "01/05/2017" to "01/01/2017") proc p read file f return p'
    UNPARSEABLE = '(at "13/45/2017") proc p read file f return p'

    @pytest.mark.parametrize(
        "text, literal",
        [
            (INVERTED, '(from "01/05/2017" to "01/01/2017")'),
            (UNPARSEABLE, '(at "13/45/2017")'),
        ],
    )
    def test_a_bad_window_is_a_semantic_error_naming_the_literal(self, text, literal):
        for _ in range(2):
            with pytest.raises(AIQLSemanticError) as caught:
                compile_query(text)
            assert literal in str(caught.value)
        assert len(PLAN_CACHE) == 0
        envelope = classify(caught.value)
        assert envelope.code == Code.SEMANTIC and envelope.http_status == 400

    def test_the_facade_raises_it_too(self):
        with AIQLSystem() as system:
            for text in (self.INVERTED, self.UNPARSEABLE):
                with pytest.raises(AIQLSemanticError):
                    system.query(text)

    @pytest.mark.parametrize("text", [INVERTED, UNPARSEABLE])
    def test_binding_raises_what_compiling_raises(self, text):
        compile_query(text.replace("13/45", "01/01").replace('to "01/01', 'to "01/09'))
        assert PLAN_CACHE.stats()["templates"] == 1
        binds = counter("aiql_plan_cache_binds_total")
        bound = outcome(compile_query, text)
        assert counter("aiql_plan_cache_binds_total") == binds + 1
        assert bound == outcome(compile_text, text)
        assert bound[0] == "error"
        assert len(PLAN_CACHE) == 1


DATES = st.sampled_from(
    ["01/01/2017", "01/05/2017", "01/09/2017", "2017-01-03", "01/07/2017 10:30",
     "2017-01-04T23:59:59Z", "13/45/2017", "yesterday", ""]
)


@st.composite
def numbers(draw):
    """The written magnitude of a number slot: an int or a float."""
    if draw(st.booleans()):
        return str(draw(st.integers(min_value=0, max_value=10**9)))
    whole = draw(st.integers(min_value=0, max_value=10**6))
    return f"{whole}.{draw(st.integers(min_value=0, max_value=999)):03d}"


@st.composite
def slot_queries(draw):
    """Two texts with one skeleton: a shape (window kinds, per-pattern
    windows, signs) drawn once, and the slot literals drawn twice."""
    global_kind = draw(st.sampled_from(["at", "from", None]))
    pattern_kind = draw(st.sampled_from(["at", "from", None]))
    signs = [draw(st.sampled_from(["", "-"])) for _ in range(3)]
    ops = [draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])) for _ in range(3)]

    def window(kind):
        if kind == "at":
            return f'(at "{draw(DATES)}")'
        if kind == "from":
            return f'(from "{draw(DATES)}" to "{draw(DATES)}")'
        return ""

    def text():
        n = [f"{sign}{draw(numbers())}" for sign in signs]
        return " ".join(
            part
            for part in (
                window(global_kind),
                f"proc p1[pid {ops[0]} {n[0]}] write file f1"
                f" as evt1[amount {ops[1]} {n[1]}]",
                window(pattern_kind),
                f"proc p2 read file f1 as evt2[amount {ops[2]} {n[2]} || amount = 0]",
                "with evt1 before evt2 return distinct p1, f1, p2",
            )
            if part
        )

    return text(), text()


class TestBindingProperty:
    @settings(max_examples=150, deadline=None)
    @given(slot_queries())
    def test_bound_equals_compiled_for_perturbed_literals(self, pair):
        primer, text = pair
        PLAN_CACHE.clear()
        primed = outcome(compile_query, primer)
        cached = len(PLAN_CACHE)
        assert cached == (1 if primed[0] == "plan" else 0)
        bound = outcome(compile_query, text)
        assert bound == outcome(compile_text, text)
        if bound[0] == "error":
            assert len(PLAN_CACHE) == cached  # an error caches nothing
        if primed[0] == "plan" and canonical_text(text) != canonical_text(primer):
            assert PLAN_CACHE.stats()["templates"] == 1
            assert len(PLAN_CACHE) == 1  # bound, not compiled and cached


class TestOneParsePerSkeleton:
    def test_eight_rounds_parse_each_skeleton_once(self, parses):
        texts = [q.text for r in range(8) for q in round_queries(11, r)]
        skeletons = set()
        for text in texts:
            key = canonical_text(text)
            scan = scan_slots(key)
            skeletons.add(scan.skeleton if scan is not None else key)
        misses = counter("aiql_plan_cache_misses_total")
        binds = counter("aiql_plan_cache_binds_total")
        for text in texts:
            compile_query(text)
        assert len(parses) == len(skeletons) < len({canonical_text(t) for t in texts})
        assert counter("aiql_plan_cache_misses_total") - misses == len(skeletons)
        assert counter("aiql_plan_cache_binds_total") > binds


# ---------------------------------------------------------------------------
# kernels belong to the plan: compiled once per pattern, narrowed per scan
# ---------------------------------------------------------------------------

# ``pid >= N`` is a threshold slot on the subject predicate; wget (pid 102)
# is the one process that writes under /tmp.
PID_QUERY = """
    agentid = 1
    (at "01/01/2017")
    proc p[pid >= {pid}] write file f["/tmp/%"] as evt1
    return distinct p
"""


@pytest.fixture
def compiles(monkeypatch):
    """``aiql_kernel_compiled_total`` so far, counting whatever system the
    test builds (a deployment may switch the registry off)."""
    monkeypatch.setattr(REGISTRY, "enabled", True)
    return lambda: counter("aiql_kernel_compiled_total")


class TestKernelsBelongToThePlan:
    def test_rerunning_a_hit_plan_compiles_no_kernel(self, compiles):
        with dropper_system() as system:
            REGISTRY.enabled = True
            first = system.query(DROPPER_QUERY).rows
            before = compiles()
            for _ in range(3):
                assert system.query(DROPPER_QUERY).rows == first
            assert compiles() == before

    def test_a_window_only_bind_compiles_no_kernel(self, compiles):
        with dropper_system() as system:
            REGISTRY.enabled = True
            system.query(DROPPER_QUERY.replace("01/01/2017", "01/02/2017"))
            before = compiles()
            binds = counter("aiql_plan_cache_binds_total")
            rows = system.query(DROPPER_QUERY).rows
            assert counter("aiql_plan_cache_binds_total") == binds + 1
            assert compiles() == before
            assert len(rows) == 1

    def test_a_threshold_bind_compiles_its_own_kernel(self, compiles):
        plan = compile_query(PID_QUERY.format(pid=50))
        kernel = plan.patterns[0].kernel
        before = compiles()
        bound = compile_query(PID_QUERY.format(pid=100))
        assert bound.patterns[0].kernel is not kernel
        assert compiles() == before + 1

    @pytest.mark.parametrize("pids", [(100, 200), (200, 100)], ids=str)
    def test_threshold_binds_over_one_entity_do_not_share_verdicts(self, pids):
        # Each bind's subject predicate decides wget differently; a kernel
        # (and its per-entity memo) shared across them would answer the
        # second from the first one's verdict.
        with dropper_system() as system:
            system.query(PID_QUERY.format(pid=50))  # the template
            for pid in pids:
                text = PID_QUERY.format(pid=pid)
                binds = counter("aiql_plan_cache_binds_total")
                rows = system.query(text).rows
                assert counter("aiql_plan_cache_binds_total") == binds + 1
                fresh = system.service._execute(compile_text(text))
                assert rows == fresh.rows
                assert len(rows) == (1 if pid <= 102 else 0)

    def test_eight_fixed_rounds_compile_at_most_400_kernels(
        self, compiles, tmp_path
    ):
        from benchmarks.e2e import lifecycle
        from benchmarks.e2e import workloads as wl

        seed = 20170101
        inputs = lifecycle.make_inputs(seed)
        setup = lifecycle.set_up(
            wl.BY_NAME["investigate_hot"], inputs, tmp_path / "data", None
        )
        deployment = setup.deployment
        try:
            REGISTRY.enabled = True
            before = compiles()
            for index in range(wl.FIXED_ROUNDS):
                segment = deployment.run_queries(
                    lifecycle.tape.round_queries(seed, index)
                )
                assert segment.failed == 0
                deployment.ingest(inputs.live.take(wl.SEGMENT_EVENTS))
            # 849 when every narrowed scan looked its filter up in a
            # process-wide kernel memo.
            assert compiles() - before <= 400
        finally:
            deployment.close()
