"""Span bookkeeping: self time, coverage, wrapper install and removal."""

from __future__ import annotations

import threading

import pytest

from benchmarks.e2e import spans as sp
from benchmarks.e2e.spans import Span


def synthetic_tree():
    # client.query [0, 10]
    #   lang.compile [0, 2]
    #   engine.execute [2, 9.5]
    #     tier.scan [3, 5]
    #       storage.scan [3.5, 4.5]
    #     tier.scan [6, 9]
    return [
        Span(1, "client.query", 0.0, 10.0, None, 1),
        Span(2, "lang.compile", 0.0, 2.0, 1, 1),
        Span(3, "engine.execute", 2.0, 9.5, 1, 1),
        Span(4, "tier.scan", 3.0, 5.0, 3, 1),
        Span(5, "storage.scan", 3.5, 4.5, 4, 1),
        Span(6, "tier.scan", 6.0, 9.0, 3, 1),
    ]


def test_self_time_is_duration_minus_child_cover():
    selfs = sp.self_times(synthetic_tree())
    assert selfs[1] == pytest.approx(0.5)  # 10 - (2 + 7.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.5)  # 7.5 - (2 + 3)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(3.0)
    # Self times partition the root's wall.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        Span(1, "scatter", 0.0, 10.0, None, 1),
        Span(2, "worker", 1.0, 6.0, 1, 1),
        Span(3, "worker", 4.0, 8.0, 1, 1),  # overlaps the first by 2
        Span(4, "late", 9.0, 12.0, 1, 1),  # outlives its parent: clipped
    ]
    assert sp.covered([(1.0, 6.0), (4.0, 8.0)]) == pytest.approx(7.0)
    assert sp.self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_coverage_and_self_by_name():
    spans = synthetic_tree()
    selfs = sp.self_times(spans)
    assert sp.coverage(spans, selfs) == pytest.approx(0.95)
    by_name = sp.self_by_name(spans, selfs)
    assert by_name["tier.scan"] == pytest.approx(4.0)
    assert by_name["engine.execute"] == pytest.approx(2.5)
    with pytest.raises(ValueError):
        sp.coverage(spans[1:], selfs)  # two roots once the root is gone


def test_by_op_drops_spans_outside_any_operation():
    spans = synthetic_tree() + [Span(7, "storage.scan", 20.0, 21.0, None, None)]
    grouped = sp.by_op(spans)
    assert list(grouped) == [1]
    assert len(grouped[1]) == 6


class _Engine:
    def scan(self, n):
        return n * 2

    def run(self, n):
        return self.scan(n) + 1


def test_wrap_records_nesting_and_uninstall_restores():
    tracer = sp.Tracer()
    engine = _Engine()
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(engine, "scan", "engine.scan")
    token = tracer.open("client.query", op=tracer.new_op())
    assert engine.run(3) == 7
    root = tracer.close(token)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["engine.run"].parent == root.id
    assert by_name["engine.scan"].parent == by_name["engine.run"].id
    assert {s.op for s in tracer.spans} == {root.op}
    tracer.uninstall()
    assert "run" not in vars(engine) and "scan" not in vars(engine)
    before = len(tracer.spans)
    engine.run(1)
    assert len(tracer.spans) == before


def test_wrap_restores_a_module_level_function():
    import types

    module = types.ModuleType("fake_module")
    module.compile_query = lambda text: text.upper()
    original = module.compile_query
    tracer = sp.Tracer()
    tracer.wrap(module, "compile_query", "lang.compile")
    assert module.compile_query("x") == "X"
    assert [s.name for s in tracer.spans] == ["lang.compile"]
    tracer.uninstall()
    assert module.compile_query is original


def test_spans_from_two_threads_keep_their_own_stacks():
    tracer = sp.Tracer()
    engine = _Engine()
    tracer.wrap(engine, "scan", "engine.scan")
    barrier = threading.Barrier(2, timeout=5)

    def work():
        token = tracer.open("client.query", op=tracer.new_op())
        barrier.wait()
        for _ in range(200):
            engine.scan(1)
        tracer.close(token)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = [s for s in tracer.spans if s.name == "client.query"]
    assert len(roots) == 2
    for root in roots:
        children = [s for s in tracer.spans if s.parent == root.id]
        assert len(children) == 200
        assert {s.op for s in children} == {root.op}
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
