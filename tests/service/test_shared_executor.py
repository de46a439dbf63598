"""Shared executor: one pool per process, never one per scan."""

import threading

from repro.engine.parallel import scan_split
from repro.model.time import DAY, TimeWindow
from repro.service.pool import (
    SharedExecutor,
    get_shared_executor,
    shutdown_shared_executor,
)
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme


def _populated_store(executor=None):
    ingestor = Ingestor()
    store = EventStore(
        registry=ingestor.registry,
        scheme=PartitionScheme(agents_per_group=1),
        executor=executor,
    )
    ingestor.attach(store)
    for agent in (1, 2, 3):
        proc = ingestor.process(agent, 100, "bash")
        target = ingestor.file(agent, "/etc/passwd")
        for day in range(4):
            ingestor.emit(agent, day * DAY + 100.0 * agent, "read", proc, target)
    return store


class TestNoPoolPerScan:
    def test_scan_modules_no_longer_construct_pools(self):
        """Regression: the per-call ThreadPoolExecutor construction in
        scan_split and EventStore.scan is gone for good."""
        import repro.engine.parallel as parallel_mod
        import repro.storage.database as database_mod
        import repro.baselines.segmented as segments_mod

        for mod in (parallel_mod, database_mod, segments_mod):
            assert not hasattr(mod, "ThreadPoolExecutor"), mod.__name__

    def test_many_scans_create_at_most_one_pool(self):
        executor = SharedExecutor(max_workers=2)
        store = _populated_store(executor=executor)
        flt = EventFilter(window=TimeWindow(start=0.0, end=4 * DAY))
        expected = store.scan(flt, parallel=False)
        assert executor.pools_created == 0  # serial scans never touch it
        for _ in range(10):
            assert store.scan(flt, parallel=True) == expected
            assert scan_split(store, flt, executor=executor) == expected
        assert executor.pools_created == 1
        executor.shutdown()

    def test_scan_split_default_uses_process_pool(self):
        store = _populated_store()
        flt = EventFilter(window=TimeWindow(start=0.0, end=4 * DAY))
        shared = get_shared_executor()
        before = shared.pools_created
        assert scan_split(store, flt) == store.scan(flt)
        assert shared.pools_created <= max(before, 1)


class TestProcessWideShutdown:
    def test_idempotent_and_safe_before_first_use(self):
        shutdown_shared_executor()
        shutdown_shared_executor()  # twice in a row must be a no-op

    def test_pool_lazily_rebuilds_after_shutdown(self):
        shared = get_shared_executor()
        before = shared.pools_created
        assert shared.map_all(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        shutdown_shared_executor()
        # The instance survives; the next fan-out builds a fresh pool, so
        # one system closing never breaks another still running.
        assert shared.map_all(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert shared.pools_created >= before
        assert get_shared_executor() is shared

    def test_shutdown_from_own_worker_does_not_deadlock(self):
        shared = get_shared_executor()
        # Two items so map_all actually uses the pool; the shutdown call
        # inside a worker must skip the self-join.
        assert shared.map_all(
            lambda _: shutdown_shared_executor() or "ok", [0, 1]
        ) == ["ok", "ok"]


class TestMapAll:
    def test_preserves_order(self):
        executor = SharedExecutor(max_workers=4)
        assert executor.map_all(lambda x: x * 2, range(10)) == [
            x * 2 for x in range(10)
        ]
        executor.shutdown()

    def test_single_item_runs_inline(self):
        executor = SharedExecutor(max_workers=2)
        thread_ids = executor.map_all(
            lambda _: threading.get_ident(), ["only"]
        )
        assert thread_ids == [threading.get_ident()]
        assert executor.pools_created == 0
        executor.shutdown()

    def test_nested_fanout_runs_inline_and_does_not_deadlock(self):
        executor = SharedExecutor(max_workers=1)

        def outer(_):
            # With one worker, a nested pool submission would deadlock;
            # map_all must detect it is on a worker and run inline.
            assert executor.in_worker()
            return executor.map_all(lambda x: x + 1, [1, 2, 3])

        results = executor.map_all(outer, [0, 0])
        assert results == [[2, 3, 4], [2, 3, 4]]
        executor.shutdown()

    def test_cross_pool_fanout_stays_parallel(self):
        pool_a = SharedExecutor(max_workers=1)
        pool_b = SharedExecutor(max_workers=2)

        def outer(_):
            # A worker of pool A is NOT a worker of pool B: fanning out on
            # B must use B's pool, not degrade to inline execution.
            assert pool_a.in_worker() and not pool_b.in_worker()
            return pool_b.map_all(lambda x: x * 10, [1, 2, 3])

        assert pool_a.map_all(outer, [0, 0]) == [[10, 20, 30]] * 2
        assert pool_b.pools_created == 1
        pool_a.shutdown()
        pool_b.shutdown()
