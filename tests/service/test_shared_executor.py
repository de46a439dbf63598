"""Shared executor: one pool per process, serving request concurrency."""

import ast
import inspect

import repro.baselines.segmented as segmented_mod
import repro.storage.database as database_mod
from repro.service.pool import (
    SharedExecutor,
    get_shared_executor,
    shutdown_shared_executor,
)


def _imported_modules(module) -> set:
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


class TestScansStayOffThePool:
    def test_scan_modules_do_not_import_the_pool(self):
        """Scans run serially on the calling thread: neither the
        partitioned store nor the segmented baseline reaches the pool."""
        for mod in (database_mod, segmented_mod):
            imported = _imported_modules(mod)
            assert "repro.service.pool" not in imported, mod.__name__
            assert "concurrent.futures" not in imported, mod.__name__

    def test_many_submissions_create_at_most_one_pool(self):
        executor = SharedExecutor(max_workers=2)
        assert executor.pools_created == 0  # lazily built on first use
        futures = [executor.submit(lambda x=x: x * 2) for x in range(10)]
        assert [f.result() for f in futures] == [x * 2 for x in range(10)]
        assert executor.pools_created == 1
        executor.shutdown()


class TestInWorker:
    def test_calling_thread_is_not_a_worker(self):
        executor = SharedExecutor(max_workers=1)
        assert not executor.in_worker()
        assert executor.submit(executor.in_worker).result(timeout=30)
        executor.shutdown()

    def test_in_worker_names_only_its_own_pool(self):
        pool_a = SharedExecutor(max_workers=1)
        pool_b = SharedExecutor(max_workers=1)
        # A worker of pool A is NOT a worker of pool B.
        seen = pool_a.submit(
            lambda: (pool_a.in_worker(), pool_b.in_worker())
        ).result(timeout=30)
        assert seen == (True, False)
        assert pool_b.pools_created == 0
        pool_a.shutdown()
        pool_b.shutdown()


class TestProcessWideShutdown:
    def test_idempotent_and_safe_before_first_use(self):
        shutdown_shared_executor()
        shutdown_shared_executor()  # twice in a row must be a no-op

    def test_pool_lazily_rebuilds_after_shutdown(self):
        shared = get_shared_executor()
        before = shared.pools_created
        assert shared.submit(lambda: 1 + 1).result() == 2
        shutdown_shared_executor()
        # The instance survives; the next submission builds a fresh pool,
        # so one system closing never breaks another still running.
        assert shared.submit(lambda: 2 * 3).result() == 6
        assert shared.pools_created >= before
        assert get_shared_executor() is shared

    def test_shutdown_from_own_worker_does_not_deadlock(self):
        shared = get_shared_executor()

        def close_from_inside():
            # Joining the calling worker would deadlock; the in-worker
            # guard must skip the self-join.
            assert shared.in_worker()
            shutdown_shared_executor()
            return "ok"

        assert shared.submit(close_from_inside).result(timeout=30) == "ok"
