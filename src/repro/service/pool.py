"""Process-wide shared thread pool for request concurrency.

:class:`SharedExecutor` is one lazily created pool, reused for the life
of the process, on which the query service runs concurrent queries.
:func:`get_shared_executor` returns the process-wide default instance.

Scans never fan out on it: kernel code holds the GIL, so every scan runs
serially on the thread that issued it, and parallel scans belong to
process shards (:mod:`repro.shard`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, TypeVar

_R = TypeVar("_R")

_THREAD_NAME_PREFIX = "aiql-shared"


def _default_max_workers() -> int:
    # Matches the stdlib heuristic for I/O-light thread pools.
    return min(32, (os.cpu_count() or 1) + 4)


class SharedExecutor:
    """A lazily created, long-lived ``ThreadPoolExecutor`` wrapper.

    The underlying pool is constructed on first use and reused for every
    subsequent call; :attr:`pools_created` counts constructions so tests can
    assert that repeated submissions never build per-call pools.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or _default_max_workers()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        # Unique per instance, so in_worker names THIS pool's threads only.
        self._prefix = f"{_THREAD_NAME_PREFIX}-{id(self):x}"
        self.pools_created = 0

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self._prefix,
                )
                self.pools_created += 1
            return self._pool

    def in_worker(self) -> bool:
        """True when the calling thread is one of THIS pool's workers."""
        return threading.current_thread().name.startswith(self._prefix)

    def submit(self, fn: Callable[..., _R], *args, **kwargs) -> "Future[_R]":
        return self._ensure().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


_default: Optional[SharedExecutor] = None
_default_lock = threading.Lock()


def get_shared_executor(max_workers: Optional[int] = None) -> SharedExecutor:
    """The process-wide shared executor (created on first call).

    ``max_workers`` only takes effect on the call that creates the
    instance; later callers share whatever size was established first.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = SharedExecutor(max_workers=max_workers)
        return _default


def shutdown_shared_executor(wait: bool = True) -> None:
    """Shut down the process-wide executor's threads, if any exist.

    Idempotent and safe to call at any time: the instance survives (its
    configured size included) and lazily rebuilds its pool on next use, so
    this only releases the threads — ``AIQLSystem.close()`` calls it so a
    closed deployment leaves no pool threads behind (threads surviving
    into forked workers can deadlock; shard workers also use ``spawn`` for
    the same reason).  Never waits when called from one of the pool's own
    workers — joining your own thread would deadlock.
    """
    with _default_lock:
        executor = _default
    if executor is not None:
        executor.shutdown(wait=wait and not executor.in_worker())
