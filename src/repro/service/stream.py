"""Live streaming ingestion: batched appends concurrent with queries.

The paper's deployment ingests a continuous agent stream while analysts run
investigation queries.  :class:`StreamSession` makes that a first-class
scenario: one streaming writer appends events while any number of query
service workers read, and the write path is incremental instead of
stop-the-world:

* **Batched atomic commits** — appends are staged in the session and
  committed per batch.  The commit turns the batch into one
  :class:`~repro.storage.blocks.ColumnBlock`, which the write-ahead log
  frames and every store appends as columns (``add_block``); each partition
  publishes its sub-batch with a single visibility bump
  (:meth:`repro.storage.table.EventTable.append_block`),
  and the store's committed-event watermark moves only after *every*
  partition of the batch has published, so a concurrent scan observes a
  prefix-consistent snapshot: whole batches — even ones spanning
  partitions — never a torn one.
* **Monotone ingest watermark** — :meth:`commit` returns the total number of
  events durably visible in the attached stores.  A query issued after
  observing watermark *W* sees every event counted by *W* (read-your-writes).
* **Exactly-once validation** — events are validated at :meth:`append` time
  through :meth:`repro.storage.ingest.Ingestor.build_event`; the commit
  fan-out appends the already-validated batch to every store.
* **Commit hooks** — consumers registered via :meth:`on_commit` observe
  every published batch in order, on the committing thread; the continuous
  query engine (:mod:`repro.service.continuous`) rides these to evaluate
  standing queries at ingest.

The session is duck-type compatible with the :class:`Ingestor` surface the
workload generators use (``process``/``file``/``connection``/
``registry_value``/``pipe`` observation helpers and ``emit``), so any
generator can be pointed at a session to stream instead of burst-load —
that is what ``repro.workload.live`` and ``corpus --live`` do.

Concurrency contract: the attached stores are single-writer/multi-reader;
one StreamSession is that single writer.  ``append``/``commit`` are
internally locked so an auto-flush racing an explicit ``commit`` stays
well-ordered, but two sessions (or a session plus direct ``emit`` calls
from another thread) must not write concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.model.events import SystemEvent
from repro.obs.metrics import REGISTRY

DEFAULT_BATCH_SIZE = 256

_M_BATCHES = REGISTRY.counter(
    "aiql_ingest_batches_total", "Stream batches committed"
)
_M_EVENTS = REGISTRY.counter(
    "aiql_ingest_events_total", "Events committed via stream sessions"
)
_M_COMMIT_SECONDS = REGISTRY.histogram(
    "aiql_ingest_commit_seconds",
    "Commit latency: publish + commit hooks",
)

# A commit hook receives the just-published batch and the committing
# thread's ``time.perf_counter()`` captured at commit entry (so downstream
# consumers — e.g. the continuous query engine — can report commit-to-alert
# latency without re-reading the clock race-prone).
CommitHook = Callable[[Tuple[SystemEvent, ...], float], None]


class StreamSession:
    """Batched live-ingestion front-end over an :class:`Ingestor`."""

    def __init__(self, ingestor, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.ingestor = ingestor
        self.batch_size = batch_size
        # Reentrant: commit hooks (and the alert callbacks they drive) run
        # on the committing thread under this lock and may read session
        # state — stats(), pending — or even stage follow-up events.
        self._lock = threading.RLock()
        self._pending: List[SystemEvent] = []
        self._watermark = ingestor.events_ingested
        self._commit_hooks: List[CommitHook] = []
        self.appended = 0
        self.batches_committed = 0
        self.hook_errors = 0

    # -- entity observations (instant, not batched) -------------------------

    @property
    def registry(self):
        return self.ingestor.registry

    @property
    def clock(self):
        return self.ingestor.clock

    def process(self, *args, **kwargs):
        return self.ingestor.process(*args, **kwargs)

    def file(self, *args, **kwargs):
        return self.ingestor.file(*args, **kwargs)

    def connection(self, *args, **kwargs):
        return self.ingestor.connection(*args, **kwargs)

    def registry_value(self, *args, **kwargs):
        return self.ingestor.registry_value(*args, **kwargs)

    def pipe(self, *args, **kwargs):
        return self.ingestor.pipe(*args, **kwargs)

    # -- event stream --------------------------------------------------------

    @property
    def watermark(self) -> int:
        """Monotone count of events committed and visible to queries."""
        return self._watermark

    @property
    def events_ingested(self) -> int:
        """Committed plus staged events (the generator-facing counter)."""
        with self._lock:
            return self.ingestor.events_ingested + len(self._pending)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def append(
        self,
        agent_id: int,
        timestamp: float,
        operation,
        subject,
        obj,
        duration: float = 0.0,
        amount: int = 0,
        failure_code: int = 0,
    ) -> SystemEvent:
        """Stage one event; auto-commits when the batch fills.

        The event is clock-corrected, numbered and validated immediately
        (an invalid event raises :class:`IngestError` here and stages
        nothing); it becomes visible to queries at the next commit.
        """
        event = self.ingestor.build_event(
            agent_id, timestamp, operation, subject, obj,
            duration=duration, amount=amount, failure_code=failure_code,
        )
        with self._lock:
            self._pending.append(event)
            self.appended += 1
            flush = len(self._pending) >= self.batch_size
        if flush:
            self.commit()
        return event

    # Generator compatibility: BackgroundGenerator and the attack injectors
    # call ``ingestor.emit``; pointed at a session they stream instead.
    emit = append

    def on_commit(self, hook: CommitHook) -> None:
        """Register a hook fired after each non-empty batch publishes.

        Hooks run on the committing thread, inside the commit (so they
        observe batches in publication order and never race a later
        commit).  They receive ``(batch, started)`` where ``started`` is
        the commit's entry ``perf_counter``.  A raising hook is contained
        (counted on :attr:`hook_errors`) — ingestion never fails because a
        consumer did.  The session lock is reentrant, so a hook may read
        session state or stage follow-up events from the committing
        thread; blocking on *another* thread that uses this session would
        deadlock, as with any lock.
        """
        with self._lock:
            self._commit_hooks.append(hook)

    def commit(self) -> int:
        """Atomically publish the staged batch; returns the new watermark."""
        started = time.perf_counter()
        with self._lock:
            batch, self._pending = self._pending, []
            if batch:
                self.ingestor.commit(batch)
                self.batches_committed += 1
                if self._commit_hooks:
                    published = tuple(batch)
                    for hook in self._commit_hooks:
                        try:
                            hook(published, started)
                        except Exception:
                            self.hook_errors += 1
            self._watermark = self.ingestor.events_ingested
            if batch:
                _M_BATCHES.inc()
                _M_EVENTS.inc(len(batch))
                _M_COMMIT_SECONDS.observe(time.perf_counter() - started)
            return self._watermark

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Commit the tail even on error: already-staged events are valid.
        self.commit()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "appended": self.appended,
                "committed": self._watermark,
                "pending": len(self._pending),
                "batches": self.batches_committed,
                "batch_size": self.batch_size,
                "commit_hooks": len(self._commit_hooks),
                "hook_errors": self.hook_errors,
            }
