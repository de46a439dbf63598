"""Concurrency stress: query threads racing a streaming writer.

The live-ingestion contract under test:

* **No torn batches** — each partition publishes its sub-batch with one
  visibility bump and the store's committed watermark moves only after all
  of them have, so a racing scan sees whole batches only, even when a
  batch spans partitions.
* **Prefix consistency** — a scan that observes an agent's event with
  sequence number *k* also observes every earlier sequence number.
* **Post-watermark visibility (read-your-writes)** — a query issued after
  ``commit()`` returned watermark *W* observes all *W* events.
"""

import threading

from repro.model.time import DAY, TimeWindow
from repro.service.query_service import QueryService
from repro.service.stream import StreamSession
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from tests.oracle import rows

BATCH = 8
BATCHES = 40
READERS = 4


def make_live_store():
    ingestor = Ingestor()
    store = EventStore(
        registry=ingestor.registry,
        scheme=PartitionScheme(agents_per_group=1),
    )
    ingestor.attach(store)
    session = StreamSession(ingestor, batch_size=10**9)  # manual commits only
    return ingestor, store, session


class TestTornBatches:
    def _run(self, make_filter):
        """Readers assert batch-aligned, prefix-consistent snapshots while
        the writer commits BATCHES batches, each spanning TWO partitions
        (agents 1 and 2 with agents_per_group=1): the commit must be atomic
        across partitions, not merely within each one."""
        ingestor, store, session = make_live_store()
        actors = {
            agent: (
                session.process(agent, 10, "bash"),
                session.file(agent, "/data/hot"),
            )
            for agent in (1, 2)
        }
        done = threading.Event()
        failures = []

        def writer():
            try:
                for batch in range(BATCHES):
                    for i in range(BATCH):
                        agent = 1 + i % 2  # interleave the two partitions
                        proc, target = actors[agent]
                        session.append(
                            agent, 5.0 + batch * BATCH + i, "read", proc, target
                        )
                    session.commit()
            finally:
                done.set()

        def reader():
            while not done.is_set():
                events = rows(store, make_filter())
                if len(events) % BATCH != 0:
                    failures.append(f"torn batch: saw {len(events)} events")
                    return
                for agent in (1, 2):
                    seqs = sorted(e.seq for e in events if e.agent_id == agent)
                    if seqs != list(range(1, len(seqs) + 1)):
                        failures.append(f"seq gap agent {agent}: {seqs[:10]}")
                        return

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures, failures
        assert session.watermark == BATCH * BATCHES
        assert len(store.partition_keys) == 2
        final = rows(store, make_filter())
        assert len(final) == BATCH * BATCHES

    def test_unconstrained_scan_path(self):
        # No constraints: the scan walks range(visible) directly.
        self._run(EventFilter)

    def test_time_index_scan_path(self):
        # A bounded window routes candidates through the time index.
        self._run(lambda: EventFilter(window=TimeWindow(0.0, DAY)))

    def test_postings_scan_path(self):
        # Subject-id sets route candidates through the postings lists.
        ingestor, store, session = make_live_store()
        proc = session.process(1, 10, "bash")
        target = session.file(1, "/data/hot")
        subject_ids = frozenset({proc.id})
        done = threading.Event()
        failures = []

        def writer():
            try:
                for batch in range(BATCHES):
                    for i in range(BATCH):
                        session.append(
                            1, 5.0 + batch * BATCH + i, "read", proc, target
                        )
                    session.commit()
            finally:
                done.set()

        def reader():
            flt = EventFilter(subject_ids=subject_ids)
            while not done.is_set():
                count = len(rows(store, flt))
                if count % BATCH != 0:
                    failures.append(f"torn batch via postings: {count}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures, failures


class TestWatermarkVisibility:
    def test_query_after_watermark_sees_the_batch(self):
        ingestor, store, session = make_live_store()
        proc = session.process(1, 10, "bash")
        query = (
            "agentid = 1\n"
            "proc p1 read file f1 as evt1\n"
            "return p1, f1"
        )
        service = QueryService(store)
        for batch in range(5):
            target = session.file(1, f"/data/b{batch}")
            for i in range(BATCH):
                session.append(
                    1, 5.0 + batch * BATCH + i, "read", proc, target
                )
            watermark = session.commit()
            assert len(store) == watermark
            # A fresh query issued after the commit observes every event
            # counted by the watermark (one result row per match).
            assert len(service.run(query)) == watermark

    def test_concurrent_aiql_queries_observe_whole_batches(self):
        ingestor, store, session = make_live_store()
        proc = session.process(1, 10, "bash")
        target = session.file(1, "/data/hot")
        query = (
            "agentid = 1\n"
            "proc p1 read file f1 as evt1\n"
            "return p1, f1"
        )
        done = threading.Event()
        failures = []

        def writer():
            try:
                for batch in range(20):
                    for i in range(BATCH):
                        session.append(
                            1, 5.0 + batch * BATCH + i, "read", proc, target
                        )
                    session.commit()
            finally:
                done.set()

        def analyst():
            # A private service per thread: in-flight dedup across threads
            # would let two analysts share one (older) snapshot, which is
            # legal but defeats the monotonicity assertion below.
            service = QueryService(store)
            last = 0
            while not done.is_set():
                rows = len(service.run(query))
                if rows % BATCH != 0:
                    failures.append(f"torn batch through engine: {rows}")
                    return
                if rows < last:
                    failures.append(f"non-monotone reads: {rows} < {last}")
                    return
                last = rows

        threads = [threading.Thread(target=analyst) for _ in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not failures, failures
        service = QueryService(store)
        assert len(service.run(query)) == 20 * BATCH
