"""Per-shard channels: requests from many threads pipeline on the pipes.

Every shard has its own channel, and the coordinator's state is held only
for short snapshots, so a request to one shard does not wait on another
shard's round trip, and requests to one shard match their replies through
the channel's FIFO of waiters.  Each test checks answers against an
in-process reference fed the same batches.

Worker processes are real (``spawn``); data sets are tiny.
"""

import sys
import threading
import time

import pytest

from repro.model.time import DAY, TimeWindow
from repro.shard import ShardCommitError
from repro.storage.blocks import ColumnBlock
from repro.storage.filters import EventFilter
from tests.oracle import rows
from tests.shard.test_routing import (
    answer,
    deploy,
    kill_worker,
    point_query,
    populate,
    routed_total,
    run,
)

# agents 1-3 share agent group 0, so day d lives on shard d % 2 (and the
# point query of day d is owned by that shard alone)
SCANS = (
    EventFilter(),
    EventFilter(agent_ids=frozenset({1, 3})),
    EventFilter(window=TimeWindow(start=DAY, end=3 * DAY)),
    EventFilter(agent_ids=frozenset({2}), window=TimeWindow(start=0.0, end=DAY)),
)


def in_threads(jobs, timeout_s=60.0):
    """Run every job on its own thread, released together; each job's
    ``(result or exception, seconds)``."""
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def body(index, job):
        start.wait()
        began = time.monotonic()
        try:
            outcome = job()
        except Exception as exc:  # reported to the test, not swallowed
            outcome = exc
        results[index] = (outcome, time.monotonic() - began)

    threads = [
        threading.Thread(target=body, args=(i, job), daemon=True)
        for i, job in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
        assert not thread.is_alive(), "a request outlived every deadline"
    return results


def after(delay_s, job):
    def delayed():
        time.sleep(delay_s)
        return job()

    return delayed


class TestOverlap:
    def test_routed_query_answers_while_another_shard_is_slow(self):
        """Shard 0's scan sleeps 2 s; a routed query owned by shard 1,
        sent from another thread meanwhile, does not wait for it."""
        sharded, reference = deploy(shard_chaos="delay@0:scan#0x2")
        try:
            populate(sharded.ingestor)
            text = point_query(1)  # shard 1's
            expected = answer(run(reference, text)[0])
            run(sharded, text)  # the worker compiles the plan once
            before = routed_total(sharded)
            (scan, scan_s), (routed, routed_s) = in_threads(
                [
                    lambda: rows(sharded, EventFilter()),
                    after(0.2, lambda: run(sharded, text)),
                ]
            )
            assert scan == rows(reference, EventFilter())
            assert scan_s >= 2.0  # the delay held shard 0's reply
            assert answer(routed[0]) == expected
            assert routed_total(sharded) == before + 1
            # well inside the delay, not behind it
            assert routed_s < 1.0
        finally:
            sharded.close()


class TestReplyMatching:
    def test_concurrent_requests_each_get_their_own_answer(self):
        """More threads than cores, switching often: a reply handed to
        the wrong waiter would surface as a wrong answer."""
        sharded, reference = deploy()
        interval = sys.getswitchinterval()
        try:
            populate(sharded.ingestor)
            texts = [point_query(day) for day in range(4)]
            expected_scans = [rows(reference, flt) for flt in SCANS]
            expected_routed = [answer(run(reference, t)[0]) for t in texts]
            assert all(expected_scans) and all(r[1] for r in expected_routed)
            before = routed_total(sharded)

            def scans(offset):
                def job():
                    for i in range(12):
                        k = (i + offset) % len(SCANS)
                        assert rows(sharded, SCANS[k]) == expected_scans[k]
                    return True

                return job

            def routed(offset):
                def job():
                    for i in range(12):
                        k = (i + offset) % len(texts)
                        assert answer(run(sharded, texts[k])[0]) == (
                            expected_routed[k]
                        )
                    return True

                return job

            sys.setswitchinterval(1e-5)
            outcomes = in_threads(
                [scans(0), scans(1), routed(0), routed(1), routed(2)]
            )
            sys.setswitchinterval(interval)
            assert [result for result, _ in outcomes] == [True] * 5
            assert routed_total(sharded) == before + 36
            health = sharded.stats()["shard_health"]
            assert health["restarts"] == 0 and health["timeouts"] == 0
        finally:
            sys.setswitchinterval(interval)
            sharded.close()


class TestCommitOrder:
    def test_readers_see_only_whole_batches(self):
        """A writer commits batches spanning both shards while readers
        scan and a heartbeat sweep pings: every answer is a prefix of
        whole batches.  Shard 1 answers each batch 30 ms late, so scans
        and pings queue behind commits on its pipe."""
        slow_acks = ",".join(f"delay@1:batch#{i}x0.03" for i in range(40))
        sharded, reference = deploy(
            shard_heartbeat_interval_s=0.05, shard_chaos=slow_acks
        )
        try:
            ingestor = sharded.ingestor
            populate(ingestor, days=2)
            base = {e.event_id for e in rows(reference, EventFilter())}
            batch_of = {}
            batches = []
            done = threading.Event()

            def writer():
                try:
                    for index in range(30):
                        batch = []
                        for day in range(4):  # both shards, both days' halves
                            for agent in (1, 2):
                                shell = ingestor.process(agent, 100, "bash")
                                log = ingestor.file(agent, f"/tmp/w{index}")
                                batch.append(
                                    ingestor.build_event(
                                        agent, day * DAY + 500.0 + index,
                                        "write", shell, log, amount=index,
                                    )
                                )
                        for event in batch:
                            batch_of[event.event_id] = index
                        batches.append(batch)
                        ingestor.commit(batch)
                    return True
                finally:
                    done.set()

            def reader(flt, keep):
                def job():
                    seen = 0
                    while not done.is_set() or seen == 0:
                        counts = {}
                        for event in rows(sharded, flt):
                            if event.event_id in base:
                                continue
                            index = batch_of[event.event_id]
                            counts[index] = counts.get(index, 0) + 1
                        # whole batches, and a prefix of the commits
                        assert sorted(counts) == list(range(len(counts)))
                        for index, count in counts.items():
                            whole = sum(1 for e in batches[index] if keep(e))
                            assert count == whole, (index, count, whole)
                        seen += 1
                    return seen

                return job

            outcomes = in_threads(
                [
                    writer,
                    reader(EventFilter(), lambda e: True),
                    reader(
                        EventFilter(agent_ids=frozenset({1})),
                        lambda e: e.agent_id == 1,
                    ),
                    reader(
                        EventFilter(window=TimeWindow(start=0.0, end=2 * DAY)),
                        lambda e: e.start_time < 2 * DAY,
                    ),
                ]
            )
            for result, _ in outcomes:
                assert not isinstance(result, Exception), result
            assert rows(sharded, EventFilter()) == rows(reference, EventFilter())
            assert sharded.stats()["shard_health"]["restarts"] == 0
        finally:
            sharded.close()


class TestOneRecovery:
    def test_wedge_with_requests_queued_behind_it_recovers_once(self, tmp_path):
        """Shard 0 wedges on its first scan with more requests queued
        behind it: one recovery, every idempotent request answered, the
        batch in flight refused, and nothing waits past its deadline."""
        timeout_s = 3.0
        sharded, reference = deploy(
            tmp_path,  # durable: the respawned shard replays its WAL
            shard_chaos="wedge@0:scan#0",
            shard_scan_timeout_s=timeout_s,
            shard_command_timeout_s=timeout_s,
        )
        try:
            ingestor = sharded.ingestor
            populate(ingestor)
            full = rows(reference, EventFilter())
            agent1 = EventFilter(agent_ids=frozenset({1}))
            text = point_query(0)  # shard 0's
            expected = answer(run(reference, text)[0])
            estimated = sharded.estimated_events(EventFilter())
            shell = ingestor.process(1, 100, "bash", cmd="bash -l")
            log = ingestor.file(1, "/var/log/syslog")
            batch = ColumnBlock.from_events(
                [
                    ingestor.build_event(1, day * DAY + 7.0, "write", shell, log)
                    for day in range(4)  # slices for both shards
                ]
            )
            outcomes = in_threads(
                [
                    lambda: rows(sharded, EventFilter()),  # wedges shard 0
                    after(0.3, lambda: rows(sharded, EventFilter())),
                    after(0.3, lambda: rows(sharded, agent1)),
                    after(0.3, lambda: run(sharded, text)),
                    after(0.3, lambda: sharded.estimated_events(EventFilter())),
                    after(0.3, lambda: sharded.add_block(batch)),
                ]
            )
            health = sharded.supervisor.health[0]
            assert health.restarts == 1
            assert health.timeouts >= 1
            (wedged, _), (again, _), (narrow, _), (routed, _), (estimate, _) = (
                outcomes[:5]
            )
            assert wedged == full and again == full
            assert narrow == rows(reference, agent1)
            assert answer(routed[0]) == expected
            assert estimate >= estimated > 0
            commit, _ = outcomes[5]
            assert isinstance(commit, ShardCommitError)
            assert 0 in commit.failed_shards
            # the refused batch never surfaces, even its acked slice
            assert rows(sharded, EventFilter()) == full
            # each wait ended at its deadline or at the one recovery it
            # shared, then at the retry on the fresh worker
            bound = timeout_s + health.last_recovery_s + 2.0
            for _, seconds in outcomes:
                assert seconds < bound, (seconds, bound)
        finally:
            sharded.close()


class TestQueuedDeadlines:
    def test_time_queued_behind_a_long_scan_does_not_count(self):
        """Shard 0's scan takes 4 s, twice the command deadline.  The
        heartbeat's pings and a commit queued behind it on the same pipe
        wait their turn: their deadlines run from when the worker reaches
        them, so nothing times out and nothing is recovered."""
        sharded, reference = deploy(
            shard_chaos="delay@0:scan#0x4",
            shard_command_timeout_s=2.0,
            shard_scan_timeout_s=10.0,
            shard_heartbeat_interval_s=0.1,
        )
        try:
            ingestor = sharded.ingestor
            populate(ingestor)
            before = rows(reference, EventFilter())
            shell = ingestor.process(1, 300, "bash")
            log = ingestor.file(1, "/tmp/queued")
            batch = [
                ingestor.build_event(1, day * DAY + 9.0, "write", shell, log)
                for day in range(4)  # slices for both shards
            ]
            (scan, scan_s), (commit, _) = in_threads(
                [
                    lambda: rows(sharded, EventFilter()),
                    after(0.3, lambda: ingestor.commit(batch)),
                ]
            )
            assert scan == before
            assert scan_s >= 4.0  # the delay held shard 0's reply
            assert not isinstance(commit, Exception), commit
            health = sharded.stats()["shard_health"]
            assert health["restarts"] == 0 and health["timeouts"] == 0
            assert rows(sharded, EventFilter()) == rows(reference, EventFilter())
        finally:
            sharded.close()


class TestFailedShard:
    def test_no_entity_record_is_held_for_a_failed_shard(self):
        """Once shard 1 has failed for good, entities registered later
        still leave the coordinator at each commit: nothing waits in
        memory for a shard that never comes back."""
        sharded, reference = deploy(
            shard_max_restarts=0, shard_read_policy="degraded"
        )
        try:
            ingestor = sharded.ingestor
            populate(ingestor)
            kill_worker(sharded, 1)
            sharded.supervisor.check()
            assert sharded.supervisor.health[1].failed
            for index in range(5):
                shell = ingestor.process(1, 400 + index, "bash")
                log = ingestor.file(1, f"/tmp/after-{index}")
                # day 0 lives on shard 0, the survivor
                ingestor.commit(
                    [ingestor.build_event(1, 500.0 + index, "write", shell, log)]
                )
                assert sharded._pending_entities == []
            day0 = EventFilter(
                agent_ids=frozenset({1}),
                window=TimeWindow(start=0.0, end=DAY),
            )
            assert rows(sharded, day0) == rows(reference, day0)
        finally:
            sharded.close()


@pytest.mark.parametrize("shard", [0, 1])
def test_lone_requests_leave_no_reader_behind(shard):
    """After every request returns, each channel is idle: no waiter queued
    and no thread marked as its reader."""
    sharded, reference = deploy()
    try:
        populate(sharded.ingestor)
        assert answer(run(sharded, point_query(shard))[0]) == answer(
            run(reference, point_query(shard))[0]
        )
        in_threads([lambda: rows(sharded, EventFilter())] * 3)
        for channel in sharded._channels:
            assert not channel.waiters and not channel.reading and channel.open
    finally:
        sharded.close()
