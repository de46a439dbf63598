"""ContinuousQueryEngine: subscriptions, windows, delta joins, alerts."""

import time

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.service.continuous import (
    Alert,
    ContinuousError,
    ContinuousQueryEngine,
)
from repro.storage.ingest import Ingestor

DAY0 = 1_483_228_800.0  # 2017-01-01

SINGLE = 'proc p1["bash"] read file f1["%secret%"] as evt1 return p1, f1'
PAIR = """
    proc p1["bash"] write file f1 as evt1
    proc p2["python"] read file f1 as evt2
    with evt1 before evt2
    return p1, f1, p2
"""


def make_engine(**kwargs):
    ingestor = Ingestor()
    kwargs.setdefault("default_window_s", DAY)
    return ingestor, ContinuousQueryEngine(ingestor.registry, **kwargs)


def build(ingestor, agent=1):
    bash = ingestor.process(agent, 10, "bash")
    python = ingestor.process(agent, 11, "python")
    secret = ingestor.file(agent, "/data/secret.txt")
    plain = ingestor.file(agent, "/data/notes.txt")
    return bash, python, secret, plain


def event(ingestor, t, op, subject, obj, agent=1):
    return ingestor.build_event(agent, t, op, subject, obj)


class TestSubscribe:
    def test_subscribe_compiles_kernels_once(self):
        _, engine = make_engine()
        sub = engine.subscribe(PAIR)
        assert len(sub.queries) == 2
        assert sub.active
        assert engine.subscriptions == (sub,)

    def test_rejects_anomaly_queries(self):
        _, engine = make_engine()
        anomaly = """
            agentid = 3
            (from "01/01/2017" to "01/02/2017")
            window = 10 min
            step = 10 min
            proc p write ip i1 as evt
            return p, sum(evt.amount) as total
            having total > 1000
        """
        with pytest.raises(ContinuousError, match="multievent"):
            engine.subscribe(anomaly)

    def test_rejects_aggregates_and_top(self):
        _, engine = make_engine()
        with pytest.raises(ContinuousError, match="matched tuple"):
            engine.subscribe(
                "proc p1 read file f1 as evt1 return p1, count(f1)"
            )
        with pytest.raises(ContinuousError, match="matched tuple"):
            engine.subscribe("proc p1 read file f1 as evt1 return p1 top 3")

    def test_subscription_limit(self):
        _, engine = make_engine(max_subscriptions=1)
        engine.subscribe(SINGLE)
        with pytest.raises(ContinuousError, match="limit"):
            engine.subscribe(SINGLE)

    def test_duplicate_name_rejected(self):
        _, engine = make_engine()
        engine.subscribe(SINGLE, name="watch")
        with pytest.raises(ContinuousError, match="already exists"):
            engine.subscribe(SINGLE, name="watch")

    def test_window_clamped_to_max(self):
        _, engine = make_engine(max_window_s=60.0)
        sub = engine.subscribe(SINGLE, window_s=3600.0)
        assert sub.horizon_s == 60.0

    def test_invalid_window_rejected(self):
        _, engine = make_engine()
        with pytest.raises(ContinuousError, match="window_s"):
            engine.subscribe(SINGLE, window_s=0)

    def test_engine_parameter_validation(self):
        ingestor = Ingestor()
        for kwargs in (
            {"default_window_s": 0},
            {"max_window_s": -1},
            {"max_subscriptions": 0},
            {"alert_queue": 0},
        ):
            with pytest.raises(ValueError):
                ContinuousQueryEngine(ingestor.registry, **kwargs)

    def test_unsubscribe_stops_alerts(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        sub = engine.subscribe(SINGLE)
        engine.unsubscribe(sub)
        assert not sub.active
        assert engine.push([event(ingestor, DAY0, "read", bash, secret)]) == []
        engine.unsubscribe(sub)  # idempotent


class TestSinglePattern:
    def test_matching_event_alerts_on_push(self):
        ingestor, engine = make_engine()
        bash, python, secret, plain = build(ingestor)
        seen = []
        sub = engine.subscribe(SINGLE, callback=seen.append)
        emitted = engine.push(
            [
                event(ingestor, DAY0, "read", bash, secret),
                event(ingestor, DAY0 + 1, "read", bash, plain),  # wrong file
                event(ingestor, DAY0 + 2, "read", python, secret),  # wrong proc
            ]
        )
        assert [a.key for a in emitted] == [(1,)]
        assert seen == emitted
        assert sub.alerts_emitted == 1
        assert emitted[0].query == sub.name
        assert emitted[0].time == DAY0

    def test_duplicate_tuple_not_re_emitted(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        engine.subscribe(SINGLE)
        evt = event(ingestor, DAY0, "read", bash, secret)
        assert len(engine.push([evt])) == 1
        assert engine.push([evt]) == []

    def test_empty_push_is_noop(self):
        _, engine = make_engine()
        engine.subscribe(SINGLE)
        assert engine.push([]) == []
        assert engine.stats()["batches_pushed"] == 0

    def test_latency_stamped_when_started_given(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        engine.subscribe(SINGLE)
        started = time.perf_counter()
        (alert,) = engine.push(
            [event(ingestor, DAY0, "read", bash, secret)], started=started
        )
        assert alert.latency_s is not None and alert.latency_s >= 0
        (other,) = engine.push(
            [event(ingestor, DAY0 + 1, "read", bash, secret)]
        )
        assert other.latency_s is None


class TestMultiPattern:
    def test_join_completes_across_batches(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        sub = engine.subscribe(PAIR)
        write = event(ingestor, DAY0, "write", bash, secret)
        assert engine.push([write]) == []  # half a tuple: no alert yet
        read = event(ingestor, DAY0 + 5, "read", python, secret)
        (alert,) = engine.push([read])
        assert alert.key == (write.event_id, read.event_id)
        assert sub.window_snapshot() == {
            0: (write.event_id,),
            1: (read.event_id,),
        }

    def test_temporal_order_enforced(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        engine.subscribe(PAIR)
        # read arrives first in data time: 'evt1 before evt2' fails
        read = event(ingestor, DAY0, "read", python, secret)
        write = event(ingestor, DAY0 + 5, "write", bash, secret)
        assert engine.push([read]) == []
        assert engine.push([write]) == []

    def test_entity_join_enforced(self):
        ingestor, engine = make_engine()
        bash, python, secret, plain = build(ingestor)
        engine.subscribe(PAIR)
        assert (
            engine.push(
                [
                    event(ingestor, DAY0, "write", bash, secret),
                    event(ingestor, DAY0 + 1, "read", python, plain),
                ]
            )
            == []
        )

    def test_same_batch_tuple_counted_once(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        sub = engine.subscribe(PAIR)
        write = event(ingestor, DAY0, "write", bash, secret)
        read = event(ingestor, DAY0 + 1, "read", python, secret)
        emitted = engine.push([write, read])
        assert [a.key for a in emitted] == [(write.event_id, read.event_id)]
        assert sub.alerts_emitted == 1

    def test_self_relationship_on_seed_pattern(self):
        # Both relationship endpoints resolve to pattern 0 (subject and
        # object of the same pattern): applied by filtering the seed set.
        ingestor, engine = make_engine()
        alice = ingestor.process(1, 20, "bash", user="alice")
        owned = ingestor.file(1, "/home/alice/notes", owner="alice")
        foreign = ingestor.file(1, "/home/bob/notes", owner="bob")
        engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            "with p1.user = f1.owner\nreturn p1, f1"
        )
        hit = event(ingestor, DAY0, "write", alice, owned)
        miss = event(ingestor, DAY0 + 1, "write", alice, foreign)
        emitted = engine.push([hit, miss])
        assert [a.key for a in emitted] == [(hit.event_id,)]
        # A batch whose whole delta fails the self-relationship: no alert.
        assert engine.push(
            [event(ingestor, DAY0 + 2, "write", alice, foreign)]
        ) == []

    def test_composite_join_failure_after_narrowing(self):
        # Each narrowing value-set admits every candidate, but no single
        # window row satisfies both relationships at once: the join (not
        # the narrowed prefilter) must reject the combination.
        ingestor, engine = make_engine()
        u1 = ingestor.process(1, 20, "worker", user="u1")
        u2 = ingestor.process(1, 21, "worker", user="u2")
        file_a = ingestor.file(1, "/data/a")
        file_b = ingestor.file(1, "/data/b")
        sub = engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            "proc p2 read file f1 as evt2\n"
            "with p1.user = p2.user\nreturn p1, p2"
        )
        engine.push(
            [
                event(ingestor, DAY0, "write", u1, file_a),
                event(ingestor, DAY0 + 1, "write", u2, file_b),
            ]
        )
        emitted = engine.push(
            [
                event(ingestor, DAY0 + 2, "read", u2, file_a),
                event(ingestor, DAY0 + 3, "read", u1, file_b),
            ]
        )
        assert emitted == []
        # Sanity: a consistent pair does alert.
        (alert,) = engine.push(
            [event(ingestor, DAY0 + 4, "read", u1, file_a)]
        )
        assert alert.query == sub.name

    def test_giant_value_narrowing_skipped_but_join_exact(self):
        # >256 distinct join values: the optimizer guard skips the IN-list
        # narrowing (id-set narrowings still apply); the join stays exact.
        ingestor, engine = make_engine()
        shared = ingestor.file(1, "/data/shared")
        writers = [
            ingestor.process(1, 100 + i, "worker", user=f"u{i}")
            for i in range(260)
        ]
        engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            "proc p2 read file f1 as evt2\n"
            "with p1.user = p2.user\nreturn p1, p2"
        )
        read = event(ingestor, DAY0, "read", writers[7], shared)
        engine.push([read])
        # 260 new writers join against the windowed read: the user-value
        # set is too big to narrow with, so only the id-set narrowing and
        # the join itself constrain the pairing.
        emitted = engine.push(
            [
                event(ingestor, DAY0 + 1 + i, "write", w, shared)
                for i, w in enumerate(writers)
            ]
        )
        assert [a.events[0].subject_id for a in emitted] == [writers[7].id]

    def test_disjoint_pattern_window_short_circuits(self):
        # The temporal narrowing intersected with the pattern's own window
        # is empty: the compiled constant-false kernel skips the join.
        ingestor, engine = make_engine(default_window_s=float("inf"))
        bash, python, secret, _ = build(ingestor)
        engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            'proc p2 read file f1 as evt2 (at "01/02/2017")\n'
            "with evt1 before evt2\nreturn p1, p2"
        )
        early_read = event(ingestor, DAY0 + DAY + 10, "read", python, secret)
        engine.push([early_read])
        # Writer arrives after pattern 2's whole window: nothing can ever
        # satisfy 'evt1 before evt2' inside (at 01/02).
        late_write = event(ingestor, DAY0 + 5 * DAY, "write", bash, secret)
        assert engine.push([late_write]) == []

    def test_non_equality_only_relationship_leaves_query_unnarrowed(self):
        # No equality/temporal rel to narrow with: the window candidates
        # flow to the join untouched.
        ingestor, engine = make_engine()
        u1 = ingestor.process(1, 20, "worker", user="u1")
        u2 = ingestor.process(1, 21, "worker", user="u2")
        file_a = ingestor.file(1, "/data/a")
        file_b = ingestor.file(1, "/data/b")
        engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            "proc p2 read file f2 as evt2\n"
            "with p1.user != p2.user\nreturn p1, p2"
        )
        w = event(ingestor, DAY0, "write", u1, file_a)
        engine.push([w])
        (alert,) = engine.push([event(ingestor, DAY0 + 1, "read", u2, file_b)])
        assert alert.key[0] == w.event_id

    def test_non_equality_relationship_joins_unnarrowed(self):
        # '!=' cannot narrow the window re-query; the join checks it.
        ingestor, engine = make_engine()
        u1 = ingestor.process(1, 20, "worker", user="u1")
        u2 = ingestor.process(1, 21, "worker", user="u2")
        shared = ingestor.file(1, "/data/shared")
        engine.subscribe(
            "proc p1 write file f1 as evt1\n"
            "proc p2 read file f1 as evt2\n"
            "with p1.user != p2.user\nreturn p1, p2"
        )
        w = event(ingestor, DAY0, "write", u1, shared)
        engine.push([w])
        assert engine.push([event(ingestor, DAY0 + 1, "read", u1, shared)]) == []
        (alert,) = engine.push(
            [event(ingestor, DAY0 + 2, "read", u2, shared)]
        )
        assert alert.key[0] == w.event_id

    def test_new_writer_pairs_with_windowed_reader(self):
        # Delta term of a pattern *earlier* than the changed one: the old
        # window of pattern 1 joins a new pattern-0 event.
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        engine.subscribe(PAIR)
        w1 = event(ingestor, DAY0, "write", bash, secret)
        r1 = event(ingestor, DAY0 + 10, "read", python, secret)
        engine.push([w1, r1])
        w2 = event(ingestor, DAY0 + 5, "write", bash, secret)
        (alert,) = engine.push([w2])
        assert alert.key == (w2.event_id, r1.event_id)


class TestWindows:
    def test_eviction_drops_out_of_horizon_events(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        sub = engine.subscribe(PAIR, window_s=100.0)
        write = event(ingestor, DAY0, "write", bash, secret)
        engine.push([write])
        # Advance the stream past the horizon with a non-matching event.
        filler = event(ingestor, DAY0 + 500, "read", bash, secret)
        engine.push([filler])
        assert sub.window_snapshot()[0] == ()
        assert sub.events_evicted == 1
        # A reader arriving now cannot pair with the evicted write.
        read = event(ingestor, DAY0 + 501, "read", python, secret)
        assert engine.push([read]) == []

    def test_expired_on_arrival_never_enters_window(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        sub = engine.subscribe(PAIR, window_s=100.0)
        late = event(ingestor, DAY0, "write", bash, secret)
        fresh = event(ingestor, DAY0 + 500, "read", python, secret)
        engine.push([fresh, late])  # same batch: late is out of horizon
        assert sub.window_snapshot()[0] == ()
        assert sub.events_matched == 1

    def test_idle_pattern_window_still_slides(self):
        ingestor, engine = make_engine()
        bash, python, secret, _ = build(ingestor)
        sub = engine.subscribe(SINGLE, window_s=100.0)
        engine.push([event(ingestor, DAY0, "read", bash, secret)])
        assert sub.window_snapshot()[0] != ()
        # Non-matching traffic advances the high-water mark and evicts.
        engine.push([event(ingestor, DAY0 + 1000, "write", python, secret)])
        assert sub.window_snapshot()[0] == ()

    def test_seen_keys_pruned_with_the_window(self):
        # The dedup set must not grow for the lifetime of a bounded-
        # horizon subscription: keys whose events slid out of horizon are
        # pruned (they can never be re-derived), amortized over evictions.
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        sub = engine.subscribe(SINGLE, window_s=100.0)
        for i in range(200):
            engine.push([event(ingestor, DAY0 + i * 10, "read", bash, secret)])
        assert sub.alerts_emitted == 200
        assert sub.events_evicted > 100
        assert len(sub.seen) < 100  # pruned, not 200

    def test_unbounded_window_never_evicts(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        sub = engine.subscribe(SINGLE, window_s=float("inf"))
        engine.push([event(ingestor, DAY0, "read", bash, secret)])
        engine.push([event(ingestor, DAY0 + 10 * DAY, "read", bash, secret)])
        assert len(sub.window_snapshot()[0]) == 2
        assert sub.events_evicted == 0


class TestAlertQueue:
    def test_queue_bounded_oldest_dropped(self):
        ingestor, engine = make_engine(alert_queue=2)
        bash, _, secret, _ = build(ingestor)
        engine.subscribe(SINGLE)
        events = [
            event(ingestor, DAY0 + i, "read", bash, secret) for i in range(4)
        ]
        engine.push(events)
        assert len(engine.alerts) == 2
        assert engine.alerts_dropped == 2
        drained = engine.drain()
        assert [a.key for a in drained] == [(events[2].event_id,),
                                            (events[3].event_id,)]
        assert engine.drain() == []

    def test_callback_may_reenter_the_engine(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        drained = []

        def reenter(alert: Alert) -> None:
            drained.extend(engine.drain())  # reentrant: must not deadlock

        sub = engine.subscribe(SINGLE, callback=reenter)
        engine.push([event(ingestor, DAY0, "read", bash, secret)])
        assert [a.key for a in drained] == [(1,)]
        assert sub.callback_errors == 0

    def test_callback_error_contained(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)

        def boom(alert: Alert) -> None:
            raise RuntimeError("consumer bug")

        sub = engine.subscribe(SINGLE, callback=boom)
        (alert,) = engine.push([event(ingestor, DAY0, "read", bash, secret)])
        assert alert.key
        assert sub.callback_errors == 1

    def test_stats_shape(self):
        ingestor, engine = make_engine()
        bash, _, secret, _ = build(ingestor)
        engine.subscribe(SINGLE, name="watch")
        engine.push([event(ingestor, DAY0, "read", bash, secret)])
        stats = engine.stats()
        assert stats["subscriptions"] == 1
        assert stats["events_pushed"] == 1
        assert stats["alerts_queued"] == 1
        assert stats["per_query"][0]["name"] == "watch"
        assert stats["per_query"][0]["alerts_emitted"] == 1


class TestSystemWiring:
    def test_stream_commits_feed_subscriptions(self):
        system = AIQLSystem(SystemConfig())
        seen = []
        system.subscribe(SINGLE, callback=seen.append, name="watch")
        with system.stream(batch_size=2) as session:
            bash = session.process(1, 10, "bash")
            secret = session.file(1, "/data/secret.txt")
            session.append(1, DAY0, "read", bash, secret)
            assert seen == []  # staged, not committed
            session.append(1, DAY0 + 1, "write", bash, secret)  # auto-commit
        assert [a.key for a in seen] == [(1,)]
        assert seen[0].latency_s is not None
        assert system.stats()["continuous"]["subscriptions"] == 1
        assert [a.key for a in system.alerts()] == [(1,)]
        assert system.alerts() == []

    def test_subscribe_after_stream_open_still_alerts(self):
        system = AIQLSystem(SystemConfig())
        session = system.stream(batch_size=100)
        seen = []
        system.subscribe(SINGLE, callback=seen.append)
        bash = session.process(1, 10, "bash")
        secret = session.file(1, "/data/secret.txt")
        session.append(1, DAY0, "read", bash, secret)
        session.commit()
        assert len(seen) == 1

    def test_config_knobs_flow_into_engine(self):
        system = AIQLSystem(
            SystemConfig(
                continuous_window_s=120.0,
                continuous_max_window_s=240.0,
                continuous_max_subscriptions=2,
                continuous_alert_queue=8,
            )
        )
        sub = system.subscribe(SINGLE)
        assert sub.horizon_s == 120.0
        clamped = system.subscribe(SINGLE, window_s=1e9)
        assert clamped.horizon_s == 240.0
        with pytest.raises(ContinuousError):
            system.subscribe(SINGLE)
        assert system.continuous.alerts.maxlen == 8

    def test_config_validation(self):
        for kwargs in (
            {"continuous_window_s": 0},
            {"continuous_max_window_s": 0},
            {"continuous_max_subscriptions": 0},
            {"continuous_alert_queue": 0},
        ):
            with pytest.raises(ValueError):
                SystemConfig(**kwargs)

    def test_alerts_empty_without_engine(self):
        assert AIQLSystem(SystemConfig()).alerts() == []


class TestCommitHooks:
    def test_hook_error_contained(self):
        system = AIQLSystem(SystemConfig())
        session = system.stream(batch_size=100)

        def bad_hook(batch, started):
            raise RuntimeError("hook bug")

        session.on_commit(bad_hook)
        bash = session.process(1, 10, "bash")
        secret = session.file(1, "/data/s")
        session.append(1, DAY0, "read", bash, secret)
        session.commit()
        assert session.hook_errors == 1
        assert session.stats()["hook_errors"] == 1
        assert session.stats()["commit_hooks"] == 2  # system's + bad_hook

    def test_hooks_observe_batches_in_order(self):
        system = AIQLSystem(SystemConfig())
        session = system.stream(batch_size=2)
        batches = []
        session.on_commit(lambda batch, started: batches.append(
            tuple(e.event_id for e in batch)
        ))
        bash = session.process(1, 10, "bash")
        secret = session.file(1, "/data/s")
        for i in range(5):
            session.append(1, DAY0 + i, "read", bash, secret)
        session.commit()
        assert batches == [(1, 2), (3, 4), (5,)]
