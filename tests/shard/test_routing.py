"""Routed queries: a single-owner query runs whole on its shard.

Every test checks the routed answer against an in-process reference (an
``EventStore`` fed the same stream) or against the scatter path of the same
deployment, and asserts that routing actually happened — the
``routed_queries`` view of ``aiql_shard_routed_queries_total`` moved — so a
silent fallback to scatter cannot pass vacuously.

Worker processes are real (``spawn``); data sets are tiny.
"""

import datetime as dt
import itertools
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine import canonical_text, compile_query, run_query
from repro.model.time import DAY, day_start
from repro.obs import set_metrics_enabled
from repro.shard import ShardedStore
from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from tests.properties.test_scheduler_props import (
    EXES,
    SHAPES,
    generated_query,
    scenario,
)


def date_of(day: int) -> str:
    return dt.datetime.fromtimestamp(
        day_start(day), tz=dt.timezone.utc
    ).strftime("%m/%d/%Y")


def point_query(day: int, agent: int = 1) -> str:
    """A three-pattern hunt on one agent and one day: single-owner."""
    return (
        f'agentid = {agent}\n(at "{date_of(day)}")\n'
        "proc p1 start proc p2 as e1\n"
        "proc p2 write file f1 as e2\n"
        "proc p1 read file f2 as e3\n"
        "with e1 before e2\n"
        "return p1, p2, f1, f2, e2.amount"
    )


def populate(ingestor, agents=(1, 2, 3), days=4, per_day=3):
    for agent in agents:
        shell = ingestor.process(agent, 100, "bash", cmd="bash -l")
        editor = ingestor.process(agent, 200, "vim")
        log = ingestor.file(agent, "/var/log/syslog")
        secret = ingestor.file(agent, "/etc/passwd")
        for day in range(days):
            base = day * DAY + 60.0 * agent
            batch = [ingestor.build_event(agent, base, "start", shell, editor)]
            batch.extend(
                ingestor.build_event(
                    agent, base + 10 * (i + 1), "write", editor, log,
                    amount=128 * (i + 1),
                )
                for i in range(per_day)
            )
            batch.append(ingestor.build_event(agent, base + 50, "read", shell, secret))
            ingestor.commit(batch)


def deploy(tmp_path=None, **overrides):
    """A sharded store plus an in-process reference over one stream."""
    kwargs = dict(
        shards=2,
        data_dir=None if tmp_path is None else str(tmp_path),
        wal_sync=False,
        shard_heartbeat_interval_s=0,
        shard_command_timeout_s=15.0,
        shard_scan_timeout_s=30.0,
    )
    kwargs.update(overrides)
    set_metrics_enabled(True)
    ingestor = Ingestor()
    sharded = ShardedStore(ingestor, SystemConfig(**kwargs))
    reference = EventStore(
        registry=ingestor.registry, scheme=PartitionScheme(agents_per_group=10)
    )
    ingestor.attach(sharded)
    ingestor.attach(reference)
    return sharded, reference


def routed_total(sharded) -> int:
    return sharded.stats()["scatter_gather"]["routed_queries"]


def answer(result):
    return result.columns, result.rows, result.meta


def run(store, text, routed=True):
    """``(result, stats)`` of ``text``; ``routed=False`` forces scatter."""
    key = canonical_text(text)
    return run_query(store, compile_query(text, key), key if routed else None)


def kill_worker(sharded, shard):
    proc = sharded._procs[shard]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


# -- the routing rule --------------------------------------------------------------


class TestRoute:
    @pytest.fixture(scope="class")
    def deployment(self):
        sharded, reference = deploy()
        populate(sharded.ingestor)
        yield sharded, reference
        sharded.close()

    def test_single_owner_names_its_shard(self, deployment):
        sharded, _ = deployment
        # agents 1-3 share group 0, so day d lives on shard (31 d) % 2
        for day in range(4):
            ctx = compile_query(point_query(day))
            assert sharded.route(ctx) == day % 2

    @pytest.mark.parametrize(
        "text",
        [
            # no agent named: every shard owns it
            '(at "01/01/1970")\nproc p write file f as e\nreturn p, f',
            # no window: every shard owns it
            "agentid = 1\nproc p write file f as e\nreturn p, f",
            # two days on two shards
            'agentid = 1\n(from "01/01/1970" to "01/03/1970")\n'
            "proc p write file f as e\nreturn p, f",
        ],
        ids=["no-agent", "no-window", "two-days"],
    )
    def test_multi_owner_is_not_routed(self, deployment, text):
        sharded, reference = deployment
        assert sharded.route(compile_query(text)) is None
        before = routed_total(sharded)
        result, _ = run(sharded, text)
        assert routed_total(sharded) == before
        assert answer(result) == answer(run(reference, text)[0])

    def test_routed_answer_equals_reference_and_scatter(self, deployment):
        sharded, reference = deployment
        for day in range(4):
            text = point_query(day)
            before = routed_total(sharded)
            routed, stats = run(sharded, text)
            assert routed_total(sharded) == before + 1
            assert routed.rows, "vacuous: the query matched nothing"
            assert answer(routed) == answer(run(reference, text)[0])
            scattered, scatter_stats = run(sharded, text, routed=False)
            assert routed_total(sharded) == before + 1
            assert answer(routed) == answer(scattered)
            # the worker ran the same plan the coordinator would have
            assert stats.order == scatter_stats.order
            assert stats.events_fetched == scatter_stats.events_fetched

    def test_per_shard_view_of_the_counter(self, deployment):
        sharded, _ = deployment
        before = [
            e["scatter_gather"]["routed_queries"]
            for e in sharded.stats()["per_shard"]
        ]
        run(sharded, point_query(1))
        after = sharded.stats()
        per_shard = [e["scatter_gather"]["routed_queries"] for e in after["per_shard"]]
        assert per_shard == [before[0], before[1] + 1]
        assert after["scatter_gather"]["routed_queries"] == sum(per_shard)

    def test_semantic_error_keeps_its_type(self, deployment):
        """A query whose execution raises is declined by the worker and
        re-run on the scatter path, where the typed error surfaces."""
        from repro.lang.errors import AIQLSemanticError

        sharded, _ = deployment
        text = (
            'agentid = 1\n(at "01/01/1970")\nwindow = 1 min, step = 10 sec\n'
            "proc p write file f as e\nreturn p"
        )
        assert sharded.route(compile_query(text)) == 0
        with pytest.raises(AIQLSemanticError):
            run(sharded, text)


# -- generated single-owner queries under concurrent commits -----------------------

# Each example owns three days: its query's, the next (the in-flight batch's
# second shard) and a gap for rows at t = DAY, which land on the day after.
_DAYS = itertools.count(10, 3)


def build_batch(ingestor, events, day, agent=1):
    pid = {exe: i for i, exe in enumerate(EXES, start=10)}
    batch = []
    for t, kind, subject_exe, (okind, oname) in events:
        subject = ingestor.process(agent, pid[subject_exe], subject_exe)
        if okind == "file":
            obj = ingestor.file(agent, oname)
        else:
            obj = ingestor.process(agent, pid[oname] + 100, oname)
        batch.append(ingestor.build_event(agent, day_start(day) + t, kind, subject, obj))
    return batch


@pytest.fixture(scope="module")
def generated():
    sharded, reference = deploy()
    yield sharded, reference
    sharded.close()


def single_owner(shape: str, day: int) -> str:
    return f'agentid = 1\n(at "{date_of(day)}")\n{shape}'


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    base=scenario(),
    late=scenario(),
    shape=st.one_of(st.sampled_from(SHAPES), generated_query()),
    torn=st.booleans(),
)
def test_generated_single_owner_queries_hide_uncommitted_rows(
    generated, base, late, shape, torn
):
    """A routed query answers at the watermark it was issued with.

    ``late`` is a multi-shard batch (its rows land on this example's day
    and the next, two shards) that either has not been acknowledged
    everywhere — the watermark is held below it — or failed and left torn
    slices behind (its ids are excluded while the watermark passes them).
    Either way the routed answer is the one from before the batch,
    identical to the scatter path's and the in-process reference's.
    """
    sharded, reference = generated
    ingestor = sharded.ingestor
    day = next(_DAYS)
    text = single_owner(shape, day)
    ingestor.commit(build_batch(ingestor, base, day))
    key = canonical_text(text)
    ctx = compile_query(text, key)
    assert sharded.route(ctx) == day % 2
    expected = answer(run_query(reference, ctx)[0])
    held = sharded._committed
    in_flight = build_batch(ingestor, late, day) + build_batch(
        ingestor, late, day + 1
    )
    ingestor.commit(in_flight)
    committed = sharded._committed
    assert committed > held
    if torn:
        sharded._torn.update(e.event_id for e in in_flight)
    else:
        sharded._committed = held
    try:
        before = routed_total(sharded)
        routed = answer(run_query(sharded, ctx, key)[0])
        assert routed_total(sharded) == before + 1
        assert routed == expected
        assert answer(run_query(sharded, ctx)[0]) == expected
    finally:
        sharded._committed = committed


# -- faults ------------------------------------------------------------------------


class TestRoutedFaults:
    def test_killed_owner_heals_and_reissues(self, tmp_path):
        """``kill@0:query#0``: the owner dies on the routed command, is
        respawned from its WAL, and the re-issued command answers."""
        sharded, reference = deploy(tmp_path, shard_chaos="kill@0:query#0")
        try:
            populate(sharded.ingestor)
            text = point_query(0)
            before = routed_total(sharded)
            result, _ = run(sharded, text)
            assert answer(result) == answer(run(reference, text)[0])
            assert result.rows
            assert routed_total(sharded) == before + 1
            health = sharded.stats()["shard_health"]
            assert health["restarts"] == 1
            assert health["per_shard"][0]["retries"] >= 1
            assert "completeness" not in result.meta
        finally:
            sharded.close()

    def test_unrecoverable_owner_falls_back_to_scatter(self):
        """Restart budget 0 under ``degraded``: the routed command fails,
        the query runs on the scatter path and carries today's
        annotation."""
        sharded, _ = deploy(shard_max_restarts=0, shard_read_policy="degraded")
        try:
            populate(sharded.ingestor)
            text = point_query(0)
            kill_worker(sharded, 0)
            before = routed_total(sharded)
            result, _ = run(sharded, text)
            assert routed_total(sharded) == before
            assert sharded.supervisor.health[0].failed
            completeness = result.meta["completeness"]
            assert completeness["degraded"] is True
            assert completeness["missing_shards"] == [0]
            assert result.rows == []
            scattered, _ = run(sharded, text, routed=False)
            assert answer(result) == answer(scattered)
        finally:
            sharded.close()

    def test_fail_fast_fallback_raises(self):
        from repro.shard import ShardError

        sharded, _ = deploy(shard_max_restarts=0)
        try:
            populate(sharded.ingestor)
            kill_worker(sharded, 0)
            with pytest.raises(ShardError):
                run(sharded, point_query(0))
        finally:
            sharded.close()

    def test_ram_only_owner_respawn_is_annotated_lossy(self):
        sharded, _ = deploy()
        try:
            populate(sharded.ingestor)
            text = point_query(0)
            kill_worker(sharded, 0)
            assert sharded.supervisor.check() == [0]
            lost = sharded.supervisor.health[0].lost_events
            assert lost > 0
            before = routed_total(sharded)
            result, stats = run(sharded, text)
            assert routed_total(sharded) == before + 1
            completeness = result.meta["completeness"]
            assert completeness["lossy_shards"] == [0]
            assert completeness["missing_shards"] == []
            assert completeness["degraded"] is False
            assert completeness["estimated_missed_rows"] == lost
            scattered, _ = run(sharded, text, routed=False)
            assert answer(result) == answer(scattered)
        finally:
            sharded.close()


# -- observability through the facade -----------------------------------------------


class TestRoutedObservability:
    @pytest.fixture(scope="class")
    def system(self):
        system = AIQLSystem(
            SystemConfig(shards=2, shard_heartbeat_interval_s=0, slow_query_ms=0)
        )
        populate(system.ingestor)
        yield system
        system.close()

    def test_explain_analyze_shows_the_route_span(self, system):
        report = system.explain(point_query(1))
        (route,) = report.root.find("route")
        assert route.attrs["shard"] == 1
        assert route.attrs["data_queries"] == 3
        assert route.attrs["events_fetched"] > 0
        # the scheduler section is the worker's stats
        assert report.scheduler["data_queries_executed"] == 3
        assert report.scheduler["events_fetched"] == route.attrs["events_fetched"]
        assert not report.root.find("schedule")  # no scatter spans
        assert report.rows and "route [shard=1" in report.to_text()

    def test_metric_family_is_exposed(self, system):
        system.query(point_query(0))
        text = system.metrics_text()
        assert 'aiql_shard_routed_queries_total{shard="0"}' in text

    def test_slow_log_detail_is_the_workers_stats(self, system):
        system.service.run(point_query(1))
        entry = system.slow_queries()[-1]
        assert entry.detail["data_queries"] == 3
        assert entry.detail["events_fetched"] > 0
