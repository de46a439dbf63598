"""Differential harness for the tiered storage subsystem.

The full query corpus must answer identically on

* the **live** durable deployment (hot tier only, WAL attached),
* a **crash-recovered** copy (snapshot + WAL replay into a fresh system —
  the deployment was never checkpointed or closed, so this is the pure
  WAL-replay path), and
* a **compacted** copy whose oldest partitions were migrated into
  compressed cold segments (answers must flow through the zone-map-pruned
  cold-scan path),
* the compacted copy **crashed after compaction** and recovered (cold tier
  reopened from its manifest, hot tier from the WAL with every migrated
  event skipped),
* a deployment **checkpointed mid-stream** and crashed later (snapshot load
  plus replay of the WAL tail written after it), and
* an **all-cold** copy compacted past its newest day, so the hot tier is
  empty and every answer comes from cold segments.

Run standalone (the CI differential job):

    PYTHONPATH=src python -m pytest -q tests/differential
"""

import shutil

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.workload.attacks import inject_apt2, inject_apt_case_study
from repro.workload.behaviors import (
    inject_abnormal_behaviors,
    inject_dependency_behaviors,
    inject_malware_behaviors,
)
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise

RETENTION_DAYS = 4  # the 16-day corpus leaves most days past the horizon
RATE = 30
BATCH = 64


@pytest.fixture(scope="module")
def trio(tmp_path_factory):
    """(live, crash-recovered, compacted) systems over identical data."""
    root = tmp_path_factory.mktemp("tier")
    live_dir = root / "live"
    config = SystemConfig(data_dir=str(live_dir), compact_interval_s=3600)
    live = AIQLSystem(config)
    build_enterprise(
        stores=(),
        ingestor=live.ingestor,
        events_per_host_day=RATE,
        stream_batch_size=BATCH,
    )

    # Crash: duplicate the data dir as-is (open WAL, no checkpoint, no
    # close) and recover each copy independently of the live deployment.
    crash_dir = root / "crash"
    compact_dir = root / "compact"
    shutil.copytree(live_dir, crash_dir)
    shutil.copytree(live_dir, compact_dir)

    recovered = AIQLSystem.recover(
        str(crash_dir), config=SystemConfig(compact_interval_s=3600)
    )
    compacted = AIQLSystem.recover(
        str(compact_dir), config=SystemConfig(compact_interval_s=3600)
    )
    report = compacted.compact(RETENTION_DAYS)
    assert report.moved, "corpus must reach past the retention horizon"

    yield live, recovered, compacted
    for system in (live, recovered, compacted):
        system.close()


def crash_copy(system, target):
    """Recover a copy of ``system``'s data directory taken as-is (open
    WAL, no checkpoint, no close): what a crash at this instant leaves."""
    shutil.copytree(system.config.data_dir, target)
    return AIQLSystem.recover(
        str(target), config=SystemConfig(compact_interval_s=3600)
    )


@pytest.fixture(scope="module")
def crashed_after_compaction(trio, tmp_path_factory):
    """The compacted deployment, crashed after its compaction pass."""
    _, _, compacted = trio
    system = crash_copy(
        compacted, tmp_path_factory.mktemp("tier-compact-crash") / "data"
    )
    yield system
    system.close()


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """(deployment, events in its snapshot): the live stream checkpointed
    once the background is committed, crashed after the attack
    injections, recovered."""
    root = tmp_path_factory.mktemp("tier-checkpoint")
    origin = AIQLSystem(
        SystemConfig(data_dir=str(root / "origin"), compact_interval_s=3600)
    )
    enterprise = build_enterprise(
        stores=(),
        ingestor=origin.ingestor,
        events_per_host_day=RATE,
        stream_batch_size=BATCH,
        inject_attacks=False,
    )
    snapshot_events = origin.checkpoint()
    session = enterprise.session
    for inject in (
        inject_apt_case_study,
        inject_apt2,
        inject_dependency_behaviors,
        inject_malware_behaviors,
        inject_abnormal_behaviors,
    ):
        inject(session)
    session.commit()
    system = crash_copy(origin, root / "crash")
    origin.close()
    yield system, snapshot_events
    system.close()


@pytest.fixture(scope="module")
def all_cold(trio, tmp_path_factory):
    """A recovered copy of the live deployment compacted past its newest
    day: the hot tier is empty."""
    live, _, _ = trio
    system = crash_copy(live, tmp_path_factory.mktemp("tier-cold") / "data")
    newest = system.store.time_range()[1]
    report = system.store.compact(1, now=newest + 2 * DAY)
    assert report.moved, "nothing went cold; the all-cold gate is vacuous"
    yield system
    system.close()


def live_answer(trio, query):
    live, _, _ = trio
    return set(live.query(query.text).rows)


class TestTieredEquivalence:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_live_recovered_compacted_agree(self, trio, query):
        live, recovered, compacted = trio
        reference = set(live.query(query.text).rows)
        assert set(recovered.query(query.text).rows) == reference, (
            "crash recovery changed query results"
        )
        assert set(compacted.query(query.text).rows) == reference, (
            "cold-tier compaction changed query results"
        )

    def test_recovery_lost_no_committed_event(self, trio):
        live, recovered, compacted = trio
        total = live.ingestor.events_ingested
        assert total > 0
        assert recovered.ingestor.events_ingested == total
        assert len(recovered.store) == len(live.store) == total
        assert len(compacted.store) == total

    def test_compaction_actually_went_cold(self, trio):
        _, _, compacted = trio
        cold = compacted.store.cold
        assert cold.event_count > 0
        assert len(compacted.store.hot) + cold.event_count == len(
            compacted.store
        )
        # the corpus' day-scoped queries must have pruned cold segments
        assert cold.segments_pruned > 0


class TestRecoveryPaths:
    """Each further lifecycle path of the durable store, answer for answer
    against the live deployment."""

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_crash_after_compaction_recovers(
        self, trio, crashed_after_compaction, query
    ):
        got = set(crashed_after_compaction.query(query.text).rows)
        assert got == live_answer(trio, query), (
            "recovering a compacted deployment changed query results"
        )

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_snapshot_plus_wal_tail_recovers(self, trio, checkpointed, query):
        system, _ = checkpointed
        got = set(system.query(query.text).rows)
        assert got == live_answer(trio, query), (
            "snapshot + WAL-tail recovery changed query results"
        )

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_all_cold_deployment_agrees(self, trio, all_cold, query):
        got = set(all_cold.query(query.text).rows)
        assert got == live_answer(trio, query), (
            "answering from cold segments alone changed query results"
        )

    def test_crash_after_compaction_reopens_the_cold_tier(
        self, trio, crashed_after_compaction
    ):
        live, _, compacted = trio
        system = crashed_after_compaction
        assert system.recovery.cold_events == compacted.store.cold.event_count
        assert system.recovery.cold_events > 0
        # migrated events are skipped on replay, never held in both tiers
        assert len(system.store.hot) == len(compacted.store.hot)
        assert len(system.store) == len(live.store)

    def test_checkpoint_recovery_used_snapshot_and_wal_tail(
        self, trio, checkpointed
    ):
        live, _, _ = trio
        system, snapshot_events = checkpointed
        report = system.recovery
        assert report.snapshot_events == snapshot_events > 0
        assert report.wal_events_replayed > 0
        assert (
            report.snapshot_events + report.wal_events_replayed
            == len(system.store)
            == len(live.store)
        )

    def test_all_cold_left_the_hot_tier_empty(self, trio, all_cold):
        live, _, _ = trio
        assert len(all_cold.store.hot) == 0
        assert all_cold.store.cold.event_count == len(live.store)
