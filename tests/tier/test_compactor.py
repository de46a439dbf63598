"""Background compactor: pacing, error containment, checkpoint hook."""

import threading

import pytest

from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.tier.cold import ColdTier
from repro.tier.compactor import Compactor
from repro.tier.store import TieredStore

from tests.tier.conftest import EventFeed, day_ts


@pytest.fixture
def deployment(tmp_path):
    ingestor = Ingestor()
    hot = EventStore(registry=ingestor.registry)
    store = TieredStore(
        hot, ColdTier(tmp_path / "cold", ingestor.registry.get)
    )
    ingestor.attach(store)
    feed = EventFeed(ingestor)
    for day in range(5):
        for i in range(4):
            feed.emit(1, day_ts(day, 600.0 * i))
    return store, feed


class TestRunOnce:
    def test_migrates_past_horizon(self, deployment):
        store, _ = deployment
        compactor = Compactor(store, retention_days=2, interval_s=60)
        report = compactor.run_once()
        assert report.events_migrated == 3 * 4
        assert compactor.passes == 1
        assert compactor.last_report is report
        assert compactor.stats()["last_migrated"] == 12

    def test_after_compact_hook_fires_only_on_movement(self, deployment):
        store, _ = deployment
        seen = []
        compactor = Compactor(
            store, retention_days=2, interval_s=60,
            after_compact=seen.append,
        )
        compactor.run_once()
        compactor.run_once()  # nothing left to move
        assert len(seen) == 1 and seen[0].events_migrated == 12

    def test_successful_pass_clears_stale_error(self, deployment):
        store, _ = deployment
        compactor = Compactor(store, retention_days=2, interval_s=60)
        compactor.last_error = RuntimeError("transient disk full")
        compactor.run_once()
        assert compactor.last_error is None
        assert compactor.stats()["error"] is None

    def test_validation(self, deployment):
        store, _ = deployment
        with pytest.raises(ValueError):
            Compactor(store, retention_days=0)
        with pytest.raises(ValueError):
            Compactor(store, retention_days=1, interval_s=0)


class TestThread:
    def test_background_pass_runs_and_stops(self, deployment):
        store, _ = deployment
        fired = threading.Event()
        compactor = Compactor(
            store, retention_days=2, interval_s=0.01,
            after_compact=lambda report: fired.set(),
        )
        compactor.start()
        assert compactor.running
        assert compactor.start() is compactor  # idempotent
        assert fired.wait(timeout=5.0)
        compactor.stop()
        assert not compactor.running
        assert store.cold.event_count == 12
        assert compactor.stats()["error"] is None

    def test_errors_are_contained(self, deployment):
        store, _ = deployment
        boom = RuntimeError("disk full")

        def exploding(*args, **kwargs):
            raise boom

        store.compact = exploding
        compactor = Compactor(store, retention_days=2, interval_s=0.01)
        compactor.start()
        deadline = threading.Event()
        for _ in range(200):
            if compactor.last_error is not None:
                break
            deadline.wait(0.01)
        compactor.stop()
        assert compactor.last_error is boom
        assert "disk full" in compactor.stats()["error"]

    def test_stop_with_final_pass(self, deployment):
        store, _ = deployment
        compactor = Compactor(store, retention_days=2, interval_s=3600)
        compactor.start()
        compactor.stop(final_pass=True)
        assert compactor.passes == 1
        assert store.cold.event_count == 12
