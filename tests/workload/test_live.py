"""LiveReplay: paced streaming of the simulated enterprise."""

import pytest

from repro.model.time import DAY
from repro.service.stream import StreamSession
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.workload.live import LiveReplay
from repro.workload.topology import BASE_DAY, SIMULATION_DAYS
from tests.oracle import rows


def make_session(batch_size=64):
    ingestor = Ingestor()
    store = EventStore(registry=ingestor.registry)
    ingestor.attach(store)
    return store, StreamSession(ingestor, batch_size=batch_size)


class TestLiveReplay:
    def test_streams_exactly_the_event_budget(self):
        store, session = make_session()
        replay = LiveReplay(session, rate=0)  # unthrottled
        stats = replay.stream(max_events=200)
        assert stats.events == 200
        assert stats.batches >= 1
        assert stats.watermark == 200
        assert len(store) == 200  # tail committed, everything visible
        assert stats.achieved_rate > 0

    def test_default_start_day_is_beyond_the_simulation_window(self):
        store, session = make_session()
        replay = LiveReplay(session, rate=0)
        assert replay.start_day == BASE_DAY + SIMULATION_DAYS * DAY
        replay.stream(max_events=50)
        horizon = BASE_DAY + SIMULATION_DAYS * DAY
        assert all(e.start_time >= horizon for e in rows(store, EventFilter()))

    def test_background_handle_stops_cleanly(self):
        store, session = make_session()
        replay = LiveReplay(session, rate=500.0)
        handle = replay.start()
        stats = handle.stop()
        assert stats.target_rate == 500.0
        assert len(store) == stats.events == stats.watermark

    def test_pacing_holds_the_target_rate(self):
        _, session = make_session()
        replay = LiveReplay(session, rate=2000.0)
        stats = replay.stream(max_events=100)
        # 100 events at 2000 ev/s need >= ~0.05 s; unthrottled this
        # workload streams orders of magnitude faster.
        assert stats.wall_s >= 0.045
        assert stats.achieved_rate <= 2300.0

    def test_stop_interrupts_a_long_inter_event_sleep(self):
        import time

        _, session = make_session()
        replay = LiveReplay(session, rate=0.01)  # 100 s between events
        handle = replay.start()
        started = time.monotonic()
        stats = handle.stop()
        assert time.monotonic() - started < 5.0
        assert stats.events <= 1

    def test_negative_rate_rejected(self):
        _, session = make_session()
        with pytest.raises(ValueError):
            LiveReplay(session, rate=-1.0)
