"""Shared helpers for the tiered-storage test suite."""

from __future__ import annotations

import pytest

from repro.model.time import DAY
from repro.storage.ingest import Ingestor

BASE = 1483228800.0  # 2017-01-01T00:00:00Z, matching the workload epoch


def day_ts(day: int, offset: float = 3600.0) -> float:
    """A timestamp ``offset`` seconds into day ``day`` of the test epoch."""
    return BASE + day * DAY + offset


class EventFeed:
    """Tiny deterministic ingest driver: one process/file pair per agent."""

    def __init__(self, ingestor: Ingestor) -> None:
        self.ingestor = ingestor
        self._procs = {}
        self._files = {}

    def entities(self, agent_id: int):
        if agent_id not in self._procs:
            self._procs[agent_id] = self.ingestor.process(
                agent_id, 100 + agent_id, f"worker{agent_id}.exe"
            )
            self._files[agent_id] = self.ingestor.file(
                agent_id, f"/var/log/host{agent_id}.log"
            )
        return self._procs[agent_id], self._files[agent_id]

    def emit(self, agent_id: int, ts: float, operation: str = "write"):
        proc, fobj = self.entities(agent_id)
        return self.ingestor.emit(agent_id, ts, operation, proc, fobj)

    def build(self, agent_id: int, ts: float, operation: str = "write"):
        proc, fobj = self.entities(agent_id)
        return self.ingestor.build_event(agent_id, ts, operation, proc, fobj)


@pytest.fixture
def feed():
    return EventFeed(Ingestor())


@pytest.fixture
def rows_built(monkeypatch):
    """Counts every ``SystemEvent`` constructed while the fixture is live
    (``rows_built()`` reads the count): the probe for "this path moves
    columns, not rows"."""
    from repro.model.events import SystemEvent

    built = []
    validate = SystemEvent.__post_init__

    def counting(event):
        built.append(event.event_id)
        validate(event)

    monkeypatch.setattr(SystemEvent, "__post_init__", counting)
    return lambda: len(built)
