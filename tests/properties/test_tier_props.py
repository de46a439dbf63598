"""Property tests: WAL replay idempotence and watermark exactness.

For random batch sequences, interleaved crash points, checkpoint/compaction
interleavings and retention horizons:

* the committed-event watermark after recovery equals the watermark of the
  last durably committed batch (staged-but-uncommitted events vanish,
  acknowledged ones never do);
* recovered content equals the live content observed right after that
  commit, event for event;
* replay is idempotent — recovering the same data dir twice (the second
  time over the artifacts the first recovery left behind) converges to the
  same state.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.storage.filters import EventFilter

from tests.tier.conftest import day_ts
from tests.oracle import rows

OPS = ("write", "read")


@st.composite
def batch_plan(draw):
    """A sequence of batches plus crash/checkpoint/compaction choices."""
    batches = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=3),  # agent
                    st.integers(min_value=0, max_value=6),  # day
                    st.integers(min_value=0, max_value=80),  # minute
                    st.sampled_from(OPS),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=6,
        )
    )
    crash_after = draw(st.integers(min_value=0, max_value=len(batches)))
    checkpoint_after = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=len(batches)))
    )
    compact_after = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=len(batches)))
    )
    retention = draw(st.integers(min_value=1, max_value=8))
    staged_tail = draw(st.integers(min_value=0, max_value=3))
    return batches, crash_after, checkpoint_after, compact_after, retention, staged_tail


def content(system):
    return [
        (e.event_id, e.agent_id, e.seq, e.start_time, e.operation.value)
        for e in rows(system.store, EventFilter())
    ]


@given(plan=batch_plan())
@settings(max_examples=25, deadline=None)
def test_recovery_watermark_equals_last_durable_commit(plan):
    batches, crash_after, checkpoint_after, compact_after, retention, staged = plan
    with tempfile.TemporaryDirectory() as root:
        data_dir = str(Path(root) / "data")
        system = AIQLSystem(
            SystemConfig(data_dir=data_dir, compact_interval_s=3600)
        )
        entities = {
            agent: (
                system.ingestor.process(agent, 100 + agent, f"w{agent}.exe"),
                system.ingestor.file(agent, f"/var/a{agent}.log"),
            )
            for agent in (1, 2, 3)
        }
        session = system.stream(batch_size=10 ** 9)  # commit manually

        watermark = 0
        live_content = content(system)
        for index, batch in enumerate(batches[:crash_after], start=1):
            for agent, day, minute, op in batch:
                proc, fobj = entities[agent]
                session.append(agent, day_ts(day, 60.0 * minute), op, proc, fobj)
            watermark = session.commit()
            live_content = content(system)
            if checkpoint_after == index:
                system.checkpoint()
            if compact_after == index:
                system.compact(retention)
        # stage a tail that is never committed: it must not survive
        for _ in range(staged):
            proc, fobj = entities[1]
            session.append(1, day_ts(0, 30.0), "write", proc, fobj)
        del session
        del system  # crash: no close(), no final commit

        recovered = AIQLSystem.recover(data_dir)
        try:
            assert recovered.ingestor.events_ingested == watermark
            assert content(recovered) == live_content
        finally:
            recovered.close()

        # idempotence: recovering the recovered dir converges
        again = AIQLSystem.recover(data_dir)
        try:
            assert again.ingestor.events_ingested == watermark
            assert content(again) == live_content
        finally:
            again.close()


@given(plan=batch_plan())
@settings(max_examples=15, deadline=None)
def test_compaction_preserves_content_under_any_horizon(plan):
    batches, _, _, _, retention, _ = plan
    with tempfile.TemporaryDirectory() as root:
        data_dir = str(Path(root) / "data")
        system = AIQLSystem(
            SystemConfig(data_dir=data_dir, compact_interval_s=3600)
        )
        entities = {
            agent: (
                system.ingestor.process(agent, 100 + agent, f"w{agent}.exe"),
                system.ingestor.file(agent, f"/var/a{agent}.log"),
            )
            for agent in (1, 2, 3)
        }
        with system.stream(batch_size=4) as session:
            for batch in batches:
                for agent, day, minute, op in batch:
                    proc, fobj = entities[agent]
                    session.append(
                        agent, day_ts(day, 60.0 * minute), op, proc, fobj
                    )
        before = content(system)
        system.compact(retention)
        assert content(system) == before
        system.compact(retention)  # a second pass must change nothing
        assert content(system) == before
        system.close()
