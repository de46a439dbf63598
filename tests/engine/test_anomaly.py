"""Anomaly executor tests: sliding windows, history, moving averages."""

import pytest

from repro.baselines.flat import FlatStore
from repro.engine.anomaly import AnomalyExecutor
from repro.lang.errors import AIQLSemanticError
from repro.storage.ingest import Ingestor
from repro.workload.topology import BASE_DAY
from tests.conftest import compile_text


@pytest.fixture()
def spike_store():
    """A store with steady beaconing then a burst (SMA3-detectable)."""
    ingestor = Ingestor()
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    beacon = ingestor.process(1, 100, "beacon")
    sink = ingestor.connection(1, "10.0.0.1", 5000, "203.0.113.9", 443)
    t = BASE_DAY
    for k in range(30):
        ingestor.emit(1, t + k * 20, "write", beacon, sink, amount=1000)
    for k in range(3):
        ingestor.emit(1, t + 620 + k * 10, "write", beacon, sink, amount=900000)
    return store


SPIKE_QUERY = """
(at "01/01/2017")
agentid = 1
window = 1 min, step = 10 sec
proc p write ip i[dstip = "203.0.113.9"] as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)
"""


class TestSpikeDetection:
    def test_spike_detected(self, spike_store):
        result = AnomalyExecutor(spike_store).run(compile_text(SPIKE_QUERY))
        assert len(result) >= 1
        assert all(row[0] == "beacon" for row in result.rows)
        assert result.columns == ("p", "amt", "window_start")

    def test_no_spike_no_alert(self, spike_store):
        flat = compile_text(SPIKE_QUERY.replace("2 *", "900 *"))
        assert len(AnomalyExecutor(spike_store).run(flat)) == 0

    def test_window_metadata(self, spike_store):
        result = AnomalyExecutor(spike_store).run(compile_text(SPIKE_QUERY))
        assert result.meta["window_seconds"] == 60.0
        assert result.meta["step_seconds"] == 10.0
        assert result.meta["windows"] > 1000  # a day of 10s steps

    def test_early_windows_skipped_for_history(self, spike_store):
        """Windows earlier than the deepest history index never alert."""
        result = AnomalyExecutor(spike_store).run(compile_text(SPIKE_QUERY))
        starts = result.column("window_start")
        assert min(starts) >= "2017-01-01 00:00:20"

    def test_ewma_variant(self, spike_store):
        query = SPIKE_QUERY.replace(
            "having (amt > 2 * (amt + amt[1] + amt[2]) / 3)",
            "having (amt - EWMA(amt, 0.9)) / EWMA(amt, 0.9) > 0.2",
        )
        result = AnomalyExecutor(spike_store).run(compile_text(query))
        assert len(result) >= 1

    def test_count_distinct_frequency(self, spike_store):
        query = """
        (at "01/01/2017")
        agentid = 1
        window = 5 min, step = 1 min
        proc p write ip i as evt
        return p, count(distinct i) as freq
        group by p
        having freq > 0
        """
        result = AnomalyExecutor(spike_store).run(compile_text(query))
        assert len(result) >= 1
        assert all(row[1] == 1.0 for row in result.rows)  # one distinct sink


class TestValidation:
    def test_requires_anomaly_context(self, spike_store):
        ctx = compile_text("proc p read file f\nreturn p")
        with pytest.raises(AIQLSemanticError, match="anomaly"):
            AnomalyExecutor(spike_store).run(ctx)

    def test_requires_aggregate(self, spike_store):
        ctx = compile_text(
            '(at "01/01/2017")\nwindow = 1 min, step = 10 sec\n'
            "proc p write ip i\nreturn p"
        )
        with pytest.raises(AIQLSemanticError, match="aggregate"):
            AnomalyExecutor(spike_store).run(ctx)

    def test_rejects_a_step_of_zero(self, spike_store):
        # Window k starts at t0 + k*step: a zero step names no next window.
        ctx = compile_text(SPIKE_QUERY.replace("step = 10 sec", "step = 0 sec"))
        with pytest.raises(AIQLSemanticError, match="step must be positive"):
            AnomalyExecutor(spike_store).run(ctx)


class TestSlidingSemantics:
    def test_history_aligned_per_group(self):
        """Two groups alert independently; quiet group never alerts."""
        ingestor = Ingestor()
        store = FlatStore(registry=ingestor.registry)
        ingestor.attach(store)
        loud = ingestor.process(1, 1, "loud")
        quiet = ingestor.process(1, 2, "quiet")
        sink = ingestor.connection(1, "10.0.0.1", 1, "203.0.113.9", 443)
        t = BASE_DAY
        for k in range(30):
            ingestor.emit(1, t + k * 20, "write", loud, sink, amount=1000)
            ingestor.emit(1, t + k * 20 + 1, "write", quiet, sink, amount=1000)
        for k in range(3):
            ingestor.emit(1, t + 620 + k * 10, "write", loud, sink,
                          amount=900000)
        result = AnomalyExecutor(store).run(compile_text(SPIKE_QUERY))
        procs = {row[0] for row in result.rows}
        assert procs == {"loud"}
