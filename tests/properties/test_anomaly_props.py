"""Property tests: sliding-window aggregation vs brute-force recomputation.

The anomaly executor buckets matched events into window positions once and
maintains aligned per-group series; this oracle recomputes every window's
aggregate from scratch and compares.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.anomaly import AnomalyExecutor, occupied_windows
from repro.lang.context import compile_multievent
from repro.lang.parser import parse
from repro.storage.flat import FlatStore
from repro.storage.ingest import Ingestor
from repro.workload.topology import BASE_DAY

WINDOW = 120.0
STEP = 30.0
SPAN = 3600.0  # constrain events to the first hour of the day

QUERY_TEXT = """
(from "01/01/2017" to "01/01/2017 01:00:00")
agentid = 1
window = 2 min, step = 30 sec
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total >= 0
"""


@st.composite
def transfer_events(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    events = []
    for _ in range(n):
        offset = draw(st.floats(min_value=0, max_value=SPAN - 1, allow_nan=False))
        proc = draw(st.sampled_from(["alpha", "beta"]))
        amount = draw(st.integers(min_value=1, max_value=10000))
        events.append((offset, proc, amount))
    return events


def build_store(events):
    ingestor = Ingestor()
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    sink = ingestor.connection(1, "10.0.0.1", 1, "203.0.113.1", 443)
    procs = {
        "alpha": ingestor.process(1, 1, "alpha"),
        "beta": ingestor.process(1, 2, "beta"),
    }
    for offset, proc, amount in events:
        ingestor.emit(1, BASE_DAY + offset, "write", procs[proc], sink,
                      amount=amount)
    return store


def brute_force(events):
    """Expected (proc, total, window_start_offset) triples, totals > 0."""
    expected = set()
    start = 0.0
    while start + WINDOW <= SPAN + 1e-9:
        for proc in ("alpha", "beta"):
            total = sum(
                amount
                for offset, p, amount in events
                if p == proc and start <= offset < start + WINDOW
            )
            if total > 0:
                expected.add((proc, float(total), start))
        start += STEP
    return expected


@settings(max_examples=40, deadline=None)
@given(events=transfer_events())
def test_window_aggregates_match_brute_force(events):
    store = build_store(events)
    ctx = compile_multievent(parse(QUERY_TEXT))
    result = AnomalyExecutor(store).run(ctx)
    got = set()
    for proc, total, window_start in result.rows:
        # window_start is rendered as UTC text; recover the offset
        import datetime as dt

        ts = (
            dt.datetime.strptime(window_start, "%Y-%m-%d %H:%M:%S")
            .replace(tzinfo=dt.timezone.utc)
            .timestamp()
        )
        got.add((proc, float(total), ts - BASE_DAY))
    assert got == brute_force(events)


@settings(max_examples=30, deadline=None)
@given(events=transfer_events())
def test_count_windows_complete(events):
    store = build_store(events)
    ctx = compile_multievent(parse(QUERY_TEXT))
    result = AnomalyExecutor(store).run(ctx)
    expected_windows = int((SPAN - WINDOW) // STEP) + 1
    assert result.meta["windows"] == expected_windows


def rescanning_windows(times, starts, window):
    """The reference: every window walks the sorted rows from row 0."""
    out = []
    for k, ws in enumerate(starts):
        we = ws + window
        held = []
        for i, t in enumerate(times):
            if t < ws:
                continue
            if t >= we:
                break
            held.append(i)
        if held:
            out.append((k, held[0], held[-1] + 1))
    return out


@given(
    times=st.lists(
        st.floats(min_value=-50, max_value=1500, allow_nan=False), max_size=60
    ),
    t0=st.floats(min_value=0, max_value=100, allow_nan=False),
    window=st.sampled_from([0.5, 10.0, 60.0, 400.0]),
    step=st.sampled_from([0.25, 10.0, 35.0, 90.0]),  # overlap, abut, gaps
    count=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=300, deadline=None)
def test_occupied_windows_equal_the_row_rescan(times, t0, window, step, count):
    times = sorted(times)
    starts = []
    start = t0
    for _ in range(count):  # as _slide builds them: by repeated addition
        starts.append(start)
        start += step
    got = list(occupied_windows(times, starts, window))
    assert got == rescanning_windows(times, starts, window)
