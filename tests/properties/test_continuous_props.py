"""Property tests: sliding-window eviction and delta-join correctness.

Two invariants of :mod:`repro.service.continuous`:

* **Windows are exactly the in-horizon matches** — whatever the batch
  sizes and timestamp order, after every push a pattern's window holds
  precisely the events the interpreter (``EventFilter.matches``) accepts
  with ``start_time > high_water - horizon`` (the high-water mark being
  the newest start time pushed so far).
* **Delta evaluation == full re-evaluation** — the alerts accumulated by
  the incremental engine equal an oracle that, after every batch, joins
  the full in-horizon windows from scratch and accumulates every tuple it
  has ever seen.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile_query
from repro.service.continuous import ContinuousQueryEngine
from repro.storage.ingest import Ingestor

DAY0 = 1_483_228_800.0  # 2017-01-01

SINGLE = "proc p1 read file f1 as evt1 return p1, f1"
# Single-pattern standing queries whose matches the window test checks
# against the interpreter: structural only, a subject LIKE, an event
# ``amount`` leaf.
SINGLES = (
    SINGLE,
    'proc p1["%proc1%"] read file f1 as evt1 return p1, f1',
    "proc p1 read file f1 as evt1[amount > 100] return p1, f1",
)
PAIR = """
    proc p1 write file f1 as evt1
    proc p2 read file f1 as evt2
    with evt1 before evt2
    return p1, f1, p2
"""


def build_entities(ingestor):
    procs = [ingestor.process(1, 10 + i, f"proc{i}") for i in range(3)]
    files = [ingestor.file(1, f"/data/f{i}") for i in range(3)]
    return procs, files


# One stream: a list of (offset_seconds, op, proc_index, file_index,
# amount) observations, plus a batch split and a horizon.
events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=500),
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=30,
)
horizon_strategy = st.floats(min_value=1.0, max_value=600.0)
split_strategy = st.lists(
    st.integers(min_value=1, max_value=7), min_size=1, max_size=10
)


def batches_of(events, splits):
    """Partition ``events`` into batches sized by cycling ``splits``."""
    out, i, s = [], 0, 0
    while i < len(events):
        size = splits[s % len(splits)]
        out.append(events[i : i + size])
        i += size
        s += 1
    return out


@settings(max_examples=60, deadline=None)
@given(
    events=events_strategy,
    horizon=horizon_strategy,
    splits=split_strategy,
    text=st.sampled_from(SINGLES),
)
def test_window_contents_are_exactly_the_in_horizon_matches(
    events, horizon, splits, text
):
    ingestor = Ingestor()
    procs, files = build_entities(ingestor)
    engine = ContinuousQueryEngine(
        ingestor.registry, default_window_s=horizon
    )
    sub = engine.subscribe(text)
    flt = compile_query(text).patterns[0].filter
    entity = ingestor.registry.get

    built = [
        ingestor.build_event(1, DAY0 + off, op, procs[p], files[f], amount=amount)
        for off, op, p, f, amount in events
    ]
    pushed = []
    for batch in batches_of(built, splits):
        engine.push(batch)
        pushed.extend(batch)
        high_water = max(e.start_time for e in pushed)
        expected = {
            e.event_id
            for e in pushed
            if flt.matches(e, entity(e.subject_id), entity(e.object_id))
            and e.start_time > high_water - horizon
        }
        assert set(sub.window_snapshot()[0]) == expected


@settings(max_examples=60, deadline=None)
@given(events=events_strategy, horizon=horizon_strategy, splits=split_strategy)
def test_delta_evaluation_matches_full_recompute(events, horizon, splits):
    ingestor = Ingestor()
    procs, files = build_entities(ingestor)
    engine = ContinuousQueryEngine(
        ingestor.registry, default_window_s=horizon
    )
    sub = engine.subscribe(PAIR)

    built = [
        ingestor.build_event(1, DAY0 + off, op, procs[p], files[f], amount=amount)
        for off, op, p, f, amount in events
    ]
    # Oracle: after each batch, join the full in-horizon windows from
    # scratch and accumulate every tuple ever producible.
    oracle = set()
    pushed = []
    for batch in batches_of(built, splits):
        engine.push(batch)
        pushed.extend(batch)
        high_water = max(e.start_time for e in pushed)
        cutoff = high_water - horizon
        writes = [
            e
            for e in pushed
            if e.operation.value == "write" and e.start_time > cutoff
        ]
        reads = [
            e
            for e in pushed
            if e.operation.value == "read" and e.start_time > cutoff
        ]
        for w in writes:
            for r in reads:
                if (
                    w.object_id == r.object_id
                    and r.start_time - w.start_time > 0
                ):
                    oracle.add((w.event_id, r.event_id))
        assert sub.seen == oracle
