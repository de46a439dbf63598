"""Property tests: the window lookups equal the loops they replace.

A scan finds what its window can touch by lookup, not by walking all
history:

* the hot store probes ``window.days() x groups`` partition keys instead
  of walking every partition — the probe must keep exactly the keys the
  walk keeps, in ``(day, agent_group)`` order;
* the cold tier bisects its window on a time-ordered zone list and runs
  ``ZoneMap.may_match`` only on that slice — slice plus ``may_match``
  must keep exactly the zones ``may_match`` keeps over all zones, in
  manifest order, for overlapping zones, unbounded windows and scans
  racing a publish.

The anomaly executor's arithmetic windows are covered in
``test_anomaly_props.py``.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.model.time import DAY, TimeWindow
from repro.storage.blocks import ColumnBlock
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionKey, PartitionScheme
from repro.tier.cold import ColdTier, ZoneMap, ZoneTimeline

from tests.tier.conftest import BASE, EventFeed, day_ts

# -- hot partitions: the day probe -----------------------------------------------

DAYS = 12


def window_of(pair):
    """A window from two optional edges (ordered when both are set)."""
    start, end = pair
    if start is not None and end is not None and end < start:
        start, end = end, start
    return TimeWindow(start, end)


def windows(edge):
    """Bounded, half-bounded and unbounded windows with edges from ``edge``."""
    return st.tuples(st.none() | edge, st.none() | edge).map(window_of)


# Window edges over the partitions' days, on and off midnight.
day_edges = st.integers(min_value=-1, max_value=DAYS + 1).map(
    lambda d: d * DAY
) | st.floats(min_value=-DAY, max_value=(DAYS + 1) * DAY, allow_nan=False)


def walked(scheme, keys, agent_ids, window):
    """The reference: every key tested against the window's days and the
    agents' groups."""
    groups = (
        None if agent_ids is None else {scheme.group_of(a) for a in agent_ids}
    )
    kept = []
    for key in keys:
        if groups is not None and key.agent_group not in groups:
            continue
        day_start = key.day * DAY
        if window.start is not None and window.start >= day_start + DAY:
            continue
        if window.end is not None and window.end <= day_start:
            continue
        kept.append(key)
    return sorted(kept, key=lambda k: (k.day, k.agent_group))


@settings(max_examples=300, deadline=None)
@given(
    keys=st.sets(
        st.builds(
            PartitionKey,
            day=st.integers(min_value=0, max_value=DAYS - 1),
            agent_group=st.integers(min_value=0, max_value=5),
        ),
        max_size=40,
    ),
    agent_ids=st.one_of(
        st.none(), st.frozensets(st.integers(min_value=0, max_value=70), max_size=6)
    ),
    window=windows(day_edges),
    per_group=st.sampled_from([1, 10, 25]),
)
def test_day_probe_equals_the_full_prune_loop(keys, agent_ids, window, per_group):
    scheme = PartitionScheme(agents_per_group=per_group)
    partitions = {key: None for key in keys}  # what the store probes
    held = tuple(sorted({key.agent_group for key in keys}))
    probed = scheme.prune(partitions, agent_ids, window, held)
    assert probed == walked(scheme, keys, agent_ids, window)
    # The walk (a bare iterator cannot be probed) agrees too.
    assert scheme.prune(iter(keys), agent_ids, window) == probed


def test_a_store_probes_the_groups_it_holds():
    store = EventStore(scheme=PartitionScheme(agents_per_group=1))
    feed = EventFeed(Ingestor(registry=store.registry))
    feed.ingestor.attach(store)
    for day in range(6):
        for agent in (3, 1, 7):
            feed.emit(agent, day_ts(day))
    assert store._groups == (1, 3, 7)
    one_day = EventFilter(window=TimeWindow(day_ts(2, 0.0), day_ts(3, 0.0)))
    keys = store._pruned_keys(one_day)
    assert [(k.day - keys[0].day, k.agent_group) for k in keys] == [
        (0, 1), (0, 3), (0, 7)
    ]
    assert keys == walked(store.scheme, store.partition_keys, None, one_day.window)


# -- cold zones: the time-ordered view --------------------------------------------


@st.composite
def zone_maps(draw, count):
    zones = []
    for n in range(count):
        start = draw(st.integers(min_value=0, max_value=40))
        length = draw(st.sampled_from([0, 1, 3, 10, 40]))  # overlap freely
        zones.append(
            ZoneMap(
                filename=f"seg-{n:06d}.seg",
                day=0,
                agent_group=0,
                count=1,
                min_time=float(start),
                max_time=float(start + length),
                min_eid=n,
                max_eid=n,
                agents=draw(st.frozensets(st.integers(1, 3), min_size=1)),
                operations=frozenset({"write"}),
                object_types=frozenset({"file"}),
                subjects=draw(st.frozensets(st.integers(1, 4), min_size=1)),
                objects=frozenset({9}),
                seqs=(),
            )
        )
    return zones


# Window edges over the zones' times (0 to 80), on and off their ends.
zone_edges = st.integers(min_value=-5, max_value=90).map(float) | st.floats(
    min_value=-5, max_value=90, allow_nan=False
)

cold_filters = st.builds(
    EventFilter,
    window=windows(zone_edges),
    agent_ids=st.one_of(st.none(), st.frozensets(st.integers(1, 3), max_size=2)),
    subject_ids=st.one_of(st.none(), st.frozensets(st.integers(1, 4), max_size=2)),
)


@settings(max_examples=400, deadline=None)
@given(zones=st.integers(0, 30).flatmap(zone_maps), flt=cold_filters)
def test_timeline_slice_keeps_what_may_match_keeps(zones, flt):
    timeline = ZoneTimeline(zones)
    kept = [z for z in timeline.overlapping(flt.window) if z.may_match(flt)]
    assert kept == [z for z in zones if z.may_match(flt)]


def test_scans_racing_publishes_see_a_published_prefix(tmp_path):
    """A writer publishes one-row segments with shuffled times while a
    reader scans a window: every scan returns, in publish order, the
    in-window rows of some prefix of the publishes."""
    feed = EventFeed(Ingestor())
    tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
    offsets = [((n * 37) % 24) * 3600.0 + 60.0 for n in range(24)]
    window = TimeWindow(BASE + 6 * 3600.0, BASE + 18 * 3600.0)
    in_window = []  # event ids, publish order
    done = threading.Event()
    failures = []

    def write():
        try:
            for offset in offsets:
                event = feed.emit(1, day_ts(0, offset))
                if window.contains(event.start_time):
                    in_window.append(event.event_id)
                tier.add_segments(
                    [(PartitionKey(0, 0), ColumnBlock.from_events([event]))]
                )
        finally:
            done.set()

    writer = threading.Thread(target=write)
    flt = EventFilter(window=window)
    scans = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-publish and mid-scan
    try:
        writer.start()
        while not done.is_set() or scans == 0:
            seen = [
                event.event_id
                for selection in tier.scan_selections(flt)
                for event in selection.events()
            ]
            if seen != in_window[: len(seen)]:
                failures.append(seen)
            scans += 1
        writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert not failures
    before = (tier.segments_considered, tier.segments_pruned, tier.segments_scanned)
    final = [e.event_id for s in tier.scan_selections(flt) for e in s.events()]
    assert final == in_window
    # Zones the bisect skipped count as considered and pruned.
    after = (tier.segments_considered, tier.segments_pruned, tier.segments_scanned)
    assert [b - a for a, b in zip(before, after)] == [
        len(offsets), len(offsets) - len(in_window), len(in_window)
    ]
