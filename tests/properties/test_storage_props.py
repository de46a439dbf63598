"""Property tests: storage soundness under random events and filters."""

from hypothesis import given, settings, strategies as st

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.entities import EntityType
from repro.model.time import DAY, TimeWindow
from repro.storage.database import EventStore
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateLeaf,
)
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme

EXES = ("bash", "vim", "nmap", "sshd", "cmd.exe")
FILES = ("/etc/passwd", "/var/log/syslog", "/home/u/x", "C:/Windows/SAM")
OPS_FILE = ("read", "write", "delete")
OPS_PROC = ("start",)


@st.composite
def event_stream(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    events = []
    for _ in range(n):
        agent = draw(st.integers(min_value=1, max_value=4))
        t = draw(st.floats(min_value=0, max_value=3 * DAY, allow_nan=False))
        kind = draw(st.sampled_from(["file", "proc"]))
        exe = draw(st.sampled_from(EXES))
        if kind == "file":
            events.append((agent, t, draw(st.sampled_from(OPS_FILE)), exe,
                           ("file", draw(st.sampled_from(FILES)))))
        else:
            events.append((agent, t, "start", exe,
                           ("proc", draw(st.sampled_from(EXES)))))
    return events


@st.composite
def random_filter(draw):
    kwargs = {}
    if draw(st.booleans()):
        kwargs["agent_ids"] = frozenset(
            draw(st.sets(st.integers(min_value=1, max_value=4), min_size=1,
                         max_size=2))
        )
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0, max_value=2 * DAY, allow_nan=False))
        length = draw(st.floats(min_value=0, max_value=2 * DAY, allow_nan=False))
        kwargs["window"] = TimeWindow(start=start, end=start + length)
    if draw(st.booleans()):
        kwargs["subject_pred"] = PredicateLeaf(
            AttrPredicate("exe_name", "=", draw(st.sampled_from(EXES)))
        )
    if draw(st.booleans()):
        kwargs["object_type"] = draw(
            st.sampled_from([EntityType.FILE, EntityType.PROCESS])
        )
    return EventFilter(**kwargs)


def build_stores(stream):
    ingestor = Ingestor()
    stores = {
        "partitioned": EventStore(
            registry=ingestor.registry,
            scheme=PartitionScheme(agents_per_group=2),
        ),
        "flat": FlatStore(registry=ingestor.registry),
        "domain": SegmentedStore(registry=ingestor.registry, segments=3,
                                 policy="domain"),
        "arrival": SegmentedStore(registry=ingestor.registry, segments=3,
                                  policy="arrival"),
    }
    for s in stores.values():
        ingestor.attach(s)
    pid = 100
    for agent, t, op, exe, (okind, oname) in stream:
        subject = ingestor.process(agent, 1, exe)
        if okind == "file":
            obj = ingestor.file(agent, oname)
        else:
            pid += 1
            obj = ingestor.process(agent, pid, oname)
        ingestor.emit(agent, t, op, subject, obj)
    return stores


@settings(max_examples=40, deadline=None)
@given(stream=event_stream(), flt=random_filter())
def test_partition_pruning_is_sound(stream, flt):
    """EventStore with pruning+indexes == index-free full scan."""
    stores = build_stores(stream)
    store = stores["partitioned"]
    assert store.scan(flt) == store.full_scan(flt)


@settings(max_examples=40, deadline=None)
@given(stream=event_stream(), flt=random_filter())
def test_all_backends_agree(stream, flt):
    """Partitioned / flat / both segment policies return identical scans."""
    stores = build_stores(stream)
    reference = stores["flat"].scan(flt)
    for name in ("partitioned", "domain", "arrival"):
        assert stores[name].scan(flt) == reference


@settings(max_examples=25, deadline=None)
@given(stream=event_stream(), flt=random_filter())
def test_parallel_scan_matches_serial(stream, flt):
    stores = build_stores(stream)
    store = stores["partitioned"]
    assert store.scan(flt, parallel=True) == store.scan(flt, parallel=False)
