"""Property tests: tracing is a pure observer of query execution.

Three invariants, over random event streams and the query shapes the
scheduler property suite uses:

* span trees are well-formed — children nest inside their parent's
  lifetime, so child durations sum to at most the parent's;
* the per-pattern ``scan`` spans report exactly the scheduler's actual
  intermediate cardinalities (``rows`` attrs vs ``SchedulerStats``);
* running under a trace changes no results, on all four backends.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.engine.scheduler import RelationshipScheduler
from repro.model.time import DAY
from repro.obs.trace import Trace, activate
from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from tests.conftest import compile_text

EXES = ("bash", "vim", "sshd")
FILES = ("/a", "/b", "/c")

QUERIES = [
    "proc p1 start proc p2 as e1\n"
    "proc p2 read file f1 as e2\n"
    "with e1 before e2\nreturn p1, p2, f1",
    "proc p1 read file f1 as e1\n"
    "proc p2 write file f2 as e2\n"
    "with f1 = f2\nreturn p1, p2, f1",
    'proc p1["bash"] read file f1 as e1\n'
    'proc p2["vim"] write file f2 as e2\n'
    "return p1, f1, p2, f2",
]


@st.composite
def scenario(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    events = []
    for _ in range(n):
        t = draw(st.floats(min_value=0, max_value=DAY, allow_nan=False))
        kind = draw(st.sampled_from(["read", "write", "start"]))
        subject = draw(st.sampled_from(EXES))
        if kind == "start":
            events.append((t, kind, subject, ("proc", draw(st.sampled_from(EXES)))))
        else:
            events.append((t, kind, subject, ("file", draw(st.sampled_from(FILES)))))
    return events


def build(events):
    """All four backends fed the identical stream."""
    ingestor = Ingestor()
    stores = [
        EventStore(registry=ingestor.registry, scheme=PartitionScheme()),
        FlatStore(registry=ingestor.registry),
        SegmentedStore(registry=ingestor.registry, segments=3, policy="domain"),
        SegmentedStore(registry=ingestor.registry, segments=3, policy="arrival"),
    ]
    for store in stores:
        ingestor.attach(store)
    pid = {exe: i for i, exe in enumerate(EXES, start=10)}
    for t, kind, subject_exe, (okind, oname) in events:
        subject = ingestor.process(1, pid[subject_exe], subject_exe)
        if okind == "file":
            obj = ingestor.file(1, oname)
        else:
            obj = ingestor.process(1, pid[oname] + 100, oname)
        ingestor.emit(1, t, kind, subject, obj)
    return stores


def row_key(ts):
    return {tuple(e.event_id for e in row) for row in ts.rows}


def subtree_spans(span):
    out = [span]
    for child in span.children:
        out.extend(subtree_spans(child))
    return out


@settings(max_examples=25, deadline=None)
@given(events=scenario(), query_index=st.integers(min_value=0, max_value=2))
def test_span_tree_well_formed(events, query_index):
    store = build(events)[0]
    ctx = compile_text(QUERIES[query_index])
    trace = Trace("query")
    with activate(trace):
        RelationshipScheduler(store).run(ctx)
    for span in subtree_spans(trace.root):
        assert span.ended is not None
        assert span.duration_s >= 0.0
        child_total = sum(c.duration_s for c in span.children)
        assert child_total <= span.duration_s + 1e-6
        for child in span.children:
            assert child.started >= span.started - 1e-9
            assert child.ended <= span.ended + 1e-9


@settings(max_examples=25, deadline=None)
@given(events=scenario(), query_index=st.integers(min_value=0, max_value=2))
def test_scan_spans_report_scheduler_cardinalities(events, query_index):
    store = build(events)[0]
    ctx = compile_text(QUERIES[query_index])
    scheduler = RelationshipScheduler(store)
    trace = Trace("query")
    with activate(trace):
        scheduler.run(ctx)
    scans = trace.root.find("scan")
    stats = scheduler.stats
    assert len(scans) == stats.data_queries_executed
    assert [s.attrs["pattern"] for s in scans] == stats.order
    assert sum(s.attrs["rows"] for s in scans) == stats.events_fetched
    assert (
        sum(1 for s in scans if s.attrs.get("constrained"))
        == stats.constrained_executions
    )
    for span in scans:
        # The storage layer's selectivity accounting agrees with the
        # scheduler's cardinality for the same execution.
        assert span.counters["rows_selected"] == span.attrs["rows"]
        assert span.counters["rows_scanned"] >= span.attrs["rows"]
        assert (
            span.counters["rows_scanned"]
            >= span.counters["rows_visited"]
            >= span.attrs["rows"]
        )


@settings(max_examples=25, deadline=None)
@given(events=scenario(), query_index=st.integers(min_value=0, max_value=2))
def test_tracing_changes_no_results_on_any_backend(events, query_index):
    stores = build(events)
    ctx = compile_text(QUERIES[query_index])
    for store in stores:
        untraced = row_key(RelationshipScheduler(store).run(ctx))
        with activate(Trace("query")):
            traced = row_key(RelationshipScheduler(store).run(ctx))
        assert traced == untraced
