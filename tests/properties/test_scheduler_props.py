"""Property tests: all execution strategies return identical result sets.

This is the paper's core correctness invariant — relationship-based
scheduling (Algorithm 1), fetch-and-filter, and the monolithic baseline
join differ only in cost, never in results.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.flat import FlatStore
from repro.baselines.relational import MonolithicJoinEngine
from repro.engine.scheduler import FetchFilterScheduler, RelationshipScheduler
from repro.model.time import DAY
from repro.storage.ingest import Ingestor
from tests.conftest import compile_text
from tests.oracle import rows

EXES = ("bash", "vim", "sshd")
FILES = ("/a", "/b", "/c")

QUERIES = [
    # two patterns joined by entity reuse + temporal order
    "proc p1 start proc p2 as e1\n"
    "proc p2 read file f1 as e2\n"
    "with e1 before e2\nreturn p1, p2, f1",
    # two patterns joined by explicit attribute relationship
    "proc p1 read file f1 as e1\n"
    "proc p2 write file f2 as e2\n"
    "with f1 = f2\nreturn p1, p2, f1",
    # disconnected patterns (pure cross product)
    'proc p1["bash"] read file f1 as e1\n'
    'proc p2["vim"] write file f2 as e2\n'
    "return p1, f1, p2, f2",
    # three-pattern chain
    "proc p1 start proc p2 as e1\n"
    "proc p2 read file f1 as e2\n"
    "proc p2 write file f2 as e3\n"
    "with e1 before e2, e2 before e3\nreturn p1, p2, f1, f2",
]


@st.composite
def scenario(draw):
    n = draw(st.integers(min_value=2, max_value=40))
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
    ingestor = Ingestor()
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    pid = {exe: i for i, exe in enumerate(EXES, start=10)}
    next_child = [1000]
    for t, kind, subject_exe, (okind, oname) in events:
        subject = ingestor.process(1, pid[subject_exe], subject_exe)
        if okind == "file":
            obj = ingestor.file(1, oname)
        else:
            # child processes: one pid per (parent, name) pair keeps the
            # entity population small enough for cross products
            obj = ingestor.process(1, pid[oname] + 100, oname)
        ingestor.emit(1, t, kind, subject, obj)
    return store


def row_sets(store, ctx):
    rel = RelationshipScheduler(store).run(ctx)
    ff = FetchFilterScheduler(store).run(ctx)
    mono = MonolithicJoinEngine(store).join(ctx)
    key = lambda ts: {tuple(e.event_id for e in row) for row in ts.rows}
    return key(rel), key(ff), key(mono)


@settings(max_examples=30, deadline=None)
@given(events=scenario(), query_index=st.integers(min_value=0, max_value=3))
def test_strategies_agree(events, query_index):
    store = build(events)
    ctx = compile_text(QUERIES[query_index])
    rel, ff, mono = row_sets(store, ctx)
    assert rel == ff == mono


@settings(max_examples=30, deadline=None)
@given(events=scenario())
def test_single_pattern_matches_direct_scan(events):
    store = build(events)
    ctx = compile_text('proc p1["bash"] read file f1 as e1\nreturn p1, f1')
    rel, ff, mono = row_sets(store, ctx)
    direct = {
        (e.event_id,)
        for e in rows(store, ctx.patterns[0].filter)
    }
    assert rel == ff == mono == direct


# -- generated multi-pattern queries (ISSUE 20) --------------------------------
#
# The scheduler constrains a pending pattern by *every* pattern already
# bound and hands every crossing relationship to the join.  The shapes
# where that differs from the pair-at-a-time rule are the ones generated
# here: an entity shared by three patterns, a second entity shared by two
# of them, temporal chains that reach a pattern through a different
# neighbour than its attribute relationships do, and patterns tied to
# nothing at all.

SHAPES = [
    # chain: each pattern shares one entity with the next
    "proc p1 write file f1 as e1\n"
    "proc p2 read file f1 as e2\n"
    "proc p2 write file f2 as e3\n"
    "proc p3 read file f2 as e4\n"
    "with e1 before e2, e3 before e4\nreturn p1, p2, p3",
    # star: one subject, three objects
    "proc p1 read file f1 as e1\n"
    "proc p1 write file f2 as e2\n"
    "proc p1 start proc p2 as e3\n"
    "return p1, f1, f2, p2",
    # a subject shared by three patterns plus an object shared by two,
    # scheduled through the temporal relationship to the third (the v2 shape)
    "proc p1 write file f1 as e1\n"
    "proc p1 read file f1 as e2\n"
    "proc p1 start proc p2 as e3\n"
    "with e1 before e2, e2 before e3\nreturn p1, f1, p2",
    # temporal chain with bounds, no shared entity
    "proc p1 read file f1 as e1\n"
    "proc p2 write file f2 as e2\n"
    "proc p3 start proc p4 as e3\n"
    "with e1 before[0-20000 sec] e2, e3 after e2\nreturn p1, p2, p3",
    # a connected pair beside a disconnected pattern
    'proc p1 write file f1 as e1\n'
    'proc p2 read file f1 as e2\n'
    'proc p3["vim"] start proc p4 as e3\n'
    "with e1 before e2\nreturn p1, p2, p3",
    # explicit attribute relationships, one of them an inequality
    "proc p1 read file f1 as e1\n"
    "proc p2 write file f2 as e2\n"
    "proc p3 read file f3 as e3\n"
    "with f1.name = f2.name, p1.exe_name != p3.exe_name, e3 within[0-30000 sec] e1\n"
    "return p1, p2, p3",
]

PROCS = ("p1", "p2", "p3")
FILE_VARS = ("f1", "f2")


@st.composite
def generated_query(draw):
    """A random 2-4 pattern query over three process and two file names."""
    count = draw(st.integers(min_value=2, max_value=4))
    lines = []
    for index in range(1, count + 1):
        subject = draw(st.sampled_from(PROCS))
        operation = draw(st.sampled_from(["read", "write", "start"]))
        if operation == "start":
            other = draw(st.sampled_from([p for p in PROCS if p != subject]))
            target = f"proc {other}"
        else:
            target = f"file {draw(st.sampled_from(FILE_VARS))}"
        exe = draw(st.sampled_from([None, *EXES]))
        constraint = f'["{exe}"]' if exe else ""
        lines.append(f"proc {subject}{constraint} {operation} {target} as e{index}")
    pairs = [(a, b) for a in range(1, count + 1) for b in range(a + 1, count + 1)]
    rels = []
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)):
        kind = draw(
            st.sampled_from(["before", "after", "within[0-40000 sec]"])
        )
        rels.append(f"e{a} {kind} e{b}")
    if rels:
        lines.append("with " + ", ".join(rels))
    lines.append("return " + ", ".join(f"e{i}.id" for i in range(1, count + 1)))
    return "\n".join(lines)


def build_partitioned(events):
    """The production store (day partitions, entity index, columnar scans)."""
    from repro.storage.database import EventStore

    ingestor = Ingestor()
    store = EventStore(registry=ingestor.registry)
    ingestor.attach(store)
    pid = {exe: i for i, exe in enumerate(EXES, start=10)}
    for t, kind, subject_exe, (okind, oname) in events:
        agent = 1 + int(t) % 2  # two hosts: two partitions per day
        subject = ingestor.process(agent, pid[subject_exe], subject_exe)
        if okind == "file":
            obj = ingestor.file(agent, oname)
        else:
            obj = ingestor.process(agent, pid[oname] + 100, oname)
        ingestor.emit(agent, t, kind, subject, obj)
    return store


def nested_loop(store, ctx):
    """Every combination of per-pattern matches, checked relationship by
    relationship on the interpreted values: the definition of the result."""
    import itertools

    entity_of = store.registry.get
    per_pattern = [rows(store, p.filter) for p in ctx.patterns]

    def norm(value):
        return value.lower() if isinstance(value, str) else value

    out = set()
    for row in itertools.product(*per_pattern):
        ok = all(
            rel.check(row[rel.left], row[rel.right])
            for rel in ctx.temp_relationships
        )
        for rel in ctx.attr_relationships:
            if not ok:
                break
            left = norm(rel.left.extract(row[rel.left.pattern], entity_of))
            right = norm(rel.right.extract(row[rel.right.pattern], entity_of))
            ok = (left == right) if rel.op == "=" else (left != right)
        if ok:
            out.add(tuple(e.event_id for e in row))
    return out


@settings(max_examples=120, deadline=None)
@given(
    events=scenario(),
    text=st.one_of(st.sampled_from(SHAPES), generated_query()),
    partitioned=st.booleans(),
)
def test_generated_queries_agree_with_nested_loop(events, text, partitioned):
    store = build_partitioned(events) if partitioned else build(events)
    ctx = compile_text(text)
    truth = nested_loop(store, ctx)
    key = lambda ts: {tuple(e.event_id for e in row) for row in ts.rows}
    fetch_filter = FetchFilterScheduler(store)
    assert key(fetch_filter.run(ctx)) == truth
    for score_model in ("constraints", "cardinality"):
        scheduler = RelationshipScheduler(store, score_model=score_model)
        tuples = scheduler.run(ctx)
        assert tuples.patterns == tuple(range(len(ctx.patterns)))
        assert key(tuples) == truth
        # Constrained execution only ever narrows.
        assert scheduler.stats.events_fetched <= fetch_filter.stats.events_fetched
