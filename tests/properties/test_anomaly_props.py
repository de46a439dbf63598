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


# -- only cells that hold rows are visited ---------------------------------------


def dense_slide(store, ctx, tuples):
    """The reference emit loop: every (window, group) cell is built and
    tested, as ``_slide`` did before it skipped the cells without rows."""
    from repro.engine.executor import _compute_aggregate
    from repro.lang.errors import AIQLSemanticError
    from repro.lang.expr import MappingEnv, evaluate_bool, max_history_depth
    from repro.model.time import format_timestamp

    entity_of = store.registry.get
    col = {p: i for i, p in enumerate(tuples.patterns)}
    anchor_col = col[ctx.patterns[0].index]
    window = ctx.sliding.window_seconds
    step = ctx.sliding.step_seconds
    t0, t1 = ctx.window.start, ctx.window.end
    starts = []
    start = t0
    while start + window <= t1 + 1e-9:
        starts.append(start)
        start += step
    group_items = list(ctx.group_by)
    agg_items = [i for i in ctx.return_items if i.is_aggregate]
    rows_sorted = sorted(tuples.rows, key=lambda r: r[anchor_col].start_time)
    times = [row[anchor_col].start_time for row in rows_sorted]
    all_groups = {}
    window_rows = [{} for _ in starts]
    for k, lo, hi in rescanning_windows(times, starts, window):
        for row in rows_sorted[lo:hi]:
            key = tuple(
                item.ref.extract(row[col[item.ref.pattern]], entity_of)
                for item in group_items
            )
            window_rows[k].setdefault(key, []).append(row)
            all_groups[key] = None
    series = {key: {item.label: [] for item in agg_items} for key in all_groups}
    for members in window_rows:
        for key in all_groups:
            rows = members.get(key, [])
            for item in agg_items:
                series[key][item.label].append(
                    float(_compute_aggregate(item, rows, entity_of, col))
                    if rows
                    else 0.0
                )
    min_index = max_history_depth(ctx.having) if ctx.having is not None else 0
    out_rows = []
    for k, ws in enumerate(starts):
        if k < min_index:
            continue
        for key in all_groups:
            current = {label: values[k] for label, values in series[key].items()}
            if all(v == 0.0 for v in current.values()):
                continue
            if ctx.having is not None:
                env = MappingEnv(
                    {label: values[: k + 1] for label, values in series[key].items()}
                )
                try:
                    if not evaluate_bool(ctx.having, env):
                        continue
                except AIQLSemanticError:
                    continue
            key_lookup = dict(zip((item.ref for item in group_items), key))
            out_rows.append(
                tuple(
                    current[item.label]
                    if item.is_aggregate
                    else key_lookup.get(item.ref)
                    for item in ctx.return_items
                )
                + (format_timestamp(ws),)
            )
    return out_rows


SLIDE_QUERY = """
(from "01/01/2017" to "01/01/2017 01:00:00")
agentid = 1
window = {window}, step = {step}
proc p write ip i as evt
return p, sum(evt.amount) as total, count(distinct i) as peers
group by p
{having}
"""

HAVINGS = (
    "",
    "having total >= 0",
    "having total > 2 * (total + total[1] + total[2]) / 3",  # looks back
    "having peers > peers[1] && total[3] = 0",  # fires after empty windows
    "having total < 0",
)


@st.composite
def bursty_events(draw):
    """A few bursts in an hour, so most windows hold no rows; amounts of 0
    make cells that hold rows and still aggregate to nothing."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.floats(min_value=0, max_value=SPAN - 1, allow_nan=False))
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            offset = min(SPAN - 1, at + draw(st.floats(min_value=0, max_value=90)))
            proc = draw(st.sampled_from(["alpha", "beta", "gamma"]))
            amount = draw(st.sampled_from([0, 0, 1, 5, 5000]))
            events.append((offset, proc, amount))
    return events


@settings(max_examples=60, deadline=None)
@given(
    events=bursty_events(),
    window=st.sampled_from(["2 min", "30 sec"]),
    step=st.sampled_from(["30 sec", "10 sec"]),
    having=st.sampled_from(HAVINGS),
)
def test_sparse_emit_equals_the_dense_loop(events, window, step, having):
    from repro.engine.scheduler import make_scheduler

    ingestor = Ingestor()
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    sinks = [
        ingestor.connection(1, "10.0.0.1", 1, f"203.0.113.{n}", 443)
        for n in (1, 2)
    ]
    procs = {
        name: ingestor.process(1, pid, name)
        for pid, name in enumerate(("alpha", "beta", "gamma"), start=1)
    }
    for n, (offset, proc, amount) in enumerate(events):
        ingestor.emit(1, BASE_DAY + offset, "write", procs[proc], sinks[n % 2],
                      amount=amount)
    text = SLIDE_QUERY.format(window=window, step=step, having=having)
    ctx = compile_multievent(parse(text))
    tuples = make_scheduler("relationship", store, False).run(ctx)
    result = AnomalyExecutor(store)._slide(ctx, tuples)
    assert result.rows == dense_slide(store, ctx, tuples)
    assert result.meta["windows"] == int((SPAN - ctx.sliding.window_seconds)
                                         // ctx.sliding.step_seconds) + 1
