"""Differential harness: the anomaly executor equals its list-based
predecessor row for row.

The executor counts window positions arithmetically, finds occupied
windows by bisecting the anchor times and keeps sparse per-group series.
:func:`legacy_slide` below is the implementation it replaced, kept as the
oracle: it lists every window start by repeated addition, finds the next
occupied window in a list of window ends, and zero-fills every series over
every position.  Every corpus anomaly query, and the same queries with
drawn whole-second windows, steps and having clauses (moving averages
included), must answer identically — for whole-second steps both build the
same window starts.
"""

import re
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.anomaly import AnomalyExecutor
from repro.engine.result import ResultSet
from repro.engine.scheduler import make_scheduler
from repro.lang.errors import AIQLSemanticError
from repro.lang.expr import MappingEnv, evaluate_bool, max_history_depth
from repro.model.time import format_timestamp
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise
from tests.conftest import compile_text

ANOMALY_QUERIES = [q for q in ALL_QUERIES if q.kind == "anomaly"]


def legacy_occupied_windows(
    times: Sequence[float], starts: Sequence[float], window: float
) -> Iterator[Tuple[int, int, int]]:
    """``(k, lo, hi)`` for each window ``[starts[k], starts[k] + window)``
    that holds rows — ``times[lo:hi]``, ``times`` ascending — in window order.

    A day-long query has thousands of window positions and its rows sit in
    a few of them, so empty windows are not visited: from a window, bisect
    its first row; if that row starts at or past the window's end, jump to
    the first window whose end lies beyond it.
    """
    ends = [start + window for start in starts]
    k = 0
    while k < len(starts):
        lo = bisect_left(times, starts[k])
        if lo == len(times):
            return
        hi = bisect_left(times, ends[k], lo)
        if lo == hi:
            k = bisect_right(ends, times[lo], k + 1)
            continue
        yield k, lo, hi
        k += 1


def legacy_slide(store, ctx, tuples) -> ResultSet:
    entity_of = store.registry.get
    col = {p: i for i, p in enumerate(tuples.patterns)}
    anchor_col = col[ctx.patterns[0].index]

    window = ctx.sliding.window_seconds
    step = ctx.sliding.step_seconds
    t0, t1 = ctx.window.start, ctx.window.end
    assert t0 is not None and t1 is not None

    starts: List[float] = []
    start = t0
    while start + window <= t1 + 1e-9:
        starts.append(start)
        start += step
    if not starts:
        starts = [t0]

    group_items = list(ctx.group_by)
    if not group_items:
        group_items = [i for i in ctx.return_items if not i.is_aggregate]
    agg_items = [i for i in ctx.return_items if i.is_aggregate]
    if not agg_items:
        raise AIQLSemanticError(
            "anomaly queries need at least one aggregate in the return clause"
        )

    def group_key(row: tuple) -> tuple:
        return tuple(
            item.ref.extract(row[col[item.ref.pattern]], entity_of)
            for item in group_items
        )

    rows_sorted = sorted(
        tuples.rows, key=lambda r: r[anchor_col].start_time
    )
    times = [row[anchor_col].start_time for row in rows_sorted]

    # occupied = (k, {group: rows whose anchor starts in window k}) for
    # the windows that hold rows; a day of 10 s steps has thousands of
    # positions and a query's rows sit in a few of them.
    all_groups: Dict[tuple, None] = {}
    occupied: List[Tuple[int, Dict[tuple, List[tuple]]]] = []
    for k, lo, hi in legacy_occupied_windows(times, starts, window):
        members: Dict[tuple, List[tuple]] = {}
        for row in rows_sorted[lo:hi]:
            key = group_key(row)
            members.setdefault(key, []).append(row)
            all_groups[key] = None
        occupied.append((k, members))

    from repro.engine.executor import _compute_aggregate

    # Zero-filled over every window position — a group absent from a
    # window contributes 0 to the history a having clause looks back
    # on — and computed only where a (window, group) cell holds rows.
    series: Dict[tuple, Dict[str, List[float]]] = {
        key: {item.label: [0.0] * len(starts) for item in agg_items}
        for key in all_groups
    }
    for k, members in occupied:
        for key, rows in members.items():
            group_series = series[key]
            for item in agg_items:
                group_series[item.label][k] = float(
                    _compute_aggregate(item, rows, entity_of, col)
                )

    min_index = (
        max_history_depth(ctx.having) if ctx.having is not None else 0
    )

    # A cell without rows aggregates to all zeros and never fires, so
    # only cells with rows are visited, in (window, first-seen group)
    # order.
    group_rank = {key: rank for rank, key in enumerate(all_groups)}
    out_rows: List[tuple] = []
    for k, members in occupied:
        if k < min_index:
            continue
        ws = starts[k]
        for key in sorted(members, key=group_rank.__getitem__):
            group_series = series[key]
            current = {
                label: values[k] for label, values in group_series.items()
            }
            if all(v == 0.0 for v in current.values()):
                continue  # group inactive in this window
            if ctx.having is not None:
                env = MappingEnv(
                    {
                        label: values[: k + 1]
                        for label, values in group_series.items()
                    }
                )
                try:
                    if not evaluate_bool(ctx.having, env):
                        continue
                except AIQLSemanticError:
                    continue
            row: List[object] = []
            key_lookup = dict(
                zip((item.ref for item in group_items), key)
            )
            for item in ctx.return_items:
                if item.is_aggregate:
                    row.append(current[item.label])
                else:
                    row.append(key_lookup.get(item.ref))
            row.append(format_timestamp(ws))
            out_rows.append(tuple(row))

    columns = ctx.labels + ("window_start",)
    result = ResultSet(
        columns=columns,
        rows=out_rows,
        meta={
            "windows": len(starts),
            "window_seconds": window,
            "step_seconds": step,
        },
    )
    if ctx.return_distinct:
        result = result.distinct()
    if ctx.sort is not None:
        result = result.sorted_by(ctx.sort.attrs, descending=ctx.sort.descending)
    if ctx.top is not None:
        result = result.head(ctx.top)
    return result


@pytest.fixture(scope="module")
def store():
    return build_enterprise(stores=("partitioned",), events_per_host_day=40).stores[
        "partitioned"
    ]


def both(store, ctx):
    tuples = make_scheduler("relationship", store).run(ctx)
    return AnomalyExecutor(store)._slide(ctx, tuples), legacy_slide(store, ctx, tuples)


def test_the_corpus_holds_anomaly_queries():
    assert len(ANOMALY_QUERIES) >= 3


@pytest.mark.parametrize("query", ANOMALY_QUERIES, ids=lambda q: q.qid)
def test_corpus_anomaly_queries_equal_the_legacy_slide(store, query):
    got, want = both(store, compile_text(query.text))
    assert got.rows == want.rows
    assert got.meta == want.meta


HAVINGS = (
    None,  # keep the query's own
    "",
    "having {agg} > 2 * ({agg} + {agg}[1] + {agg}[2]) / 3",
    "having {agg} > sma({agg}, 3)",
    "having {agg} >= cma({agg})",
    "having wma({agg}, 4) > 0 && {agg}[1] = 0",
    "having {agg} > ewma({agg}, 0.9)",
    "having {agg}[5] + 1 > {agg}",
)


@settings(max_examples=25, deadline=None)
@given(
    query=st.sampled_from(ANOMALY_QUERIES),
    window=st.integers(min_value=1, max_value=900),
    step=st.integers(min_value=5, max_value=900),
    having=st.sampled_from(HAVINGS),
)
def test_drawn_windows_and_steps_equal_the_legacy_slide(
    store, query, window, step, having
):
    text = re.sub(
        r"window = [^,]+, step = [^\n]+",
        f"window = {window} sec, step = {step} sec",
        query.text,
    )
    if having is not None:
        agg = re.search(r"\bas (\w+)\s+group by", text).group(1)
        text = re.sub(r"having .*", having.format(agg=agg), text, flags=re.S)
    ctx = compile_text(text)
    assert ctx.sliding.window_seconds == window
    got, want = both(store, ctx)
    assert got.rows == want.rows
    assert got.meta == want.meta
