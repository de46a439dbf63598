"""Anomaly query execution (paper Sec. 4.3, Queries 4-5).

An anomaly query is a multievent query with a global sliding window
(``window = 1 min, step = 10 sec``).  Execution:

1. resolve the matched tuples once over the whole global time window (the
   engine "maintains the aggregate results as historical states");
2. slide the window across the global range; each position aggregates the
   tuples whose anchor event (the first pattern) starts inside it.  Window
   ``k`` starts at ``t0 + k*step``; positions are counted, never listed,
   and the occupied ones are found by bisecting the sorted anchor times,
   jumping over empty stretches by arithmetic — so a day of 10 s steps
   costs what its rows cost, not 8,640 positions;
3. per group (the ``group by`` keys), keep a sparse ``{window: value}``
   series per aggregate — a group absent from a window contributes 0 —
   giving the history states ``freq[1]``, ``freq[2]``... (one lookup
   each) and the moving average inputs (zero-filled only when a moving
   average asks for them);
4. evaluate the ``having`` expression at each position, skipping positions
   earlier than the deepest history index referenced (there is no history
   to compare against yet);
5. emit one row per (window, group) that fires, with a trailing
   ``window_start`` column.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.engine.result import ResultSet
from repro.engine.scheduler import make_scheduler
from repro.engine.tuples import TupleSet
from repro.lang.context import QueryContext
from repro.lang.errors import AIQLSemanticError
from repro.lang.expr import evaluate_bool, max_history_depth
from repro.model.time import format_timestamp
from repro.obs.trace import trace_span


def window_count(t0: float, t1: float, window: float, step: float) -> int:
    """How many window positions ``[t0 + k*step, t0 + k*step + window)``
    end by ``t1`` (within 1e-9 s): at least one, the first window even
    when it overruns a short range."""
    return _first_window_ending_after(t1 + 1e-9, t0, step, window, 1)


def occupied_windows(
    times: Sequence[float], t0: float, step: float, window: float, count: int
) -> Iterator[Tuple[int, int, int]]:
    """``(k, lo, hi)`` for each window ``[t0 + k*step, t0 + k*step + window)``,
    ``k < count``, that holds rows — ``times[lo:hi]``, ``times`` ascending —
    in window order.

    A day-long query has thousands of window positions and its rows sit in
    a few of them, so empty windows are not visited: from a window, bisect
    its first row; if that row starts at or past the window's end, compute
    the first window whose end lies beyond it and go there.
    """
    k = 0
    while k < count:
        start = t0 + k * step
        lo = bisect_left(times, start)
        if lo == len(times):
            return
        hi = bisect_left(times, start + window, lo)
        if lo == hi:
            k = _first_window_ending_after(times[lo], t0, step, window, k + 1)
            continue
        yield k, lo, hi
        k += 1


def _first_window_ending_after(
    t: float, t0: float, step: float, window: float, floor: int
) -> int:
    """The least ``k >= floor`` with ``t0 + k*step + window > t``."""
    k = max(floor, int((t - t0 - window) // step) + 1)
    # The division is a guess within a position of the float comparison
    # that defines ``k``; settle it against that comparison.
    while k > floor and t0 + (k - 1) * step + window > t:
        k -= 1
    while t0 + k * step + window <= t:
        k += 1
    return k


class _WindowEnv:
    """A having clause's view of one group at window ``k``.

    Its series are sparse ``{window: value}`` maps: a window where the
    group holds no rows reads 0.  ``name[h]`` is one lookup; only the
    moving averages, which read a whole series, get a zero-filled list.
    """

    __slots__ = ("_series", "_k")

    def __init__(self, series: Dict[str, Dict[int, float]], k: int) -> None:
        self._series = series
        self._k = k

    def value(self, name: str, history: int) -> float:
        values = self._lookup(name)
        idx = self._k - history
        if idx < 0:
            raise AIQLSemanticError(
                f"not enough history for {name}[{history}]",
                hint="windows earlier than the deepest history index are skipped",
            )
        return values.get(idx, 0.0)

    def series(self, name: str) -> Sequence[float]:
        values = self._lookup(name)
        return [values.get(k, 0.0) for k in range(self._k + 1)]

    def _lookup(self, name: str) -> Dict[int, float]:
        if name not in self._series:
            raise AIQLSemanticError(f"unknown result name {name!r} in having clause")
        return self._series[name]


class AnomalyExecutor:
    """Executes anomaly query contexts against a store."""

    def __init__(
        self,
        store,
        scheduling: str = "relationship",
    ) -> None:
        self.store = store
        self.scheduling = scheduling
        self.last_stats = None

    def run(self, ctx: QueryContext) -> ResultSet:
        result, stats = self.run_with_stats(ctx)
        self.last_stats = stats
        return result

    def run_with_stats(self, ctx: QueryContext):
        """Execute ``ctx``; returns ``(result, scheduler_stats)`` without
        touching executor state (thread-safe, used by the query service)."""
        if ctx.kind != "anomaly" or ctx.sliding is None:
            raise AIQLSemanticError(
                "AnomalyExecutor requires an anomaly query",
                hint="add 'window = ...' and 'step = ...' global constraints",
            )
        if not ctx.window.is_bounded():
            raise AIQLSemanticError(
                "anomaly queries require a bounded global time window"
            )

        scheduler = make_scheduler(self.scheduling, self.store)
        with trace_span("schedule", scheduling=self.scheduling) as span:
            tuples = scheduler.run(ctx)
            if span is not None:
                span.annotate(tuples=len(tuples))
        with trace_span("slide") as span:
            result = self._slide(ctx, tuples)
            if span is not None:
                span.annotate(rows=len(result))
        return result, scheduler.stats

    # -- sliding-window machinery -------------------------------------------

    def _slide(self, ctx: QueryContext, tuples: TupleSet) -> ResultSet:
        entity_of = self.store.registry.get
        col = {p: i for i, p in enumerate(tuples.patterns)}
        anchor_col = col[ctx.patterns[0].index]

        window = ctx.sliding.window_seconds
        step = ctx.sliding.step_seconds
        t0, t1 = ctx.window.start, ctx.window.end
        assert t0 is not None and t1 is not None
        if step <= 0:
            raise AIQLSemanticError("the sliding window step must be positive")
        # Window k starts at t0 + k*step; the windows are never listed.
        count = window_count(t0, t1, window, step)

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
        # positions and a query's rows sit in a few of them.  A row in
        # several overlapping windows is keyed once.
        all_groups: Dict[tuple, None] = {}
        occupied: List[Tuple[int, Dict[tuple, List[tuple]]]] = []
        keys: Dict[int, tuple] = {}
        for k, lo, hi in occupied_windows(times, t0, step, window, count):
            members: Dict[tuple, List[tuple]] = {}
            for p in range(lo, hi):
                key = keys.get(p)
                if key is None:
                    key = keys[p] = group_key(rows_sorted[p])
                members.setdefault(key, []).append(rows_sorted[p])
                all_groups[key] = None
            occupied.append((k, members))

        from repro.engine.executor import _compute_aggregate

        # Sparse {window: value} per group and aggregate, set only where a
        # (window, group) cell holds rows; every other window reads 0, the
        # history a having clause looks back on for an absent group.
        series: Dict[tuple, Dict[str, Dict[int, float]]] = {
            key: {item.label: {} for item in agg_items} for key in all_groups
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
            ws = t0 + k * step
            for key in sorted(members, key=group_rank.__getitem__):
                group_series = series[key]
                current = {
                    label: values[k] for label, values in group_series.items()
                }
                if all(v == 0.0 for v in current.values()):
                    continue  # group inactive in this window
                if ctx.having is not None:
                    try:
                        if not evaluate_bool(
                            ctx.having, _WindowEnv(group_series, k)
                        ):
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
                "windows": count,
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
