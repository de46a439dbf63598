"""Data query synthesis and constrained execution (paper Secs. 5.1-5.2).

For every event pattern the engine synthesizes one *data query* that
searches the store for matching events.  The scheduler may execute a data
query *constrained by* the results of an already-executed pattern
(Algorithm 1's ``S_j <-execute-(S_i) q_j``): equality attribute
relationships narrow the entity id sets or inject IN-predicates, and
temporal relationships narrow the pattern's time window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lang.context import (
    FieldRef,
    PatternContext,
    QueryContext,
    ResolvedAttrRel,
    ResolvedTempRel,
)
from repro.model.events import SystemEvent
from repro.model.time import TimeWindow
from repro.storage.blocks import ColumnBlock, Positions
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateLeaf,
    conjoin,
)
from repro.storage.kernels import ScanKernel, compile_filter


@dataclass
class DataQuery:
    """One executable pattern search against a store.

    ``kernel`` is the pattern's compiled kernel while ``filter`` differs
    from the pattern's own only in window and id sets — the narrowings a
    kernel takes at scan time — and ``None`` once a narrowing changed a
    predicate (an IN list), when each scan compiles its own.
    """

    pattern: PatternContext
    filter: EventFilter
    kernel: Optional[ScanKernel] = None

    @classmethod
    def for_pattern(cls, pattern: PatternContext) -> "DataQuery":
        return cls(pattern, pattern.filter, pattern.kernel)

    @property
    def index(self) -> int:
        return self.pattern.index

    def execute(
        self,
        store,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.execute_scan(store, use_entity_index).events()

    def execute_scan(
        self,
        store,
        use_entity_index: bool = True,
    ):
        """Like :meth:`execute`, but keep the result columnar: a
        :class:`~repro.storage.blocks.BlockScanResult` (survivor positions
        over typed column blocks, no rows built)."""
        return store.scan_columns(
            self.filter,
            use_entity_index=use_entity_index,
            kernel=self.kernel,
        )

    def select(self, block: ColumnBlock, candidates: Positions, lookup) -> Positions:
        """The ``candidates`` of ``block`` this query matches (the
        standing-query engine's scan of a pushed batch or a window)."""
        flt = self.filter
        kernel = self.kernel if self.kernel is not None else compile_filter(flt)
        return kernel.select(
            block, candidates, lookup, flt.window, flt.subject_ids, flt.object_ids
        )

    # -- narrowing ----------------------------------------------------------

    def narrowed_by_values(
        self, ref: FieldRef, values: Iterable[object]
    ) -> "DataQuery":
        """Constrain this query so ``ref`` (a field of *this* pattern) takes
        one of ``values``.

        ``id`` fields become subject/object id-set narrowings, which the
        table can serve straight from its postings lists; other attributes
        become IN-predicates on the corresponding predicate tree.
        """
        assert ref.pattern == self.index
        values = tuple(values)
        if not values:
            return self._over(self.filter.narrowed(subject_ids=frozenset()))
        if ref.attr == "id" and ref.role in ("subject", "object"):
            ids = frozenset(int(v) for v in values)  # type: ignore[arg-type]
            if ref.role == "subject":
                return self._over(self.filter.narrowed(subject_ids=ids))
            return self._over(self.filter.narrowed(object_ids=ids))
        leaf = PredicateLeaf(AttrPredicate(attr=ref.attr, op="in", value=values))
        flt = self.filter
        if ref.role == "subject":
            flt = replace(flt, subject_pred=conjoin([flt.subject_pred, leaf]))
        elif ref.role == "object":
            flt = replace(flt, object_pred=conjoin([flt.object_pred, leaf]))
        else:
            flt = replace(flt, event_pred=conjoin([flt.event_pred, leaf]))
        return DataQuery(self.pattern, flt, None)

    def narrowed_by_window(self, window: TimeWindow) -> "DataQuery":
        return self._over(self.filter.narrowed(window=window))

    def _over(self, flt: EventFilter) -> "DataQuery":
        """This query over ``flt``, a narrowing the kernel takes at scan
        time (window or id sets)."""
        return DataQuery(self.pattern, flt, self.kernel)


def values_of(
    ref: FieldRef, events: Sequence[SystemEvent], entity_of
) -> FrozenSet[object]:
    """Distinct values of ``ref`` across ``events`` (events of ref's pattern)."""
    out: Set[object] = set()
    for event in events:
        value = ref.extract(event, entity_of)
        out.add(value.lower() if isinstance(value, str) else value)
    return frozenset(out)


def _ref_values(source, ref: FieldRef, entity_of) -> FrozenSet[object]:
    """Distinct ``ref`` values from a scan result or plain event list.

    Scan results answer from their columns (``ref_values``); lists fall
    back to per-event extraction.  Both normalize strings the same way.
    """
    ref_values = getattr(source, "ref_values", None)
    if ref_values is not None:
        return ref_values(ref, entity_of)
    return values_of(ref, source, entity_of)


def _time_span(source) -> Optional[tuple]:
    """(min, max) start time from a scan result or plain event list."""
    time_bounds = getattr(source, "time_bounds", None)
    if time_bounds is not None:
        return time_bounds()
    if not source:
        return None
    times = [e.start_time for e in source]
    return (min(times), max(times))


# IN lists bigger than this cost more than they prune (the classic optimizer
# guard); id sets are exempt — postings lists serve them directly.
MAX_NARROWING_VALUES = 256


def unapplied_relationships(
    ctx: QueryContext, bound: AbstractSet[int], applied: AbstractSet[object]
) -> Tuple[List[ResolvedAttrRel], List[ResolvedTempRel]]:
    """Every relationship of ``ctx`` not in ``applied`` whose endpoints all
    lie in ``bound``.

    With ``bound`` the patterns of two tuple sets about to be joined (or of
    one set plus the pending pattern being attached to it), this is every
    relationship the join must apply: each one crossing the boundary, plus
    any single-pattern relationship not checked yet.
    """
    attr = [
        rel
        for rel in ctx.attr_relationships
        if rel not in applied
        and rel.left.pattern in bound
        and rel.right.pattern in bound
    ]
    temp = [
        rel
        for rel in ctx.temp_relationships
        if rel not in applied and rel.left in bound and rel.right in bound
    ]
    return attr, temp


def constrain_by_bound(
    query: DataQuery,
    attr_rels: Sequence[ResolvedAttrRel],
    temp_rels: Sequence[ResolvedTempRel],
    events_of: Callable[[int], object],
    entity_of,
) -> Tuple[DataQuery, Dict[str, object]]:
    """Constrained execution (Algorithm 1) against a whole bound tuple set.

    Narrows ``query`` by every relationship in ``attr_rels``/``temp_rels``
    that ties its pattern to another one: equality relationships become id
    sets or IN lists (at most :data:`MAX_NARROWING_VALUES` values),
    temporal ones windows.  ``events_of(pattern)`` gives the events bound
    to the other endpoint, as a scan result or an event list; relationships
    inside the query's own pattern are left to the join.  Returns the
    narrowed query (``query`` itself when nothing narrowed) and what was
    applied, as ``scan`` span annotations.
    """
    pending = query.index
    sources: Dict[int, object] = {}

    def source(pattern: int):
        found = sources.get(pattern)
        if found is None:
            found = sources[pattern] = events_of(pattern)
        return found

    narrowed = query
    narrowed_by: Set[int] = set()  # the bound patterns that narrowed
    notes: Dict[str, object] = {}
    for rel in attr_rels:
        left, right = rel.left.pattern, rel.right.pattern
        if (left == pending) == (right == pending):
            continue  # both ends pending (or neither): nothing bound to use
        other = right if left == pending else left
        narrowing = attr_rel_narrowing(rel, other, source(other), entity_of)
        if narrowing is None:
            continue
        ref, values = narrowing
        if ref.attr != "id" and len(values) > MAX_NARROWING_VALUES:
            continue
        narrowed = narrowed.narrowed_by_values(ref, values)
        narrowed_by.add(other)
        notes[f"narrow_{ref.role}.{ref.attr}"] = len(values)
    for rel in temp_rels:
        if (rel.left == pending) == (rel.right == pending):
            continue
        other = rel.right if rel.left == pending else rel.left
        window = temp_rel_narrowing(rel, other, source(other))
        if window is None:
            continue
        narrowed = narrowed.narrowed_by_window(window)
        narrowed_by.add(other)
    notes["narrowed_by"] = sorted(narrowed_by)
    window = narrowed.filter.window
    if window != query.filter.window:
        notes["narrow_window"] = (
            f"[{window.start:.0f},{window.end:.0f})"
            if window.start is not None and window.end is not None
            else f"[{window.start},{window.end})"
        )
    return narrowed, notes


def attr_rel_narrowing(
    rel: ResolvedAttrRel,
    executed_index: int,
    executed_events,
    entity_of,
) -> Optional[tuple]:
    """Narrowing implied by an equality relationship with an executed side.

    Returns ``(pending_ref, values)`` to apply to the pending pattern's data
    query, or ``None`` when the relationship cannot narrow (non-equality).
    ``executed_events`` may be a scan result (values read from columns) or
    a plain event list.
    """
    if not rel.is_equality:
        return None
    if rel.left.pattern == executed_index:
        executed_ref, pending_ref = rel.left, rel.right
    elif rel.right.pattern == executed_index:
        executed_ref, pending_ref = rel.right, rel.left
    else:
        return None
    values = _ref_values(executed_events, executed_ref, entity_of)
    return pending_ref, values


def temp_rel_narrowing(
    rel: ResolvedTempRel,
    executed_index: int,
    executed_events,
) -> Optional[TimeWindow]:
    """Time-window narrowing for the pending side of a temporal relationship.

    If the executed events span ``[tmin, tmax]`` and ``executed before
    pending``, any matching pending event starts after ``tmin`` (and within
    ``tmax + high`` when a bound is given).  Soundness: the window must
    admit every pending event that could pair with *some* executed event.
    ``executed_events`` may be a scan result or a plain event list.
    """
    span = _time_span(executed_events)
    if span is None:
        return TimeWindow(start=0.0, end=0.0)  # empty — no pairs possible
    tmin, tmax = span
    if rel.left == executed_index:
        pending_is_right = True
    elif rel.right == executed_index:
        pending_is_right = False
    else:
        return None

    # Normalize to: does the pending event come after (True) or before
    # (False) the executed one, or either side (None, for 'within')?
    if rel.kind == "before":
        pending_after = pending_is_right
    elif rel.kind == "after":
        pending_after = not pending_is_right
    else:  # within
        pending_after = None

    # Window ends are exclusive; bump inclusive upper bounds by epsilon so
    # boundary events are admitted (the final join re-checks exactly).
    eps = 1e-6
    low = rel.low or 0.0
    if pending_after is True:
        start = tmin + low
        end = tmax + rel.high + eps if rel.high is not None else None
        return TimeWindow(start=start, end=end)
    if pending_after is False:
        end = (tmax - low + eps) if low else tmax
        start = tmin - rel.high if rel.high is not None else None
        return TimeWindow(start=start, end=end)
    # within: bounded both sides only if high given
    if rel.high is not None:
        return TimeWindow(start=tmin - rel.high, end=tmax + rel.high + eps)
    return None
