"""Continuous standing queries over the live stream (detection-at-ingest).

The paper's AIQL investigates *historical* monitoring data: an analyst
writes a query, the engine scans the store.  A production deployment also
wants the inverse — the query stands, the data moves.  This module adds
that scenario on top of the live-ingestion path: clients register AIQL
multievent queries as *standing subscriptions* and receive an alert for
every new tuple of events that satisfies the query, as the batches that
complete it commit.

Design, reusing the batch machinery end to end:

* **Compile once at registration** — the text goes through the shared
  :func:`repro.engine.compile_query` (a text an analyst already ran is not
  parsed again; the plan is immutable, so a subscription can keep it), and
  each pattern's :class:`EventFilter` compiles into a
  :class:`~repro.storage.kernels.ScanKernel` when the subscription is
  created (shared with the scan-path kernel cache).  A push builds one
  :class:`~repro.storage.blocks.ColumnBlock` of the batch and every
  pattern runs ``kernel.select`` over it — the same code a partition
  scan runs over its stored columns.
* **Sliding windows with incremental eviction** — events matched by a
  pattern accumulate into that pattern's window, a dict keyed by event id
  plus a min-heap on start time.  The stream high-water mark (the newest
  start time pushed through the engine) advances with every batch and
  events older than ``high_water - horizon`` are popped from the heap —
  eviction cost is proportional to what expires, not to window size.  An
  event is *in horizon* iff ``start_time > high_water - horizon``.
* **Delta evaluation** — a multi-pattern query is re-evaluated only for
  the dependency-graph nodes whose windows changed.  For each pattern
  ``k`` that matched new events the engine runs one delta term: the new
  events of ``k`` joined against the *post-batch* windows of patterns
  before ``k`` and the *pre-batch* windows of patterns after ``k`` (the
  standard delta-join decomposition — every new tuple is produced exactly
  once).  Candidate windows are first narrowed through the scheduler's
  own rule (:func:`~repro.engine.data_query.constrain_by_bound` applied to
  the pattern's :class:`~repro.engine.data_query.DataQuery` with every
  relationship into the patterns already bound, then compiled and
  selected over a block of the window), so a join only sees window
  events that can still pair.
* **Alerts** — each new tuple emits one :class:`Alert` carrying the
  matched events in pattern order.  Alerts land in a bounded engine-level
  queue (oldest dropped when full, counted) and fire the subscription's
  callback; callback exceptions are contained and counted, never fail a
  commit.

Equivalence invariant (differential-tested): with an unbounded horizon,
the set of alert keys a subscription has emitted after a committed prefix
equals the tuple set the batch scheduler produces for the same query over
the same prefix — on every storage backend.

Thread-safety: ``push`` is called from the streaming writer (inside the
:class:`~repro.service.stream.StreamSession` commit, via its commit
hooks); ``subscribe``/``unsubscribe``/``drain`` may be called from any
thread.  One engine lock serializes them.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.data_query import (
    DataQuery,
    constrain_by_bound,
    unapplied_relationships,
)
from repro.engine.tuples import TupleSet
from repro.lang.context import QueryContext
from repro.model.events import SystemEvent
from repro.obs.metrics import REGISTRY
from repro.storage.blocks import ColumnBlock
from repro.storage.kernels import ScanKernel, kernel_for

_M_PUSH_BATCHES = REGISTRY.counter(
    "aiql_continuous_batches_total", "Stream batches pushed through standing queries"
)
_M_PUSH_EVENTS = REGISTRY.counter(
    "aiql_continuous_events_total", "Events pushed through standing queries"
)
_M_ALERTS = REGISTRY.counter(
    "aiql_continuous_alerts_total", "Alerts emitted by standing queries"
)
_M_ALERTS_DROPPED = REGISTRY.counter(
    "aiql_continuous_alerts_dropped_total",
    "Alerts evicted from a full engine queue before being drained",
)
_M_ALERT_LATENCY = REGISTRY.histogram(
    "aiql_continuous_alert_latency_seconds",
    "Commit-entry to alert-emission latency of standing queries",
)

DEFAULT_WINDOW_S = 3600.0
DEFAULT_MAX_SUBSCRIPTIONS = 64
DEFAULT_ALERT_QUEUE = 1024


class ContinuousError(RuntimeError):
    """Raised for invalid subscription requests (kind, limits, windows)."""


@dataclass(frozen=True)
class Alert:
    """One newly-matched tuple of a standing query.

    ``key`` and ``events`` are ordered by pattern index; ``time`` is the
    newest event start time in the tuple (data time); ``latency_s`` is the
    wall-clock delay from the carrying batch's commit entry to emission
    (``None`` when the push carried no commit timestamp).
    """

    query: str
    key: Tuple[int, ...]
    events: Tuple[SystemEvent, ...]
    time: float
    latency_s: Optional[float] = None


@dataclass
class _PatternWindow:
    """One pattern's sliding window: dict + eviction heap."""

    events: Dict[int, SystemEvent] = field(default_factory=dict)
    heap: List[Tuple[float, int]] = field(default_factory=list)

    def add(self, event: SystemEvent) -> None:
        self.events[event.event_id] = event
        heapq.heappush(self.heap, (event.start_time, event.event_id))

    def evict(self, cutoff: float) -> int:
        """Drop events with ``start_time <= cutoff``; returns the count."""
        dropped = 0
        while self.heap and self.heap[0][0] <= cutoff:
            _, event_id = heapq.heappop(self.heap)
            if self.events.pop(event_id, None) is not None:
                dropped += 1
        return dropped


class Subscription:
    """One standing query: compiled kernels + per-pattern windows.

    Create through :meth:`ContinuousQueryEngine.subscribe`; read-only for
    clients (the engine mutates it under its lock).
    """

    def __init__(
        self,
        name: str,
        text: str,
        ctx: QueryContext,
        horizon_s: float,
        callback: Optional[Callable[[Alert], None]],
    ) -> None:
        self.name = name
        self.text = text
        self.ctx = ctx
        self.horizon_s = horizon_s
        self.callback = callback
        self.active = True
        # Compiled once here; a push runs kernel.select over its block.
        self.kernels: Tuple[ScanKernel, ...] = tuple(
            kernel_for(p.filter) for p in ctx.patterns
        )
        self.queries: Tuple[DataQuery, ...] = tuple(
            DataQuery.for_pattern(p) for p in ctx.patterns
        )
        self.windows: Tuple[_PatternWindow, ...] = tuple(
            _PatternWindow() for _ in ctx.patterns
        )
        self.high_water = float("-inf")
        # Alert keys already emitted.  A key stays deduplicable only while
        # every component event is still in its window — once one is
        # evicted the tuple can never be re-derived (candidates come from
        # windows, and the stream never re-issues an event id) — so the
        # set is pruned against the windows, amortized O(1) per eviction,
        # keeping a bounded-horizon subscription's memory bounded.  With
        # an unbounded horizon nothing evicts and the set accumulates
        # every alert (the batch-equivalence invariant reads it).
        self.seen: Set[Tuple[int, ...]] = set()
        self.events_matched = 0
        self.events_evicted = 0
        self.alerts_emitted = 0
        self.callback_errors = 0
        self._evicted_since_prune = 0

    @property
    def cutoff(self) -> float:
        """Events at or below this start time are out of horizon."""
        return self.high_water - self.horizon_s

    def prune_seen(self) -> None:
        """Drop dedup keys that can no longer be re-derived (see above)."""
        windows = self.windows
        self.seen = {
            key
            for key in self.seen
            if all(eid in windows[i].events for i, eid in enumerate(key))
        }
        self._evicted_since_prune = 0

    def window_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """Current window contents: pattern index -> sorted event ids."""
        return {
            i: tuple(sorted(window.events))
            for i, window in enumerate(self.windows)
        }

    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "patterns": len(self.kernels),
            "horizon_s": self.horizon_s,
            "window_sizes": [len(w.events) for w in self.windows],
            "events_matched": self.events_matched,
            "events_evicted": self.events_evicted,
            "alerts_emitted": self.alerts_emitted,
            "callback_errors": self.callback_errors,
        }


class ContinuousQueryEngine:
    """Evaluates standing queries incrementally as stream batches commit."""

    def __init__(
        self,
        registry,
        default_window_s: float = DEFAULT_WINDOW_S,
        max_window_s: Optional[float] = None,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
        alert_queue: int = DEFAULT_ALERT_QUEUE,
    ) -> None:
        if default_window_s <= 0:
            raise ValueError("default_window_s must be > 0")
        if max_window_s is not None and max_window_s <= 0:
            raise ValueError("max_window_s must be > 0 (or None)")
        if max_subscriptions < 1:
            raise ValueError("max_subscriptions must be >= 1")
        if alert_queue < 1:
            raise ValueError("alert_queue must be >= 1")
        self.registry = registry
        self.default_window_s = default_window_s
        self.max_window_s = max_window_s
        self.max_subscriptions = max_subscriptions
        self.alerts: "deque[Alert]" = deque(maxlen=alert_queue)
        self.alerts_dropped = 0
        self.batches_pushed = 0
        self.events_pushed = 0
        # Reentrant: alert callbacks run under this lock and may call
        # back into the engine (drain, subscribe, unsubscribe).
        self._lock = threading.RLock()
        self._subs: Dict[str, Subscription] = {}
        self._names = itertools.count(1)

    # -- subscription management -------------------------------------------

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        with self._lock:
            return tuple(self._subs.values())

    def subscribe(
        self,
        text: str,
        callback: Optional[Callable[[Alert], None]] = None,
        window_s: Optional[float] = None,
        name: Optional[str] = None,
    ) -> Subscription:
        """Register ``text`` as a standing query; returns its subscription.

        ``window_s`` is the sliding horizon in seconds of data time
        (default :attr:`default_window_s`, clamped to :attr:`max_window_s`
        when one is configured; ``float("inf")`` keeps every match
        forever).  ``callback`` fires once per alert, on the committing
        thread — keep it fast, and note that exceptions are swallowed
        (counted on the subscription), never surfaced to the writer.
        """
        from repro.engine import compile_query

        ctx = compile_query(text)
        if ctx.kind != "multievent":
            raise ContinuousError(
                f"only multievent queries can stand ({ctx.kind!r} given); "
                "anomaly queries need the sliding-window batch executor"
            )
        if (
            ctx.group_by
            or ctx.return_count
            or ctx.top is not None
            or ctx.sort is not None
            or ctx.having is not None
            or any(item.is_aggregate for item in ctx.return_items)
        ):
            raise ContinuousError(
                "standing queries alert per matched tuple; aggregation, "
                "grouping, having, sort and top clauses need a batch query"
            )
        horizon = self.default_window_s if window_s is None else float(window_s)
        if horizon <= 0:
            raise ContinuousError("window_s must be > 0")
        if self.max_window_s is not None:
            horizon = min(horizon, self.max_window_s)
        with self._lock:
            if len(self._subs) >= self.max_subscriptions:
                raise ContinuousError(
                    f"subscription limit reached ({self.max_subscriptions}); "
                    "unsubscribe a standing query first"
                )
            if name is None:
                name = f"standing-{next(self._names)}"
            if name in self._subs:
                raise ContinuousError(f"subscription {name!r} already exists")
            sub = Subscription(name, text, ctx, horizon, callback)
            self._subs[name] = sub
            return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription (idempotent); its windows are released."""
        with self._lock:
            existing = self._subs.get(sub.name)
            if existing is sub:
                del self._subs[sub.name]
            sub.active = False

    # -- stream side ---------------------------------------------------------

    def push(
        self,
        events: Sequence[SystemEvent],
        started: Optional[float] = None,
    ) -> List[Alert]:
        """Evaluate one committed batch against every standing query.

        ``started`` is the committing session's ``perf_counter`` at commit
        entry; when given, each alert carries its commit-to-alert latency.
        Returns the alerts this batch produced (they are also queued and
        delivered to callbacks).
        """
        if not events:
            return []
        emitted: List[Alert] = []
        with self._lock:
            self.batches_pushed += 1
            self.events_pushed += len(events)
            _M_PUSH_BATCHES.inc()
            _M_PUSH_EVENTS.inc(len(events))
            # Snapshot: a callback may (un)subscribe mid-push; changes
            # take effect from the next batch.
            subs = tuple(self._subs.values())
            if subs:
                block = ColumnBlock.from_events(events)
            for sub in subs:
                emitted.extend(self._push_sub(sub, events, block, started))
        return emitted

    def drain(self) -> List[Alert]:
        """Pop and return every queued alert (oldest first)."""
        with self._lock:
            out = list(self.alerts)
            self.alerts.clear()
            return out

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "subscriptions": len(self._subs),
                "batches_pushed": self.batches_pushed,
                "events_pushed": self.events_pushed,
                "alerts_queued": len(self.alerts),
                "alerts_dropped": self.alerts_dropped,
                "per_query": [sub.stats() for sub in self._subs.values()],
            }

    # -- incremental evaluation ---------------------------------------------

    def _push_sub(
        self,
        sub: Subscription,
        events: Sequence[SystemEvent],
        block: ColumnBlock,
        started: Optional[float],
    ) -> List[Alert]:
        # Positions index ``events``, so windows and alerts hold the very
        # objects that were pushed.
        lookup = self.registry.get
        every = range(len(events))
        deltas: List[List[SystemEvent]] = [
            [events[i] for i in kernel.select(block, every, lookup)]
            for kernel in sub.kernels
        ]

        # The stream high-water mark advances with every pushed event —
        # matched or not — so an idle pattern's window still slides.
        if block.max_time > sub.high_water:
            sub.high_water = block.max_time
        cutoff = sub.cutoff

        # Evict before snapshotting the pre-batch windows: an event that
        # just slid out of horizon must not pair with this batch's matches.
        evicted = sum(window.evict(cutoff) for window in sub.windows)
        if evicted:
            sub.events_evicted += evicted
            sub._evicted_since_prune += evicted
            live = sum(len(window.events) for window in sub.windows)
            if sub.seen and sub._evicted_since_prune >= max(64, live):
                sub.prune_seen()
        old_ids: List[Set[int]] = [set(w.events) for w in sub.windows]

        changed: List[int] = []
        for i, delta in enumerate(deltas):
            live = [e for e in delta if e.start_time > cutoff]
            if len(live) != len(delta):
                deltas[i] = live
            if live:
                changed.append(i)
                sub.events_matched += len(live)
                for event in live:
                    sub.windows[i].add(event)
        if not changed:
            return []

        # One delta term per changed dependency-graph node: pattern k's new
        # events against post-batch windows before k and pre-batch windows
        # after k, so every new tuple is produced exactly once.
        alerts: List[Alert] = []
        for k in changed:
            for row in self._delta_term(sub, k, deltas[k], old_ids):
                alert = self._emit(sub, row, started)
                if alert is not None:
                    alerts.append(alert)
        return alerts

    def _delta_term(
        self,
        sub: Subscription,
        k: int,
        delta: List[SystemEvent],
        old_ids: List[Set[int]],
    ) -> List[Tuple[SystemEvent, ...]]:
        """Join pattern ``k``'s new events through the other windows.

        Returns fully-bound rows ordered by pattern index (the TupleSet
        join sorts combined patterns, so once every pattern is joined the
        row layout is exactly pattern order).
        """
        ctx = sub.ctx
        entity_of = self.registry.get
        bound = TupleSet.from_events(k, delta)
        remaining = [p.index for p in ctx.patterns if p.index != k]
        applied: Set[object] = set()

        # Relationships whose both endpoints are the seed pattern (entity
        # reuse inside one pattern) never ride a join; filter them now.
        self_attr, self_temp = unapplied_relationships(ctx, {k}, applied)
        if self_attr or self_temp:
            bound = bound.filter(self_attr, self_temp, entity_of)
            applied.update(self_attr, self_temp)
            if not bound.rows:
                return []

        def rels_with_bound(j: int, bound_set: Set[int]):
            return unapplied_relationships(ctx, bound_set | {j}, applied)

        while remaining:
            bound_set = set(bound.patterns)
            # Join connected patterns first (their relationships prune);
            # disconnected ones fall back to a cross product at the tail.
            remaining.sort(
                key=lambda j: -sum(
                    len(rels) for rels in rels_with_bound(j, bound_set)
                )
            )
            j = remaining.pop(0)
            attr_rels, temp_rels = rels_with_bound(j, bound_set)
            allowed = (
                sub.windows[j].events.values()
                if j < k
                else [
                    e
                    for eid, e in sub.windows[j].events.items()
                    if eid in old_ids[j]
                ]
            )
            candidates = self._narrow_candidates(
                sub, j, list(allowed), attr_rels, temp_rels, bound
            )
            if not candidates:
                return []
            bound = bound.join(
                TupleSet.from_events(j, candidates),
                attr_rels,
                temp_rels,
                entity_of,
            )
            applied.update(attr_rels, temp_rels)
            if not bound.rows:
                return []
        return bound.rows

    def _narrow_candidates(
        self,
        sub: Subscription,
        j: int,
        candidates: List[SystemEvent],
        attr_rels,
        temp_rels,
        bound: TupleSet,
    ) -> List[SystemEvent]:
        """The scheduler's narrowed re-query, answered from a window.

        Every relationship between pattern ``j`` and an already-bound
        pattern narrows ``j``'s data query exactly as the batch scheduler's
        constrained execution would
        (:func:`~repro.engine.data_query.constrain_by_bound`); the narrowed
        filter compiles to a kernel and prunes the window candidates before
        the join (the join re-checks exactly, so narrowing only has to be
        sound).
        """
        if not candidates or (not attr_rels and not temp_rels):
            return candidates
        lookup = self.registry.get
        query = sub.queries[j]
        narrowed, _ = constrain_by_bound(
            query, attr_rels, temp_rels, bound.events_of, lookup
        )
        if narrowed is query:
            return candidates
        kernel = kernel_for(narrowed.filter)
        if kernel.always_false:
            return []
        block = ColumnBlock.from_events(candidates)
        return [
            candidates[i]
            for i in kernel.select(block, range(len(candidates)), lookup)
        ]

    def _emit(
        self,
        sub: Subscription,
        events: Tuple[SystemEvent, ...],
        started: Optional[float],
    ) -> Optional[Alert]:
        key = tuple(e.event_id for e in events)
        if key in sub.seen:
            return None
        sub.seen.add(key)
        alert = Alert(
            query=sub.name,
            key=key,
            events=events,
            time=max(e.start_time for e in events),
            latency_s=(
                time.perf_counter() - started if started is not None else None
            ),
        )
        sub.alerts_emitted += 1
        _M_ALERTS.inc()
        if alert.latency_s is not None:
            _M_ALERT_LATENCY.observe(alert.latency_s)
        if len(self.alerts) == self.alerts.maxlen:
            self.alerts_dropped += 1
            _M_ALERTS_DROPPED.inc()
        self.alerts.append(alert)
        if sub.callback is not None:
            try:
                sub.callback(alert)
            except Exception:
                sub.callback_errors += 1
        return alert


__all__ = [
    "Alert",
    "ContinuousError",
    "ContinuousQueryEngine",
    "Subscription",
    "DEFAULT_WINDOW_S",
    "DEFAULT_MAX_SUBSCRIPTIONS",
    "DEFAULT_ALERT_QUEUE",
]
