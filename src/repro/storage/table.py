"""Append-only event table: the unit of physical storage.

One :class:`EventTable` backs one partition of the AIQL-optimized store, the
single monolithic heap of the flat (PostgreSQL-like) store, and one segment
of the MPP store.  Rows live in a typed :class:`~repro.storage.blocks.
ColumnBlock` (ISSUE 6) — ``array``-backed id/time/seq columns plus
dictionary-encoded agent/op/object-type codes — in arrival order, with

* a sorted start-time index for temporal range scans on out-of-order data
  (time-ordered blocks answer window probes by bisecting the raw time
  column directly),
* subject-id and object-id postings lists (the relational analogue of the
  foreign-key indexes on the events table).

:class:`SystemEvent` objects are a lazily materialized view over the block:
scans narrow on columns and only survivors (or explicit row accesses)
construct events.  The table itself is semantics-agnostic; domain
optimizations (partition pruning, spatial/temporal parallelism) live above
it.

Visibility model (single writer, many readers): rows and index postings are
staged first and *published* by a single monotone ``_visible`` bump, so a
reader never observes part of a batch.  :meth:`append` publishes per event
(the exclusive ``emit`` path); :meth:`append_block` is the one batch path:
a batch arrives as a :class:`~repro.storage.blocks.ColumnBlock` (built once
by the commit, or decoded from a WAL record, a snapshot frame or a shard
frame) and enters the table as column extends — no row object is built —
with the postings and the time index derived from the new column tails and
one bump publishing the lot, which is what makes a streaming commit atomic
with respect to concurrent scans of this partition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
)

from repro.model.entities import Entity, EntityType
from repro.model.events import SystemEvent
from repro.storage.blocks import ColumnBlock, Positions, Selection
from repro.storage.filters import EventFilter, top_level_equalities
from repro.storage.index import EntityAttributeIndex, SortedTimeIndex
from repro.storage.kernels import ScanKernel, kernel_for, kernels_enabled


class EventTable:
    """Columnar in-memory event heap with secondary indexes."""

    def __init__(self, entity_lookup: Callable[[int], Entity]) -> None:
        self._entity_lookup = entity_lookup
        self._block = ColumnBlock()
        self._time_index = SortedTimeIndex()
        self._by_subject: Dict[int, List[int]] = defaultdict(list)
        self._by_object: Dict[int, List[int]] = defaultdict(list)
        # Readers only see positions < _visible; the writer stages rows and
        # index entries first, then publishes them with one assignment (an
        # atomic int store under the GIL), so a batch is all-or-nothing.
        self._visible = 0

    @property
    def block(self) -> ColumnBlock:
        """The typed column block backing this table (stable identity)."""
        return self._block

    @property
    def min_time(self) -> Optional[float]:
        return self._block.min_time

    @property
    def max_time(self) -> Optional[float]:
        return self._block.max_time

    def append(self, event: SystemEvent) -> None:
        """Append and publish one row (the single-event ``emit`` path)."""
        position = self._block.append(event)
        self._time_index.add(event.start_time, position)
        self._by_subject[event.subject_id].append(position)
        self._by_object[event.object_id].append(position)
        self._visible = position + 1

    def append_block(
        self, source: ColumnBlock, positions: Optional[Positions] = None
    ) -> None:
        """Append rows ``positions`` of ``source`` (default: all) and publish
        them atomically: the one batch path into a table.

        The rows enter the block as columns
        (:meth:`~repro.storage.blocks.ColumnBlock.extend_rows`), the
        postings and the time index are built from the new column tails,
        and one visibility bump publishes the lot.
        """
        block = self._block
        base = len(block)
        block.extend_rows(source, positions)
        end = len(block)
        # One int object per position, shared by both postings and the
        # time index (as the row path shares it): three would cost 56
        # bytes a row.
        rows = list(range(base, end))
        by_subject = self._by_subject
        for position, entity_id in zip(rows, block.subject_ids[base:end]):
            by_subject[entity_id].append(position)
        by_object = self._by_object
        for position, entity_id in zip(rows, block.object_ids[base:end]):
            by_object[entity_id].append(position)
        self._time_index.extend(block.t0[base:end], rows)
        self._visible = end

    def without(self, event_ids: AbstractSet[int]) -> Optional["EventTable"]:
        """A fresh table of the visible rows whose id is not in
        ``event_ids``, or ``None`` when no row is (the cold hand-off)."""
        visible = self._visible
        column = self._block.event_ids
        keep = [p for p in range(visible) if column[p] not in event_ids]
        if len(keep) == visible:
            return None
        fresh = EventTable(self._entity_lookup)
        fresh.append_block(self._block, keep)
        return fresh

    def __len__(self) -> int:
        return self._visible

    def __iter__(self) -> Iterator[SystemEvent]:
        return iter(self._block.events(self._visible))

    def events_at(self, positions: Iterable[int]) -> List[SystemEvent]:
        return self._block.events_at(positions)

    def _candidate_positions(
        self,
        flt: EventFilter,
        entity_index: Optional[EntityAttributeIndex],
        visible: Optional[int] = None,
    ) -> Positions:
        """Pick the cheapest access path for a filter.

        Preference order: explicit id sets from the scheduler, entity
        attribute indexes, the sorted time column when the window cuts into
        the table (bisected directly while the block is time-ordered, else
        the time index), then a full scan.
        Positions at or beyond ``visible`` (defaults to the current
        publication point) are staged-but-uncommitted batch rows and are
        never returned.
        """
        if visible is None:
            visible = self._visible
        block = self._block
        position_sets: List[Set[int]] = []

        def positions_for_ids(
            ids: FrozenSet[int], postings: Dict[int, List[int]]
        ) -> Set[int]:
            out: Set[int] = set()
            for entity_id in ids:
                out.update(postings.get(entity_id, ()))
            return out

        if flt.subject_ids is not None:
            position_sets.append(positions_for_ids(flt.subject_ids, self._by_subject))
        if flt.object_ids is not None:
            position_sets.append(positions_for_ids(flt.object_ids, self._by_object))

        if entity_index is not None:
            subj_cands = entity_index.candidates(
                EntityType.PROCESS, top_level_equalities(flt.subject_pred)
            )
            if subj_cands is not None:
                position_sets.append(
                    positions_for_ids(subj_cands, self._by_subject)
                )
            if flt.object_type is not None:
                obj_cands = entity_index.candidates(
                    flt.object_type, top_level_equalities(flt.object_pred)
                )
                if obj_cands is not None:
                    position_sets.append(
                        positions_for_ids(obj_cands, self._by_object)
                    )

        if position_sets:
            candidates = set.intersection(*position_sets)
            candidates = {p for p in candidates if p < visible}
            if candidates and self._window_cuts(flt.window):
                # Constrained/cached scans narrow by id sets that may span
                # the whole partition lifetime; dropping out-of-window
                # positions here (O(|candidates|), cheaper than walking
                # the time index) keeps the scan from resolving entities
                # and evaluating predicates for stale positions.
                window = flt.window
                if block.time_sorted:
                    # Bisect the sorted time column once: the in-window
                    # region is a contiguous position range, so membership
                    # is two integer compares per candidate — no per-
                    # candidate timestamp reads at all.
                    lo, hi = block.window_bounds(
                        window.start, window.end, visible
                    )
                    candidates = {p for p in candidates if lo <= p < hi}
                else:
                    contains = window.contains
                    t0 = block.t0
                    candidates = {p for p in candidates if contains(t0[p])}
            return sorted(candidates)

        if self._window_cuts(flt.window):
            if block.time_sorted:
                lo, hi = block.window_bounds(
                    flt.window.start, flt.window.end, visible
                )
                return range(lo, hi)
            positions = self._time_index.range(flt.window.start, flt.window.end)
            return [p for p in positions if p < visible]

        # No window, or one that holds the whole table (a multi-day sweep
        # over a day partition): a contiguous range keeps the kernel's
        # byte-column passes on ``find`` hops and skips the time index.
        return range(visible)

    def _window_cuts(self, window) -> bool:
        """True when ``window`` excludes part of this table's time range."""
        return not self._block.within(window.start, window.end)

    def scan_select(
        self,
        flt: EventFilter,
        entity_index: Optional[EntityAttributeIndex] = None,
        kernel: Optional[ScanKernel] = None,
    ) -> Selection:
        """Survivor positions for ``flt``, in (start_time, event_id) order.

        The block-native scan: candidates narrow through the batch kernel
        (``ScanKernel.select``) without materializing a single row.  The
        interpreted ``flt.matches`` path remains behind ``use_kernels
        (False)`` as the differential oracle.
        """
        lookup = self._entity_lookup
        visible = self._visible  # one snapshot: the whole scan sees one prefix
        block = self._block
        if kernel is None and kernels_enabled():
            kernel = kernel_for(flt)
        if kernel is not None and kernel.always_false:
            return Selection(block, [])
        candidates = self._candidate_positions(flt, entity_index, visible)
        matched: Positions
        if kernel is not None:
            matched = kernel.select(block, candidates, lookup)
        else:
            matches = flt.matches
            event_at = block.event_at
            matched = []
            for position in candidates:
                event = event_at(position)
                subject = lookup(event.subject_id)
                obj = lookup(event.object_id)
                if matches(event, subject, obj):
                    matched.append(position)
        return Selection(block, block.order_positions(matched))

    def scan(
        self,
        flt: EventFilter,
        entity_index: Optional[EntityAttributeIndex] = None,
        kernel: Optional[ScanKernel] = None,
    ) -> List[SystemEvent]:
        """Return all events matching ``flt``, sorted by (start_time, event_id).

        Matching runs through a compiled scan kernel (one specialized
        block selection per filter, memoized on the filter fingerprint);
        stores scanning many partitions compile once and pass ``kernel``
        down.  This is :meth:`scan_select` plus row materialization.
        """
        return self.scan_select(flt, entity_index, kernel).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        """Index-free scan; the oracle for partition-pruning soundness tests."""
        lookup = self._entity_lookup
        matched = [
            event
            for event in self._block.events(self._visible)
            if flt.matches(event, lookup(event.subject_id), lookup(event.object_id))
        ]
        matched.sort(key=lambda e: (e.start_time, e.event_id))
        return matched
