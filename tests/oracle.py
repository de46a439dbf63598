"""Read helpers for tests: the scan under test and its pruning-free oracle.

``rows`` is the one read path, ``scan_columns(...).events()``.  The
oracles share no pruning, index, id narrowing or kernel with it: they walk
every stored row of the raw ``column_blocks()`` view through
``EventFilter.matches``.  Sharded stores have no raw view; their tests
compare against an in-process store fed the same batches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.model.events import SystemEvent
from repro.storage.blocks import BlockScanResult, ColumnBlock
from repro.storage.filters import EventFilter


def rows(store, flt: EventFilter, **kw) -> List[SystemEvent]:
    """``store.scan_columns(flt, **kw).events()``."""
    return store.scan_columns(flt, **kw).events()


def cold_rows(tier, flt: EventFilter) -> List[SystemEvent]:
    """A cold tier's zone-map-pruned survivors of ``flt``, as rows."""
    return BlockScanResult(tier.scan_selections(flt)).events()


def stored_rows(store) -> List[SystemEvent]:
    """Every row of ``store.column_blocks()``, in the raw view's order
    (partition key, then arrival)."""
    return [
        event
        for block, visible in store.column_blocks()
        for event in block.events(visible)
    ]


def _matching(
    blocks: Iterable[Tuple[ColumnBlock, int]],
    lookup: Callable,
    flt: EventFilter,
    committed: Optional[int] = None,
) -> List[SystemEvent]:
    """The rows of ``blocks`` that ``flt`` matches, at or below
    ``committed``, one per event id (a later block's copy wins), sorted by
    ``(start_time, event_id)``."""
    by_id: Dict[int, SystemEvent] = {}
    for block, visible in blocks:
        for event in block.events(visible):
            if committed is None or event.event_id <= committed:
                by_id[event.event_id] = event
    matched = [
        e
        for e in by_id.values()
        if flt.matches(e, lookup(e.subject_id), lookup(e.object_id))
    ]
    return sorted(matched, key=lambda e: (e.start_time, e.event_id))


def oracle_rows(store, flt: EventFilter) -> List[SystemEvent]:
    """What ``rows(store, flt)`` must return, from ``store.column_blocks()``
    alone: committed rows only, hot copies over cold ones."""
    return _matching(
        store.column_blocks(), store.registry.get, flt, store.committed
    )


def table_oracle_rows(table, flt: EventFilter) -> List[SystemEvent]:
    """:func:`oracle_rows` for one bare :class:`EventTable`."""
    return _matching([(table.block, len(table))], table._entity_lookup, flt)
