"""Typed column blocks: the native representation of stored events.

The hot tier used to keep a Python list of :class:`SystemEvent` objects and
evaluate filters one closure call per row; only the cold tier stored
columns.  A :class:`ColumnBlock` makes the columnar layout the physical
format everywhere (ISSUE 6): each partition/segment/decoded cold segment
holds append-only typed columns —

* ``array('q')`` int64 columns for event/subject/object ids, seqs, amounts
  and failure codes;
* ``array('d')`` float64 columns for start/end times;
* one-byte dictionary codes for operation and object type (both enums are
  closed: 11 operations, 5 entity types share process-wide code tables);
* a per-block agent dictionary (``agent_id -> code``), byte-wide until a
  block sees a 257th distinct agent and then promoted to ``array('q')``.

:class:`SystemEvent` becomes a *lazily materialized view*: ``event_at``
rebuilds the frozen dataclass from the columns on first access and caches
it per position, so scans that only narrow (scheduler constrained
execution, cache probes) never construct row objects, while repeated
materialization of the same survivors is paid once.

Batch kernels (:mod:`repro.storage.kernels`) evaluate whole blocks against
these columns and return *selections* — position index lists —
(:class:`Selection`); a store-level scan is a :class:`BlockScanResult`, a
set of per-block selections that can answer the engine's narrowing
questions (distinct field values, time bounds, join keys) straight from
the columns and materializes rows only for final results.

A block is also the unit a *batch* travels in.  A stream commit builds one
block from its rows (:meth:`ColumnBlock.from_events`), and that block — or
one decoded from a WAL record, a snapshot frame or a shard frame — enters
a table's block through :meth:`ColumnBlock.extend_rows`: a slice
``extend`` (or a gather, for a sparse position list) per column, with the
agent dictionaries merged and the summary fields moved once per batch.
:meth:`ColumnBlock.append` is the single-row form, for ``emit``.

Concurrency: blocks inherit the single-writer/many-readers contract of the
tables that own them.  Appends write every column before the owner
publishes the rows (the table's visibility bump), ``bytearray``/``array``
appends and extends are atomic under the GIL, and the rare
dictionary/universe updates publish immutable copies (copy-on-write) so
readers never iterate a mutating container.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent

# Closed-enum dictionaries, shared process-wide: codes are the enums'
# definition order, so every block and every cold segment agrees on them.
OP_BY_CODE: Tuple[Operation, ...] = tuple(Operation)
OP_CODE: Dict[Operation, int] = {op: i for i, op in enumerate(OP_BY_CODE)}
OP_VALUE_BY_CODE: Tuple[str, ...] = tuple(op.value for op in OP_BY_CODE)

OTYPE_BY_CODE: Tuple[EntityType, ...] = tuple(EntityType)
OTYPE_CODE: Dict[EntityType, int] = {t: i for i, t in enumerate(OTYPE_BY_CODE)}
OTYPE_VALUE_BY_CODE: Tuple[str, ...] = tuple(t.value for t in OTYPE_BY_CODE)

# Block generations: a process-wide monotone counter stamped at block
# construction.  A rebuilt partition (cold migration, remove_events) gets a
# fresh block and therefore a fresh generation, which is what the shared
# scan-result cache keys its entries on — a selection cached against one
# generation can never be served for a different physical block.
_generations = itertools.count(1)

Positions = Union[range, List[int]]

AgentCodes = Union[bytearray, "array[int]"]


class ColumnBlock:
    """Append-only typed columns for one table/segment of events."""

    __slots__ = (
        "event_ids",
        "agent_codes",
        "seqs",
        "t0",
        "t1",
        "op_codes",
        "subject_ids",
        "object_ids",
        "otype_codes",
        "amounts",
        "failure_codes",
        "agents",
        "_agent_code",
        "op_universe",
        "otype_universe",
        "time_sorted",
        "min_time",
        "max_time",
        "max_event_id",
        "generation",
        "_rows",
        "__weakref__",  # the cold tier's one-live-block-per-segment map
    )

    def __init__(self) -> None:
        self.event_ids: "array[int]" = array("q")
        self.agent_codes: AgentCodes = bytearray()
        self.seqs: "array[int]" = array("q")
        self.t0: "array[float]" = array("d")
        self.t1: "array[float]" = array("d")
        self.op_codes = bytearray()
        self.subject_ids: "array[int]" = array("q")
        self.object_ids: "array[int]" = array("q")
        self.otype_codes = bytearray()
        self.amounts: "array[int]" = array("q")
        self.failure_codes: "array[int]" = array("q")
        # Per-block agent dictionary; both directions published
        # copy-on-write so concurrent readers never see a mutating dict.
        self.agents: Tuple[int, ...] = ()
        self._agent_code: Dict[int, int] = {}
        # Distinct op/otype codes this block has ever held (immutable
        # snapshots): the hot-tier generalization of the cold zone maps'
        # vacuity hoisting — a constraint the whole block satisfies (or a
        # code the block lacks) skips its per-row pass entirely.
        self.op_universe: FrozenSet[int] = frozenset()
        self.otype_universe: FrozenSet[int] = frozenset()
        self.time_sorted = True
        self.min_time: Optional[float] = None
        self.max_time: Optional[float] = None
        self.max_event_id = 0
        self.generation = next(_generations)
        self._rows: List[Optional[SystemEvent]] = []

    # -- writing -----------------------------------------------------------

    def append(self, event: SystemEvent) -> int:
        """Append one row; returns its position.  Single writer only."""
        start = event.start_time
        t0 = self.t0
        if t0 and start < t0[-1]:
            self.time_sorted = False
        agent_code = self._agent_code.get(event.agent_id)
        if agent_code is None:
            agent_code = self._add_agent(event.agent_id)
        op_code = OP_CODE[event.operation]
        if op_code not in self.op_universe:
            self.op_universe |= {op_code}
        otype_code = OTYPE_CODE[event.object_type]
        if otype_code not in self.otype_universe:
            self.otype_universe |= {otype_code}
        position = len(self.event_ids)
        self.event_ids.append(event.event_id)
        self.agent_codes.append(agent_code)
        self.seqs.append(event.seq)
        t0.append(start)
        self.t1.append(event.end_time)
        self.op_codes.append(op_code)
        self.subject_ids.append(event.subject_id)
        self.object_ids.append(event.object_id)
        self.otype_codes.append(otype_code)
        self.amounts.append(event.amount)
        self.failure_codes.append(event.failure_code)
        self._rows.append(None)
        if self.min_time is None or start < self.min_time:
            self.min_time = start
        if self.max_time is None or start > self.max_time:
            self.max_time = start
        if event.event_id > self.max_event_id:
            self.max_event_id = event.event_id
        return position

    def _add_agent(self, agent_id: int) -> int:
        code = len(self.agents)
        if code == 256 and isinstance(self.agent_codes, bytearray):
            # 257th distinct agent: promote the byte column to a wide int64
            # column — 'q' like every other int column, so the width is the
            # same on every platform ('l' is 4 bytes on some ABIs).  (list()
            # first: array('q', bytearray) would reinterpret the raw bytes
            # as machine words, not one code per row.)  The swap publishes a
            # new object; readers hold either column, both agree on every
            # published position.
            self.agent_codes = array("q", list(self.agent_codes))
        self.agents = self.agents + (agent_id,)
        mapping = dict(self._agent_code)
        mapping[agent_id] = code
        self._agent_code = mapping
        return code

    def extend_rows(
        self, source: "ColumnBlock", positions: Optional[Positions] = None
    ) -> None:
        """Append rows ``positions`` of ``source`` (default: all of them).

        The bulk write primitive: a batch enters a block column by column —
        one slice ``extend`` per column for a contiguous range, one gather
        per column for a sparse position list — and the summary fields
        (agent dictionary, op/otype universes, ``time_sorted``, min/max
        time, ``max_event_id``) move once per batch, to exactly what
        :meth:`append` row by row would have left.  ``positions`` is
        ascending; ``source`` is sealed (or was appended to), so its own
        summary can stand in for a pass over the rows when every row is
        taken.  Single writer only; the owner publishes the rows afterwards.
        """
        if positions is None:
            positions = range(len(source))
        count = len(positions)
        if not count:
            return
        if type(positions) is range and positions.step == 1:
            lo, hi = positions.start, positions.stop

            def take(column):
                return column[lo:hi]

        else:

            def take(column):
                return [column[p] for p in positions]

        event_ids = take(source.event_ids)
        times = take(source.t0)
        op_codes = take(source.op_codes)
        otype_codes = take(source.otype_codes)
        if count == len(source):
            in_order = source.time_sorted
            first, last = source.min_time, source.max_time
            top_id = source.max_event_id
            ops, otypes = source.op_universe, source.otype_universe
        else:
            ordered = sorted(times)
            in_order = list(times) == ordered
            first, last = ordered[0], ordered[-1]
            top_id = max(event_ids)
            ops, otypes = frozenset(op_codes), frozenset(otype_codes)
        own_times = self.t0
        if not in_order or (own_times and times[0] < own_times[-1]):
            self.time_sorted = False
        if not ops <= self.op_universe:
            self.op_universe |= ops
        if not otypes <= self.otype_universe:
            self.otype_universe |= otypes
        agent_codes = self._merged_agent_codes(source, take(source.agent_codes))
        column = self.agent_codes
        if len(self.agents) > 256 and isinstance(column, bytearray):
            # The batch brought the 257th agent: promote (see _add_agent).
            column = array("q", list(column))
        column.extend(agent_codes)
        self.agent_codes = column
        self.event_ids.extend(event_ids)
        self.seqs.extend(take(source.seqs))
        own_times.extend(times)
        self.t1.extend(take(source.t1))
        self.op_codes.extend(op_codes)
        self.subject_ids.extend(take(source.subject_ids))
        self.object_ids.extend(take(source.object_ids))
        self.otype_codes.extend(otype_codes)
        self.amounts.extend(take(source.amounts))
        self.failure_codes.extend(take(source.failure_codes))
        self._rows.extend([None] * count)
        if self.min_time is None or first < self.min_time:
            self.min_time = first
        if self.max_time is None or last > self.max_time:
            self.max_time = last
        if top_id > self.max_event_id:
            self.max_event_id = top_id

    def _merged_agent_codes(
        self, source: "ColumnBlock", codes: Union[AgentCodes, List[int]]
    ) -> Union[bytearray, List[int]]:
        """``codes`` of ``source`` re-expressed in this block's dictionary,
        which gains the agents it lacks in the order the rows name them."""
        if not isinstance(codes, bytearray):
            # bytearray.extend would read an array's raw bytes, not its items.
            codes = list(codes)
        mine = self._agent_code
        theirs = source.agents
        fresh: List[int] = []
        remap: Dict[int, int] = {}
        for code in dict.fromkeys(codes):
            agent = theirs[code]
            own = mine.get(agent)
            if own is None:
                own = len(mine) + len(fresh)
                fresh.append(agent)
            remap[code] = own
        if fresh:
            base = len(mine)
            mapping = dict(mine)
            mapping.update((agent, base + i) for i, agent in enumerate(fresh))
            self.agents = self.agents + tuple(fresh)
            self._agent_code = mapping
        if all(code == own for code, own in remap.items()):
            return codes
        if isinstance(codes, bytearray) and len(self.agents) <= 256:
            table = bytearray(range(256))
            for code, own in remap.items():
                table[code] = own
            return codes.translate(table)
        return [remap[code] for code in codes]

    @classmethod
    def from_events(cls, events: Sequence[SystemEvent]) -> "ColumnBlock":
        """Build a block from rows in one pass per column.

        The bulk counterpart of :meth:`append` for callers that hold a
        whole batch of rows (a stream commit, a cold segment): a
        comprehension per column instead of a dozen appends per row.
        """
        block = cls()
        block.event_ids = array("q", [e.event_id for e in events])
        block.seqs = array("q", [e.seq for e in events])
        block.t0 = array("d", [e.start_time for e in events])
        block.t1 = array("d", [e.end_time for e in events])
        block.op_codes = bytearray([OP_CODE[e.operation] for e in events])
        block.subject_ids = array("q", [e.subject_id for e in events])
        block.object_ids = array("q", [e.object_id for e in events])
        block.otype_codes = bytearray([OTYPE_CODE[e.object_type] for e in events])
        block.amounts = array("q", [e.amount for e in events])
        block.failure_codes = array("q", [e.failure_code for e in events])
        block.set_agents([e.agent_id for e in events])
        block.seal()
        return block

    def set_agents(self, agent_ids: Sequence[int]) -> None:
        """Dictionary-encode a whole agent-id column (codes in first-seen
        order; byte-wide unless the column names more than 256 agents)."""
        agents = tuple(dict.fromkeys(agent_ids))
        mapping = {agent: code for code, agent in enumerate(agents)}
        codes = [mapping[agent] for agent in agent_ids]
        self.agents = agents
        self._agent_code = mapping
        self.agent_codes = (
            bytearray(codes) if len(agents) <= 256 else array("q", codes)
        )

    def seal(self) -> None:
        """Derive the summary fields from columns that were filled in bulk
        (:meth:`append` maintains them row by row)."""
        n = len(self.event_ids)
        self.op_universe = frozenset(self.op_codes)
        self.otype_universe = frozenset(self.otype_codes)
        self._agent_code = {agent: code for code, agent in enumerate(self.agents)}
        self._rows = [None] * n
        times = self.t0.tolist()
        self.time_sorted = times == sorted(times)
        if n:
            self.min_time, self.max_time = (
                (times[0], times[-1])
                if self.time_sorted
                else (min(times), max(times))
            )
            self.max_event_id = max(self.event_ids)

    # -- materialization ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def rows_materialized(self) -> bool:
        """True when any row view has been built (a laziness test probe)."""
        return any(row is not None for row in self._rows)

    def event_at(self, position: int) -> SystemEvent:
        """The row view at ``position``, built from the columns on demand.

        A benign race may rebuild the same position twice; both results are
        equal frozen dataclasses, so whichever assignment wins is correct.
        """
        row = self._rows[position]
        if row is None:
            row = SystemEvent(
                event_id=self.event_ids[position],
                agent_id=self.agents[self.agent_codes[position]],
                seq=self.seqs[position],
                start_time=self.t0[position],
                end_time=self.t1[position],
                operation=OP_BY_CODE[self.op_codes[position]],
                subject_id=self.subject_ids[position],
                object_id=self.object_ids[position],
                object_type=OTYPE_BY_CODE[self.otype_codes[position]],
                amount=self.amounts[position],
                failure_code=self.failure_codes[position],
            )
            self._rows[position] = row
        return row

    def events_at(self, positions: Iterable[int]) -> List[SystemEvent]:
        event_at = self.event_at
        return [event_at(p) for p in positions]

    def events(self, stop: Optional[int] = None) -> List[SystemEvent]:
        """Materialize positions ``[0, stop)`` (defaults to the whole block)."""
        n = len(self.event_ids) if stop is None else stop
        return self.events_at(range(n))

    # -- columnar access helpers ------------------------------------------

    def window_bounds(
        self, start: Optional[float], end: Optional[float], stop: int
    ) -> Tuple[int, int]:
        """``[lo, hi)`` positions with ``start <= t0 < end`` among ``[0, stop)``.

        Only meaningful while :attr:`time_sorted`; callers bound the bisect
        by their visibility snapshot (``stop``) so a concurrent append that
        breaks sortedness past the snapshot cannot skew the search.
        """
        t0 = self.t0
        lo = 0 if start is None else bisect_left(t0, start, 0, stop)
        hi = stop if end is None else bisect_left(t0, end, lo, stop)
        return lo, hi

    def within(self, start: Optional[float], end: Optional[float]) -> bool:
        """True when every row's start time lies in ``[start, end)``: a
        window pass over this block cannot drop anything (an empty block
        holds no row to drop).  ``min_time``/``max_time`` only ever widen,
        and a table publishes rows after the append that moved them, so
        this holds for any visibility snapshot taken before the call."""
        if self.min_time is None or self.max_time is None:
            return True
        return (start is None or start <= self.min_time) and (
            end is None or self.max_time < end
        )

    def top_event_id(self, positions: Optional[Positions] = None) -> int:
        """Highest event id among rows ``positions`` (default: all); 0 for none."""
        if positions is None:
            return self.max_event_id
        event_ids = self.event_ids
        return max((event_ids[p] for p in positions), default=0)

    def agent_code_set(
        self, agent_ids: FrozenSet[int]
    ) -> Optional[FrozenSet[int]]:
        """Dictionary codes matching ``agent_ids``; None when vacuous.

        Vacuous means every agent this block has seen is in the filter set,
        so the per-row pass cannot drop anything and is skipped (the hot
        analogue of the cold zone maps' agent-superset hoisting).
        """
        mapping = self._agent_code
        if all(agent in agent_ids for agent in mapping):
            return None
        return frozenset(
            code for agent, code in mapping.items() if agent in agent_ids
        )

    def order_positions(self, positions: Positions) -> List[int]:
        """Positions sorted by the result order, (start_time, event_id)."""
        t0 = self.t0
        event_ids = self.event_ids
        return sorted(positions, key=lambda p: (t0[p], event_ids[p]))


# Column-level event attribute getters, mirroring the alias table of
# SystemEvent.attribute / model.events._EVENT_ATTRIBUTE_GETTERS: the same
# names resolve to the same values, read from columns instead of a row.
_BLOCK_ATTRIBUTE_GETTERS: Dict[str, Callable[[ColumnBlock, int], object]] = {
    "id": lambda b, i: b.event_ids[i],
    "event_id": lambda b, i: b.event_ids[i],
    "agentid": lambda b, i: b.agents[b.agent_codes[i]],
    "agent_id": lambda b, i: b.agents[b.agent_codes[i]],
    "seq": lambda b, i: b.seqs[i],
    "sequence": lambda b, i: b.seqs[i],
    "starttime": lambda b, i: b.t0[i],
    "start_time": lambda b, i: b.t0[i],
    "endtime": lambda b, i: b.t1[i],
    "end_time": lambda b, i: b.t1[i],
    "optype": lambda b, i: OP_VALUE_BY_CODE[b.op_codes[i]],
    "operation": lambda b, i: OP_VALUE_BY_CODE[b.op_codes[i]],
    "amount": lambda b, i: b.amounts[i],
    "access": lambda b, i: OP_VALUE_BY_CODE[b.op_codes[i]],
    "failure_code": lambda b, i: b.failure_codes[i],
    "failurecode": lambda b, i: b.failure_codes[i],
    "subject_id": lambda b, i: b.subject_ids[i],
    "object_id": lambda b, i: b.object_ids[i],
}


def block_attribute_getter(
    name: str,
) -> Optional[Callable[[ColumnBlock, int], object]]:
    """Column getter behind ``SystemEvent.attribute(name)``, or ``None``."""
    return _BLOCK_ATTRIBUTE_GETTERS.get(name.strip().lower())


# The event attributes that *are* a fixed-width numeric column (``array('q')``
# or ``array('d')``): a comparison with a numeric literal can run over the
# raw array.  Same aliases, same values as the getters above.
_BLOCK_NUMERIC_COLUMNS: Dict[str, str] = {
    "id": "event_ids",
    "event_id": "event_ids",
    "seq": "seqs",
    "sequence": "seqs",
    "starttime": "t0",
    "start_time": "t0",
    "endtime": "t1",
    "end_time": "t1",
    "amount": "amounts",
    "failure_code": "failure_codes",
    "failurecode": "failure_codes",
    "subject_id": "subject_ids",
    "object_id": "object_ids",
}


def block_numeric_column(name: str) -> Optional[str]:
    """Name of the raw numeric column behind event attribute ``name``, or
    ``None`` when the attribute is decoded (agent, operation) or unknown."""
    return _BLOCK_NUMERIC_COLUMNS.get(name.strip().lower())


class Selection:
    """Survivor positions of one block scan, in (start_time, event_id) order."""

    __slots__ = ("block", "positions")

    def __init__(self, block: ColumnBlock, positions: Sequence[int]) -> None:
        self.block = block
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def events(self) -> List[SystemEvent]:
        return self.block.events_at(self.positions)

    def committed_only(self, watermark: int) -> "Selection":
        """Drop rows above a store's committed-event watermark.

        Cached selections must *not* bake the watermark in — it moves
        between scans (a batch publishes per partition before the store
        raises it) — so every scan applies its own snapshot here.
        """
        if self.block.max_event_id <= watermark:
            return self
        event_ids = self.block.event_ids
        return Selection(
            self.block, [p for p in self.positions if event_ids[p] <= watermark]
        )


_Handle = Tuple[float, int, ColumnBlock, int]  # (t0, event_id, block, pos)


def _norm(value: object) -> object:
    return value.lower() if isinstance(value, str) else value


class BlockScanResult:
    """A store scan as per-block selections; rows materialize on demand.

    This is what schedulers and caches pass around instead of event lists:
    ``ref_values``/``time_bounds`` answer constrained-execution narrowing
    from the columns, ``field_getter``+``handles`` feed hash-join key
    extraction, and :meth:`events` materializes the merged, (start_time,
    event_id)-sorted row list exactly once, for final results.
    """

    __slots__ = ("parts", "dedup", "completeness", "_handles", "_events")

    def __init__(self, parts: Sequence[Selection], dedup: bool = False) -> None:
        self.parts = list(parts)
        # Tiered scans can reach one event in both tiers during a
        # migration hand-off; their results dedup by event id on merge.
        self.dedup = dedup
        # Degraded sharded scans attach a ScanCompleteness annotation
        # here (missing shard ids, estimated missed rows); None means the
        # scan answered from every shard.
        self.completeness = None
        self._handles: Optional[List[_Handle]] = None
        self._events: Optional[List[SystemEvent]] = None

    def handles(self) -> List[_Handle]:
        """Merged (t0, event_id, block, position) keys, globally sorted.

        Each part is already sorted by (start_time, event_id), so timsort
        sees presorted runs; duplicates (equal (t0, id) keys from two
        tiers) collapse to their first copy when :attr:`dedup` is set.
        """
        handles = self._handles
        if handles is None:
            handles = []
            for part in self.parts:
                t0 = part.block.t0
                event_ids = part.block.event_ids
                block = part.block
                handles.extend(
                    (t0[p], event_ids[p], block, p) for p in part.positions
                )
            if len(self.parts) > 1:
                handles.sort(key=lambda h: (h[0], h[1]))
            if self.dedup and handles:
                deduped = [handles[0]]
                last = handles[0]
                for h in handles[1:]:
                    if h[0] != last[0] or h[1] != last[1]:
                        deduped.append(h)
                        last = h
                handles = deduped
            self._handles = handles
        return handles

    def __len__(self) -> int:
        return len(self.handles())

    def __iter__(self) -> Iterator[SystemEvent]:
        return iter(self.events())

    def events(self) -> List[SystemEvent]:
        events = self._events
        if events is None:
            events = [block.event_at(p) for _, _, block, p in self.handles()]
            self._events = events
        return events

    # -- columnar narrowing ------------------------------------------------

    def time_bounds(self) -> Optional[Tuple[float, float]]:
        """(min, max) start time of the survivors, from the columns."""
        tmin: Optional[float] = None
        tmax: Optional[float] = None
        for part in self.parts:
            positions = part.positions
            if not len(positions):
                continue
            t0 = part.block.t0
            first = t0[positions[0]]  # parts are (t0, id)-sorted
            last = t0[positions[-1]]
            if tmin is None or first < tmin:
                tmin = first
            if tmax is None or last > tmax:
                tmax = last
        if tmin is None or tmax is None:
            return None
        return tmin, tmax

    def ref_values(self, ref, entity_of) -> FrozenSet[object]:
        """Distinct normalized values of ``ref`` across the survivors.

        Matches :func:`repro.engine.data_query.values_of` on the
        materialized rows: entity attributes resolve once per distinct
        entity id (not once per row), event attributes read their column.
        """
        role = ref.role
        attr = ref.attr
        out: set = set()
        if role in ("subject", "object"):
            ids: set = set()
            for part in self.parts:
                col = (
                    part.block.subject_ids
                    if role == "subject"
                    else part.block.object_ids
                )
                ids.update(col[p] for p in part.positions)
            if attr == "id":  # the column already holds the registry ids
                return frozenset(ids)
            for entity_id in ids:
                out.add(_norm(getattr(entity_of(entity_id), attr)))
            return frozenset(out)
        getter = block_attribute_getter(attr)
        if getter is None:
            if any(len(part.positions) for part in self.parts):
                # same failure the row path raises on its first event
                raise AttributeError(f"event has no attribute {attr!r}")
            return frozenset()
        for part in self.parts:
            block = part.block
            out.update(_norm(getter(block, p)) for p in part.positions)
        return frozenset(out)

    def field_getter(
        self, ref, entity_of
    ) -> Optional[Callable[[_Handle], object]]:
        """Per-handle join-key extractor for ``ref``, or None if unsupported.

        Entity attributes memoize per distinct entity id; event attributes
        read columns.  ``None`` (an alias ``SystemEvent.attribute`` would
        reject) tells the caller to fall back to the row-based path, which
        raises exactly as materialized rows would.
        """
        attr = ref.attr
        if ref.role == "event":
            getter = block_attribute_getter(attr)
            if getter is None:
                return None
            return lambda h: getter(h[2], h[3])
        subject = ref.role == "subject"
        if attr == "id":
            if subject:
                return lambda h: h[2].subject_ids[h[3]]
            return lambda h: h[2].object_ids[h[3]]
        memo: Dict[int, object] = {}

        def entity_value(h: _Handle) -> object:
            block = h[2]
            entity_id = (
                block.subject_ids[h[3]] if subject else block.object_ids[h[3]]
            )
            try:
                return memo[entity_id]
            except KeyError:
                value = getattr(entity_of(entity_id), attr)
                memo[entity_id] = value
                return value

        return entity_value

    @staticmethod
    def event_of(handle: _Handle) -> SystemEvent:
        return handle[2].event_at(handle[3])
