"""``add_block`` is the row-wise append, done by columns.

The reference is the single-row path that ``emit`` still uses
(``add_event`` -> ``EventTable.append`` -> ``ColumnBlock.append``): an
independent implementation that touches every column, posting and index
entry one row at a time.  A store fed the same rows in the same order as
blocks must end in the *same physical state* — columns, agent dictionary,
universes, ``time_sorted``, postings, time index — on every store, for
whole blocks, ``range`` positions and sparse position lists, and must
answer every filter the same.
"""

import sys
import threading
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.entities import EntityRegistry, EntityType
from repro.model.events import Operation, SystemEvent
from repro.model.time import DAY, TimeWindow
from repro.storage.blocks import ColumnBlock
from repro.storage.database import EventStore
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.index import SortedTimeIndex
from repro.storage.partition import PartitionKey, PartitionScheme
from repro.storage.table import EventTable

BACKENDS = ("partitioned", "flat", "domain", "arrival")
AGENTS = (1, 2, 3, 4, 5)


def build(name, registry):
    if name == "partitioned":
        return EventStore(
            registry=registry, scheme=PartitionScheme(agents_per_group=2)
        )
    if name == "flat":
        return FlatStore(registry=registry)
    return SegmentedStore(registry=registry, segments=3, policy=name)


class World:
    """One registry with a process and a file per agent, and an event maker."""

    def __init__(self, agents=AGENTS):
        self.registry = EntityRegistry()
        self.procs = {a: self.registry.process(a, 10, f"exe{a % 3}") for a in agents}
        self.files = {a: self.registry.file(a, f"/data/{a % 2}") for a in agents}
        self._next_id = 1
        self._seq = {}

    def event(self, agent, start, op="write", amount=0):
        self._seq[agent] = self._seq.get(agent, 0) + 1
        to_file = op != "start"
        event = SystemEvent(
            event_id=self._next_id,
            agent_id=agent,
            seq=self._seq[agent],
            start_time=start,
            end_time=start + 1.0,
            operation=Operation.parse(op),
            subject_id=self.procs[agent].id,
            object_id=(self.files if to_file else self.procs)[agent].id,
            object_type=EntityType.FILE if to_file else EntityType.PROCESS,
            amount=amount,
        )
        self._next_id += 1
        return event

    def stores(self, name, count=2):
        stores = [build(name, self.registry) for _ in range(count)]
        for store in stores:
            for entity in self.registry:
                store.register_entity(entity)
        return stores


def tables(store):
    if isinstance(store, EventStore):
        return dict(store._partitions)
    if isinstance(store, FlatStore):
        return {0: store._table}
    return dict(enumerate(store._segments))


def table_state(table):
    block = table.block
    n = len(block)
    return {
        "visible": len(table),
        "event_ids": list(block.event_ids),
        "agent_ids": [block.agents[c] for c in block.agent_codes],
        "agents": block.agents,
        "wide": isinstance(block.agent_codes, array),
        "seqs": list(block.seqs),
        "t0": list(block.t0),
        "t1": list(block.t1),
        "ops": list(block.op_codes),
        "subjects": list(block.subject_ids),
        "objects": list(block.object_ids),
        "otypes": list(block.otype_codes),
        "amounts": list(block.amounts),
        "failures": list(block.failure_codes),
        "op_universe": block.op_universe,
        "otype_universe": block.otype_universe,
        "time_sorted": block.time_sorted,
        "min_time": block.min_time,
        "max_time": block.max_time,
        "max_event_id": block.max_event_id,
        "rows": n,
        "by_subject": {k: list(v) for k, v in table._by_subject.items()},
        "by_object": {k: list(v) for k, v in table._by_object.items()},
        "time_index": (
            list(table._time_index._times),
            list(table._time_index._positions),
        ),
    }


def store_state(store):
    return {key: table_state(table) for key, table in tables(store).items()}


FILTERS = (
    EventFilter(),
    EventFilter(agent_ids=frozenset({1, 4})),
    EventFilter(window=TimeWindow(start=0.25 * DAY, end=1.5 * DAY)),
    EventFilter(
        agent_ids=frozenset({2, 3}),
        window=TimeWindow(start=0.0, end=1.0 * DAY),
        operations=frozenset({Operation.WRITE}),
    ),
    EventFilter(object_type=EntityType.PROCESS),
    EventFilter(subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "exe1"))),
    EventFilter(object_pred=PredicateLeaf(AttrPredicate("name", "=", "/data/1"))),
)


def assert_same_store(got, want):
    assert store_state(got) == store_state(want)
    assert len(got) == len(want)
    for flt in FILTERS:
        assert got.scan(flt) == want.scan(flt)


@st.composite
def batches(draw):
    """Batches of (agent, start, op): unsorted, duplicate times, 3 days."""
    times = st.one_of(
        st.floats(min_value=0, max_value=3 * DAY - 1, allow_nan=False),
        st.sampled_from([100.0, DAY, DAY + 5.0, 2 * DAY + 7.0]),  # collisions
    )
    row = st.tuples(
        st.sampled_from(AGENTS), times, st.sampled_from(["write", "read", "start"])
    )
    return draw(st.lists(st.lists(row, min_size=1, max_size=25), min_size=1, max_size=5))


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(spec=batches(), sort_some=st.booleans())
def test_whole_blocks_equal_row_appends(name, spec, sort_some):
    world = World()
    by_block, by_row = world.stores(name)
    for index, rows in enumerate(spec):
        if sort_some and index % 2 == 0:
            rows = sorted(rows, key=lambda r: r[1])
        events = [world.event(*row) for row in rows]
        touched = by_block.add_block(ColumnBlock.from_events(events))
        for event in events:
            by_row.add_event(event)
        if name == "partitioned":
            scheme = by_block.scheme
            first_seen = dict.fromkeys(
                scheme.key_for(e.agent_id, e.start_time) for e in events
            )
            assert touched == tuple(first_seen)
    assert_same_store(by_block, by_row)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(spec=batches(), data=st.data())
def test_positions_equal_row_appends_of_those_rows(name, spec, data):
    """``positions`` as a range and as a sparse list: exactly those rows,
    in that order, as if appended one by one."""
    world = World()
    by_block, by_row = world.stores(name)
    for rows in spec:
        events = [world.event(*row) for row in rows]
        block = ColumnBlock.from_events(events)
        lo = data.draw(st.integers(0, len(events)))
        hi = data.draw(st.integers(lo, len(events)))
        sparse = sorted(
            data.draw(st.sets(st.integers(0, len(events) - 1), max_size=len(events)))
        )
        for positions in (range(lo, hi), sparse):
            by_block.add_block(block, positions)
            for p in positions:
                by_row.add_event(events[p])
        assert not block.rows_materialized
    assert_same_store(by_block, by_row)


@settings(max_examples=25, deadline=None)
@given(spec=batches(), data=st.data())
def test_remove_events_rebuilds_as_if_never_appended(spec, data):
    """The partitioned store's cold-migration hand-off."""
    world = World()
    pruned, never = world.stores("partitioned")
    events = [world.event(*row) for rows in spec for row in rows]
    pruned.add_block(ColumnBlock.from_events(events))
    victims = data.draw(st.sets(st.sampled_from([e.event_id for e in events])))
    assert pruned.remove_events(victims) == len(victims)
    assert pruned.remove_events(victims) == 0
    assert all(
        not table.block.rows_materialized for table in tables(pruned).values()
    )
    for flt in FILTERS:
        assert pruned.scan(flt) == [
            e for e in _reference_scan(world, events, flt) if e.event_id not in victims
        ]
    never.add_block(
        ColumnBlock.from_events([e for e in events if e.event_id not in victims])
    )
    assert store_state(pruned) == store_state(never)  # emptied tables dropped
    assert len(pruned) == len(never)


def _reference_scan(world, events, flt):
    reference = FlatStore(registry=world.registry)
    for event in events:
        reference.add_event(event)
    return reference.full_scan(flt)


# -- the agent dictionary ------------------------------------------------------


class TestAgentDictionaryMerge:
    def _events(self, world, agents, start=0.0):
        return [world.event(a, start + i) for i, a in enumerate(agents)]

    def test_promotion_when_a_batch_brings_the_257th_agent(self):
        agents = list(range(1, 301))
        world = World(agents)
        by_block, by_row = world.stores("flat")
        first = self._events(world, agents[:200])
        # the 257th distinct agent arrives in the middle of this batch,
        # between rows that repeat agents the table already knows
        second = self._events(world, agents[150:290] + agents[:10], start=1000.0)
        third = self._events(world, agents[280:], start=5000.0)
        for batch in (first, second, third):
            by_block.add_block(ColumnBlock.from_events(batch))
            for event in batch:
                by_row.add_event(event)
        block = by_block._table.block
        assert isinstance(block.agent_codes, array)
        assert block.agent_codes.typecode == "q"
        assert len(block.agents) == 300
        assert_same_store(by_block, by_row)

    def test_narrow_until_exactly_256_agents(self):
        agents = list(range(1, 257))
        world = World(agents)
        (store,) = world.stores("flat", count=1)
        store.add_block(ColumnBlock.from_events(self._events(world, agents[:100])))
        store.add_block(ColumnBlock.from_events(self._events(world, agents[100:])))
        block = store._table.block
        assert isinstance(block.agent_codes, bytearray)
        assert [block.agents[c] for c in block.agent_codes] == agents

    def test_wide_source_into_a_narrow_table_and_back(self):
        agents = list(range(1, 301))
        world = World(agents)
        by_block, by_row = world.stores("flat")
        wide = ColumnBlock.from_events(self._events(world, agents))
        assert isinstance(wide.agent_codes, array)
        few = self._events(world, [7, 9, 7], start=900.0)
        # a sparse pick of a wide block fits a byte-wide table ...
        picks = [3, 10, 299]
        by_block.add_block(wide, picks)
        by_block.add_block(ColumnBlock.from_events(few))
        assert isinstance(by_block._table.block.agent_codes, bytearray)
        # ... and the whole of it promotes the table
        by_block.add_block(wide)
        for event in [wide.event_at(p) for p in picks] + few + wide.events():
            by_row.add_event(event)
        assert_same_store(by_block, by_row)

    def test_codes_are_remapped_not_copied(self):
        world = World()
        by_block, by_row = world.stores("flat")
        # the two blocks number the same agents differently
        first = self._events(world, [1, 2, 3])
        second = self._events(world, [3, 2, 5, 1], start=50.0)
        for batch in (first, second):
            by_block.add_block(ColumnBlock.from_events(batch))
            for event in batch:
                by_row.add_event(event)
        assert by_block._table.block.agents == (1, 2, 3, 5)
        assert_same_store(by_block, by_row)

    def test_sparse_positions_add_only_the_agents_they_name(self):
        world = World()
        (store,) = world.stores("flat", count=1)
        block = ColumnBlock.from_events(self._events(world, [1, 2, 3, 4, 5]))
        store.add_block(block, [1, 3])
        assert store._table.block.agents == (2, 4)


# -- the sorted time index -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 7.0, 9.0]), max_size=12),
        max_size=6,
    )
)
def test_time_index_extend_equals_adds(batches):
    """In-order tails, bulk merges and insorts all leave the row-wise index."""
    bulk, rowwise = SortedTimeIndex(), SortedTimeIndex()
    base = 0
    for times in batches:
        bulk.extend(times, list(range(base, base + len(times))))
        for offset, t in enumerate(times):
            rowwise.add(t, base + offset)
        base += len(times)
    assert bulk._times == rowwise._times
    assert bulk._positions == rowwise._positions
    assert bulk.range(1.0, 3.0) == rowwise.range(1.0, 3.0)


# -- the partition split -----------------------------------------------------------


class TestSplit:
    def test_a_batch_inside_one_partition_stays_a_slice(self):
        world = World()
        scheme = PartitionScheme(agents_per_group=2)
        block = ColumnBlock.from_events(
            [world.event(a, 100.0 + i) for i, a in enumerate([2, 3, 2, 3])]
        )
        assert scheme.split(block) == {PartitionKey(0, 1): range(4)}
        assert scheme.split(block, range(1, 3)) == {PartitionKey(0, 1): range(1, 3)}
        assert scheme.split(block, [0, 3]) == {PartitionKey(0, 1): [0, 3]}
        assert scheme.split(block, []) == {}
        assert scheme.split(ColumnBlock()) == {}

    def test_keys_come_in_first_row_order(self):
        world = World()
        scheme = PartitionScheme(agents_per_group=2)
        events = [
            world.event(5, DAY + 1.0),
            world.event(1, 5.0),
            world.event(4, DAY + 2.0),  # same partition as agent 5
            world.event(1, 2 * DAY),
            world.event(1, 6.0),
        ]
        split = scheme.split(ColumnBlock.from_events(events))
        assert list(split.items()) == [
            (PartitionKey(1, 2), [0, 2]),
            (PartitionKey(0, 0), [1, 4]),
            (PartitionKey(2, 0), [3]),
        ]


# -- visibility --------------------------------------------------------------------


class TestAtomicPublication:
    def test_table_publishes_a_block_with_one_bump(self):
        world = World()
        table = EventTable(world.registry.get)
        seen = []
        table.append_block(ColumnBlock.from_events([world.event(1, 1.0)]))
        original = table._time_index.extend

        def spying(times, positions):
            # the last staging step: every column is extended, nothing is
            # visible yet
            seen.append((len(table), len(table.block)))
            original(times, positions)

        table._time_index.extend = spying
        table.append_block(
            ColumnBlock.from_events([world.event(1, 2.0 + i) for i in range(5)])
        )
        assert seen == [(1, 6)]
        assert len(table) == 6

    @pytest.mark.parametrize("name", ["partitioned", "domain", "arrival"])
    def test_a_reader_never_sees_a_torn_batch(self, name):
        """Every batch spans tables; a scan racing the writer sees whole
        batches only (the committed watermark rises after every table
        published its share)."""
        world = World()
        (store,) = world.stores(name, count=1)
        size, rounds = 24, 120
        batches = [
            ColumnBlock.from_events(
                [
                    world.event(AGENTS[i % 5], (i % 3) * DAY + r * 10.0 + i, amount=r)
                    for i in range(size)
                ]
            )
            for r in range(rounds)
        ]
        torn = []
        done = threading.Event()

        def read():
            while not done.is_set():
                result = store.scan_columns(EventFilter())
                per_batch = {}
                for _, _, block, p in result.handles():
                    per_batch[block.amounts[p]] = per_batch.get(block.amounts[p], 0) + 1
                if any(count != size for count in per_batch.values()):
                    torn.append(per_batch)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read, daemon=True) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            for block in batches:
                store.add_block(block)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not torn
        assert len(store) == size * rounds
