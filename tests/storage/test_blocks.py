"""Typed column blocks: encoding, lazy views, selections, merged results."""

from array import array
from types import SimpleNamespace

import pytest

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.storage.blocks import (
    OP_BY_CODE,
    OP_CODE,
    OTYPE_CODE,
    BlockScanResult,
    ColumnBlock,
    Selection,
    block_attribute_getter,
)


def make_event(
    eid,
    start,
    agent=1,
    op=Operation.READ,
    otype=EntityType.FILE,
    subject=100,
    obj=200,
    amount=0,
):
    return SystemEvent(
        event_id=eid,
        agent_id=agent,
        seq=eid,
        start_time=start,
        end_time=start + 1.0,
        operation=op,
        subject_id=subject,
        object_id=obj,
        object_type=otype,
        amount=amount,
    )


def block_of(events):
    block = ColumnBlock()
    for event in events:
        block.append(event)
    return block


class TestColumnBlock:
    def test_append_round_trips_through_event_at(self):
        events = [
            make_event(1, 10.0, agent=3, op=Operation.WRITE, amount=512),
            make_event(2, 11.0, agent=4, otype=EntityType.NETWORK),
        ]
        block = block_of(events)
        assert len(block) == 2
        assert block.events() == events

    def test_dictionary_encoding(self):
        block = block_of(
            [
                make_event(1, 1.0, agent=7, op=Operation.READ),
                make_event(2, 2.0, agent=9, op=Operation.WRITE),
                make_event(3, 3.0, agent=7, op=Operation.READ),
            ]
        )
        assert block.agents == (7, 9)
        assert list(block.agent_codes) == [0, 1, 0]
        assert list(block.op_codes) == [
            OP_CODE[Operation.READ],
            OP_CODE[Operation.WRITE],
            OP_CODE[Operation.READ],
        ]
        assert block.op_universe == {
            OP_CODE[Operation.READ],
            OP_CODE[Operation.WRITE],
        }
        assert block.otype_universe == {OTYPE_CODE[EntityType.FILE]}

    def test_agent_dictionary_promotes_past_256(self):
        block = block_of(
            [make_event(i, float(i), agent=i) for i in range(1, 301)]
        )
        assert isinstance(block.agent_codes, array)
        # 'q' (8-byte signed) — 'l' is 4 bytes on some ABIs, which would
        # change the wire width of serialized blocks across platforms
        assert block.agent_codes.typecode == "q"
        assert len(block.agents) == 300
        # every row still resolves its original agent
        assert [e.agent_id for e in block.events()] == list(range(1, 301))

    def test_rows_materialize_lazily_and_cache(self):
        block = block_of([make_event(1, 1.0), make_event(2, 2.0)])
        assert not block.rows_materialized
        first = block.event_at(1)
        assert block.rows_materialized
        assert block.event_at(1) is first  # cached, not rebuilt

    def test_time_sorted_tracks_append_order(self):
        block = block_of([make_event(1, 5.0), make_event(2, 4.0)])
        assert not block.time_sorted
        assert block_of([make_event(1, 4.0), make_event(2, 4.0)]).time_sorted

    def test_window_bounds_bisect(self):
        block = block_of([make_event(i, float(i)) for i in range(10)])
        assert block.window_bounds(3.0, 7.0, len(block)) == (3, 7)
        assert block.window_bounds(None, 2.0, len(block)) == (0, 2)
        assert block.window_bounds(8.0, None, len(block)) == (8, 10)
        # the stop bound caps the search (visibility snapshots)
        assert block.window_bounds(3.0, 100.0, 5) == (3, 5)

    def test_agent_code_set_vacuity(self):
        block = block_of([make_event(1, 1.0, agent=1), make_event(2, 2.0, agent=2)])
        assert block.agent_code_set(frozenset({1, 2, 3})) is None  # superset
        assert block.agent_code_set(frozenset({2})) == {1}
        assert block.agent_code_set(frozenset({99})) == frozenset()

    def test_order_positions(self):
        block = block_of(
            [make_event(3, 5.0), make_event(1, 2.0), make_event(2, 2.0)]
        )
        assert block.order_positions(range(3)) == [1, 2, 0]

    def test_from_events_matches_appended_block(self):
        events = [
            make_event(1, 1.0, agent=5, op=Operation.EXECUTE, amount=7),
            make_event(2, 2.0, agent=6, otype=EntityType.PROCESS),
            make_event(3, 1.5, agent=5),
        ]
        appended = block_of(events)
        built = ColumnBlock.from_events(events)
        for column in (
            "event_ids", "agent_codes", "seqs", "t0", "t1", "op_codes",
            "subject_ids", "object_ids", "otype_codes", "amounts",
            "failure_codes", "agents", "op_universe", "otype_universe",
            "time_sorted", "min_time", "max_time", "max_event_id",
        ):
            assert getattr(built, column) == getattr(appended, column), column
        assert not built.rows_materialized
        assert built.events() == events
        assert built.agent_code_set(frozenset({6})) == {1}
        assert built.generation != appended.generation

    def test_from_events_promotes_past_256_agents(self):
        events = [make_event(i, float(i), agent=i) for i in range(1, 301)]
        built = ColumnBlock.from_events(events)
        assert built.agent_codes == block_of(events).agent_codes
        assert built.agent_codes.typecode == "q"
        assert ColumnBlock.from_events([]).events() == []

    def test_block_attribute_getters_match_row_attributes(self):
        block = block_of([make_event(4, 9.0, agent=2, amount=33)])
        event = block.event_at(0)
        for name in ("id", "agentid", "operation", "start_time", "amount", "seq"):
            getter = block_attribute_getter(name)
            assert getter(block, 0) == event.attribute(name)
        assert block_attribute_getter("no_such_attr") is None


class TestSelection:
    def test_events_and_len(self):
        block = block_of([make_event(i, float(i)) for i in range(4)])
        selection = Selection(block, [1, 3])
        assert len(selection) == 2
        assert [e.event_id for e in selection.events()] == [1, 3]

    def test_committed_only_filters_by_watermark(self):
        block = block_of([make_event(i, float(i)) for i in (1, 2, 3)])
        selection = Selection(block, [0, 1, 2])
        cut = selection.committed_only(2)
        assert [block.event_ids[p] for p in cut.positions] == [1, 2]

    def test_committed_only_fast_path_returns_self(self):
        block = block_of([make_event(1, 1.0)])
        selection = Selection(block, [0])
        assert selection.committed_only(10) is selection


class TestBlockScanResult:
    def two_parts(self):
        a = block_of([make_event(1, 1.0), make_event(4, 4.0)])
        b = block_of([make_event(2, 2.0), make_event(3, 3.0)])
        return Selection(a, [0, 1]), Selection(b, [0, 1])

    def test_handles_merge_sorted_across_parts(self):
        scan = BlockScanResult(self.two_parts())
        assert [e.event_id for e in scan.events()] == [1, 2, 3, 4]
        assert len(scan) == 4

    def test_dedup_keeps_first_copy(self):
        hot = block_of([make_event(5, 5.0)])
        cold = block_of([make_event(5, 5.0), make_event(6, 6.0)])
        scan = BlockScanResult(
            [Selection(hot, [0]), Selection(cold, [0, 1])], dedup=True
        )
        handles = scan.handles()
        assert [h[1] for h in handles] == [5, 6]
        assert handles[0][2] is hot  # hot listed first wins the duplicate

    def test_time_bounds_from_columns(self):
        scan = BlockScanResult(self.two_parts())
        assert scan.time_bounds() == (1.0, 4.0)
        assert not any(part.block.rows_materialized for part in scan.parts)
        empty = BlockScanResult([Selection(block_of([make_event(1, 1.0)]), [])])
        assert empty.time_bounds() is None

    def test_ref_values_event_attribute(self):
        scan = BlockScanResult(self.two_parts())
        ref = SimpleNamespace(role="event", attr="id")
        assert scan.ref_values(ref, lambda _id: None) == {1, 2, 3, 4}
        assert not any(part.block.rows_materialized for part in scan.parts)

    def test_ref_values_entity_attribute_resolves_once_per_id(self):
        scan = BlockScanResult(self.two_parts())
        calls = []

        def entity_of(entity_id):
            calls.append(entity_id)
            return SimpleNamespace(name=f"Proc-{entity_id}")

        ref = SimpleNamespace(role="subject", attr="name")
        assert scan.ref_values(ref, entity_of) == {"proc-100"}  # normalized
        assert calls == [100]  # all four rows share one subject

    def test_ref_values_unknown_event_attr_raises_like_rows(self):
        scan = BlockScanResult(self.two_parts())
        ref = SimpleNamespace(role="event", attr="bogus")
        with pytest.raises(AttributeError):
            scan.ref_values(ref, lambda _id: None)
        empty = BlockScanResult([Selection(block_of([make_event(1, 1.0)]), [])])
        assert empty.ref_values(ref, lambda _id: None) == frozenset()

    def test_field_getter_event_and_entity(self):
        scan = BlockScanResult(self.two_parts())
        handle = scan.handles()[0]
        event_getter = scan.field_getter(
            SimpleNamespace(role="event", attr="id"), lambda _id: None
        )
        assert event_getter(handle) == 1
        entity_getter = scan.field_getter(
            SimpleNamespace(role="object", attr="name"),
            lambda _id: SimpleNamespace(name=f"f{_id}"),
        )
        assert entity_getter(handle) == "f200"
        assert (
            scan.field_getter(
                SimpleNamespace(role="event", attr="bogus"), lambda _id: None
            )
            is None
        )

    def test_event_of(self):
        scan = BlockScanResult(self.two_parts())
        handle = scan.handles()[-1]
        assert BlockScanResult.event_of(handle).event_id == 4

    def test_events_cached(self):
        scan = BlockScanResult(self.two_parts())
        assert scan.events() is scan.events()
