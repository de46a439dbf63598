"""Wire codec: serialized scan-result blocks."""

from array import array

import pytest

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.shard.wire import WireError, decode_result, encode_result
from repro.storage import codec
from repro.storage.blocks import (
    OP_VALUE_BY_CODE,
    OTYPE_VALUE_BY_CODE,
    BlockScanResult,
    ColumnBlock,
    Selection,
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
    failure=0,
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
        failure_code=failure,
    )


def result_of(events):
    block = ColumnBlock()
    for event in events:
        block.append(event)
    return BlockScanResult([Selection(block, range(len(block)))])


SAMPLE = [
    make_event(1, 10.0, agent=3, op=Operation.WRITE, amount=512),
    make_event(2, 11.0, agent=4, otype=EntityType.NETWORK, failure=2),
    make_event(3, 12.0, agent=3, op=Operation.DELETE, subject=7, obj=9),
]


class TestResultRoundTrip:
    def test_events_survive(self):
        payload = encode_result(result_of(SAMPLE))
        selection = decode_result(payload)
        assert selection.block.events() == SAMPLE

    def test_enums_survive_as_members(self):
        events = decode_result(encode_result(result_of(SAMPLE))).block.events()
        assert events[0].operation is Operation.WRITE
        assert events[1].object_type is EntityType.NETWORK

    def test_decoded_block_is_time_sorted_with_bounds(self):
        selection = decode_result(encode_result(result_of(SAMPLE)))
        block = selection.block
        assert block.time_sorted
        assert block.min_time == 10.0
        assert block.max_time == 12.0
        assert block.max_event_id == 3
        assert list(selection.positions) == [0, 1, 2]

    def test_agent_dictionary_is_per_payload(self):
        block = decode_result(encode_result(result_of(SAMPLE))).block
        assert block.agents == (3, 4)
        assert isinstance(block.agent_codes, bytearray)

    def test_payload_is_one_block_frame(self):
        payload = encode_result(result_of(SAMPLE))
        assert set(payload) == {"n", "block"}
        assert codec.decode_block(payload["block"]).events() == SAMPLE

    def test_unsorted_result_is_reserialized_in_handle_order(self):
        shuffled = [SAMPLE[2], SAMPLE[0], SAMPLE[1]]
        selection = decode_result(encode_result(result_of(shuffled)))
        assert [e.event_id for e in selection.block.events()] == [1, 2, 3]

    def test_empty_result_decodes_to_none(self):
        assert decode_result(encode_result(result_of([]))) is None

    def test_columns_are_fixed_width(self):
        two = [make_event(i, float(i)) for i in (1, 2)]
        three = two + [make_event(3, 3.0)]
        grown = len(encode_result(result_of(three))["block"]) - len(
            encode_result(result_of(two))["block"]
        )
        assert grown == 8 * 8 + 3  # eight 64-bit columns, three code bytes


class TestWatermark:
    def test_rows_above_watermark_are_dropped(self):
        payload = encode_result(result_of(SAMPLE), watermark=2)
        selection = decode_result(payload)
        assert [e.event_id for e in selection.block.events()] == [1, 2]

    def test_everything_uncommitted_decodes_to_none(self):
        payload = encode_result(result_of(SAMPLE), watermark=0)
        assert payload["n"] == 0
        assert decode_result(payload) is None

    def test_no_watermark_keeps_everything(self):
        payload = encode_result(result_of(SAMPLE), watermark=None)
        assert payload["n"] == 3


class TestWideAgentDictionary:
    def test_past_256_agents_promotes_to_q_array(self):
        events = [make_event(i, float(i), agent=1000 + i) for i in range(1, 301)]
        selection = decode_result(encode_result(result_of(events)))
        assert isinstance(selection.block.agent_codes, array)
        assert selection.block.agent_codes.typecode == "q"
        assert [e.agent_id for e in selection.block.events()] == [
            1000 + i for i in range(1, 301)
        ]


class TestDictionaryRemap:
    """A sender whose enum order differs must remap, never alias."""

    def _payload_from(self, monkeypatch, events, ops=None, otypes=None):
        """The payload a process with these code tables would send."""
        result = result_of(events)
        block = result.parts[0].block
        if ops is not None:
            local = {v: c for c, v in enumerate(OP_VALUE_BY_CODE)}
            table = bytearray(256)
            for code, value in enumerate(ops):
                if value in local:
                    table[local[value]] = code
            block.op_codes = bytearray(bytes(block.op_codes).translate(table))
            monkeypatch.setattr(codec, "OP_VALUE_BY_CODE", tuple(ops))
        if otypes is not None:
            monkeypatch.setattr(codec, "OTYPE_VALUE_BY_CODE", tuple(otypes))
        payload = encode_result(result)
        monkeypatch.undo()
        return payload

    def test_permuted_op_table_remaps_to_local_codes(self, monkeypatch):
        payload = self._payload_from(
            monkeypatch, SAMPLE, ops=tuple(reversed(OP_VALUE_BY_CODE))
        )
        selection = decode_result(payload)
        assert [e.operation for e in selection.block.events()] == [
            e.operation for e in SAMPLE
        ]

    def test_identical_tables_round_trip(self):
        selection = decode_result(encode_result(result_of(SAMPLE)))
        assert selection.block.events() == SAMPLE

    def test_unknown_sender_value_raises_instead_of_aliasing(self, monkeypatch):
        ops = ("transmogrify",) + tuple(OP_VALUE_BY_CODE[1:])
        payload = self._payload_from(monkeypatch, SAMPLE, ops=ops)
        with pytest.raises(WireError, match="transmogrify"):
            decode_result(payload)

    def test_unknown_object_type_value_raises(self, monkeypatch):
        otypes = ("tachyon",) + tuple(OTYPE_VALUE_BY_CODE[1:])
        payload = self._payload_from(monkeypatch, SAMPLE, otypes=otypes)
        with pytest.raises(WireError, match="tachyon"):
            decode_result(payload)

    def test_damaged_frame_is_a_wire_error(self):
        payload = encode_result(result_of(SAMPLE))
        payload["block"] = payload["block"][:-1]
        with pytest.raises(WireError):
            decode_result(payload)
