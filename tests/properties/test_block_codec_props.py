"""Property tests: the block codec and the readers built on it.

Two families (ROADMAP 4c for the WAL / segment / snapshot readers):

* **round trip** — any block, through any frame, decodes to equal columns
  and equal derived fields, including a sender whose op/otype dictionaries
  are permuted relative to ours;
* **hostile bytes** — a frame cut at any offset, or with any single bit
  flipped, raises :class:`BlockCodecError` (the WAL stops cleanly at it as
  a torn tail), never another exception.
"""

import math
from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.storage import codec
from repro.storage.blocks import (
    OP_VALUE_BY_CODE,
    OTYPE_VALUE_BY_CODE,
    ColumnBlock,
)
from repro.storage.codec import (
    BLOCK_KIND,
    BlockCodecError,
    decode_block,
    encode_block,
    pack_frame,
    unpack_frame,
)
from repro.storage.filters import EventFilter
from repro.storage.partition import PartitionKey
from repro.tier.cold import ColdTier, ColdTierError
from repro.tier.wal import FILE_MAGIC, WriteAheadLog

OPS = tuple(Operation)
OTYPES = tuple(EntityType)
INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
TIMES = st.floats(allow_nan=False, allow_infinity=True)


@st.composite
def events(draw, max_rows=40, max_agent=6):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    starts = [draw(TIMES) for _ in range(n)]
    return [
        SystemEvent(
            event_id=draw(INT64),
            agent_id=draw(st.integers(min_value=-3, max_value=max_agent)),
            seq=draw(INT64),
            start_time=start,
            end_time=max(start, draw(TIMES)),
            operation=draw(st.sampled_from(OPS)),
            subject_id=draw(INT64),
            object_id=draw(st.sampled_from([0, 1, -1, 1 << 62, -(1 << 62)])),
            object_type=draw(st.sampled_from(OTYPES)),
            amount=draw(INT64),
            failure_code=draw(st.integers(min_value=0, max_value=255)),
        )
        for start in starts
    ]


SUMMARY = (
    "event_ids", "agent_codes", "seqs", "t0", "t1", "op_codes", "subject_ids",
    "object_ids", "otype_codes", "amounts", "failure_codes", "agents",
    "op_universe", "otype_universe", "time_sorted", "min_time", "max_time",
    "max_event_id",
)


def assert_same_block(got: ColumnBlock, want: ColumnBlock, stop=None):
    if stop is not None:
        want = ColumnBlock.from_events(want.events(stop))
        # a prefix frame still carries the whole agent table
        assert set(want.agents) <= set(got.agents)
        assert got.events() == want.events()
        return
    for name in SUMMARY:
        assert getattr(got, name) == getattr(want, name), name
    assert got.agent_code_set(frozenset(want.agents[:1])) == want.agent_code_set(
        frozenset(want.agents[:1])
    )


@contextmanager
def sender_tables(ops=OP_VALUE_BY_CODE, otypes=OTYPE_VALUE_BY_CODE):
    """Encode as a process whose enum definition order is ``ops``/``otypes``."""
    with mock.patch.object(codec, "OP_VALUE_BY_CODE", tuple(ops)), mock.patch.object(
        codec, "OTYPE_VALUE_BY_CODE", tuple(otypes)
    ):
        yield


def in_sender_codes(block: ColumnBlock, ops, otypes) -> ColumnBlock:
    """``block`` with its op/otype codes re-expressed in the sender's."""
    op_table, otype_table = bytearray(256), bytearray(256)
    for code, value in enumerate(ops):
        if value in OP_VALUE_BY_CODE:
            op_table[OP_VALUE_BY_CODE.index(value)] = code
    for code, value in enumerate(otypes):
        if value in OTYPE_VALUE_BY_CODE:
            otype_table[OTYPE_VALUE_BY_CODE.index(value)] = code
    block.op_codes = bytearray(bytes(block.op_codes).translate(op_table))
    block.otype_codes = bytearray(bytes(block.otype_codes).translate(otype_table))
    return block


# -- round trip -----------------------------------------------------------------


@given(events(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_round_trip_preserves_columns_and_derived_fields(batch, compress):
    block = ColumnBlock.from_events(batch)
    decoded = decode_block(encode_block(block, compress=compress))
    assert_same_block(decoded, block)
    assert decoded.events() == batch
    assert not block.rows_materialized  # encoding builds no row objects


@given(events(max_rows=20), st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_frames_hold_exactly_the_visible_rows(batch, data):
    block = ColumnBlock()
    for event in batch:
        block.append(event)
    stop = data.draw(st.integers(min_value=0, max_value=len(batch)))
    assert_same_block(decode_block(encode_block(block, stop)), block, stop=stop)


def test_edge_blocks_round_trip():
    for batch in (
        [],
        [SystemEvent(1, 1, 1, 0.0, 0.0, OPS[0], 1, 2, OTYPES[0])],
        # unsorted times, infinities, the int64 extremes
        [
            SystemEvent(3, 1, 1, math.inf, math.inf, OPS[1], 1 << 62, -(1 << 62), OTYPES[1]),
            SystemEvent(2, 1, 2, -math.inf, 5.0, OPS[2], -1, (1 << 63) - 1, OTYPES[2]),
            SystemEvent(1, 2, 1, 7.0, 8.0, OPS[3], -(1 << 63), 0, OTYPES[3], amount=1 << 62),
        ],
    ):
        block = ColumnBlock.from_events(batch)
        for compress in (False, True):
            decoded = decode_block(encode_block(block, compress=compress))
            assert_same_block(decoded, block)
    assert not decoded.time_sorted


def test_more_than_256_agents_use_the_wide_column():
    batch = [
        SystemEvent(i, 1000 + i, i, float(i), float(i), OPS[i % len(OPS)], i, i, OTYPES[0])
        for i in range(1, 301)
    ]
    appended = ColumnBlock()
    for event in batch:
        appended.append(event)
    for block in (ColumnBlock.from_events(batch), appended):
        decoded = decode_block(encode_block(block))
        assert isinstance(decoded.agent_codes, array)
        assert decoded.agent_codes.typecode == "q"
        assert_same_block(decoded, block)
    # a live block promoted at its 257th agent, snapshotted before it:
    # the prefix is still wide, and still decodes
    prefix = decode_block(encode_block(appended, 100))
    assert prefix.events() == batch[:100]


@given(events(), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_permuted_sender_tables_remap_to_equal_blocks(batch, rng, compress):
    ops, otypes = list(OP_VALUE_BY_CODE), list(OTYPE_VALUE_BY_CODE)
    rng.shuffle(ops)
    rng.shuffle(otypes)
    want = ColumnBlock.from_events(batch)
    foreign = in_sender_codes(ColumnBlock.from_events(batch), ops, otypes)
    with sender_tables(ops, otypes):
        frame = encode_block(foreign, compress=compress)
    assert_same_block(decode_block(frame), want)


@given(events(max_rows=10))
@settings(max_examples=30, deadline=None)
def test_unknown_sender_value_is_a_typed_error(batch):
    ops = list(OP_VALUE_BY_CODE) + ["transmogrify"]
    with sender_tables(ops=ops):
        frame = encode_block(ColumnBlock.from_events(batch))
    with pytest.raises(BlockCodecError, match="transmogrify"):
        decode_block(frame)


# -- hostile bytes --------------------------------------------------------------

SAMPLE = [
    SystemEvent(i, 1 + i % 3, i, 10.0 + i, 11.0 + i, OPS[i % len(OPS)],
                100 + i, 200 + i, OTYPES[i % len(OTYPES)], amount=i)
    for i in range(1, 9)
]


@pytest.mark.parametrize("compress", [False, True])
def test_truncation_at_every_offset_is_a_typed_error(compress):
    frame = encode_block(ColumnBlock.from_events(SAMPLE), compress=compress)
    for cut in range(len(frame)):
        with pytest.raises(BlockCodecError):
            decode_block(frame[:cut])
    with pytest.raises(BlockCodecError):
        decode_block(frame + b"\x00")


@pytest.mark.parametrize("compress", [False, True])
def test_every_single_bit_flip_is_a_typed_error(compress):
    frame = encode_block(ColumnBlock.from_events(SAMPLE), compress=compress)
    for offset in range(len(frame)):
        for bit in range(8):
            damaged = bytearray(frame)
            damaged[offset] ^= 1 << bit
            with pytest.raises(BlockCodecError):
                decode_block(bytes(damaged))


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_are_a_typed_error(raw):
    with pytest.raises(BlockCodecError):
        decode_block(raw)


@given(st.binary(max_size=120), st.booleans())
@settings(max_examples=300, deadline=None)
def test_arbitrary_payload_behind_a_valid_checksum(raw, compress):
    """The structural checks stand on their own: a well-framed payload that
    is not a block is refused (or, by luck, is a block and decodes)."""
    try:
        block = decode_block(pack_frame(BLOCK_KIND, raw, compress))
    except BlockCodecError:
        return
    assert len(block.t0) == len(block.op_codes) == len(block)


@given(events(max_rows=6), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_payload_behind_a_valid_checksum(batch, data):
    """Overwrite bytes of a real block payload and re-frame it: decode
    either refuses or returns a block that is consistent with itself."""
    payload = bytearray(
        unpack_frame(encode_block(ColumnBlock.from_events(batch)), BLOCK_KIND)
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        at = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        payload[at] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        block = decode_block(pack_frame(BLOCK_KIND, bytes(payload)))
    except BlockCodecError:
        return
    # every code resolves in its dictionary: no IndexError on a later read
    assert all(0 <= code < len(block.agents) for code in block.agent_codes)
    assert all(code < len(OPS) for code in block.op_codes)
    assert all(code < len(OTYPES) for code in block.otype_codes)
    assert len(block.t0) == len(block.agent_codes) == len(block)


def test_inflation_stops_at_the_declared_length():
    """A deflated payload that would inflate past its header's raw length
    is refused without being inflated in full."""
    import struct
    import zlib

    bomb = zlib.compress(b"\x00" * (1 << 24), 6)  # 16 MiB from ~16 KiB
    head = struct.pack("<4sBBII", codec.MAGIC, BLOCK_KIND, 1, len(bomb), 64)
    crc = struct.pack("<I", zlib.crc32(bomb, zlib.crc32(head)))
    with pytest.raises(BlockCodecError, match="declared length"):
        decode_block(head + crc + bomb)


def test_frames_of_another_version_or_kind_are_refused():
    frame = encode_block(ColumnBlock.from_events(SAMPLE))
    with pytest.raises(BlockCodecError, match="version"):
        decode_block(b"AQL\x02" + frame[4:])
    with pytest.raises(BlockCodecError, match="kind"):
        decode_block(pack_frame(9, bytes(unpack_frame(frame, BLOCK_KIND))))


# -- the readers on top ---------------------------------------------------------


def test_wal_stops_cleanly_at_any_cut_or_flipped_bit(tmp_path):
    """Whatever a crash or a bad sector does to the last record, replay
    yields the records before it and nothing raises."""
    path = tmp_path / "wal.log"
    with WriteAheadLog(path, sync=False) as wal:
        wal.append([], ColumnBlock.from_events(SAMPLE[:4]))
        first = path.stat().st_size
        wal.append([], ColumnBlock.from_events(SAMPLE[4:]))
    raw = path.read_bytes()
    assert raw.startswith(FILE_MAGIC)
    damaged_logs = [raw[:cut] for cut in range(first, len(raw))]
    for offset in range(first, len(raw)):
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << (offset % 8)
        damaged_logs.append(bytes(flipped))
    for damaged in damaged_logs:
        path.write_bytes(damaged)
        with WriteAheadLog(path, sync=False) as wal:
            records = list(wal.replay())
            assert [r.number for r in records] == [1]
            assert records[0].events == tuple(SAMPLE[:4])
            assert wal.append([], ColumnBlock.from_events(SAMPLE[4:])) == 2  # and the log is usable
        with WriteAheadLog(path, sync=False) as wal:
            assert [r.number for r in wal.replay()] == [1, 2]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cold_segment_damage_is_a_cold_tier_error(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("cold")
    tier = ColdTier(directory, lambda entity_id: None)
    zone = tier.add_segment(PartitionKey(day=0, agent_group=0), SAMPLE)
    path = directory / zone.filename
    raw = path.read_bytes()
    if data.draw(st.booleans()):
        damaged = raw[: data.draw(st.integers(min_value=0, max_value=len(raw) - 1))]
    else:
        at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        flipped = bytearray(raw)
        flipped[at] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        damaged = bytes(flipped)
    assume(damaged != raw)
    path.write_bytes(damaged)
    fresh = ColdTier(directory, lambda entity_id: None)
    with pytest.raises(ColdTierError):
        fresh.scan(EventFilter())
