"""Block codec: the structural checks, one crafted frame each.

The property suite (``tests/properties/test_block_codec_props.py``) covers
round trips and random damage; these are the refusals a checksum cannot
make, pinned deterministically — every frame here is well-formed and
carries a valid crc.
"""

import io
import struct
import zlib

import pytest

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.storage import codec
from repro.storage.blocks import OP_VALUE_BY_CODE, OTYPE_VALUE_BY_CODE, ColumnBlock
from repro.storage.codec import (
    BLOCK_KIND,
    FRAME_HEADER_BYTES,
    BlockCodecError,
    decode_block,
    encode_block,
    pack_frame,
    read_frame,
    unpack_frame,
)

EVENTS = [
    SystemEvent(1, 7, 1, 10.0, 11.0, Operation.WRITE, 100, 200, EntityType.FILE, 5),
    SystemEvent(2, 8, 1, 12.0, 12.5, Operation.READ, 101, 201, EntityType.NETWORK),
]


def tables(values) -> bytes:
    return b"".join(bytes((len(v),)) + v.encode() for v in values)


def block_payload(rows=2, wide=0, agents=(7, 8), ops=OP_VALUE_BY_CODE,
                  otypes=OTYPE_VALUE_BY_CODE, agent_codes=None, op_codes=None):
    """A block payload assembled by hand, defaults equal to ``EVENTS``."""
    ints = struct.pack(f"<{rows}q", *range(1, rows + 1))
    floats = struct.pack(f"<{rows}d", *([1.0] * rows))
    if agent_codes is None:
        agent_codes = bytes(i % max(len(agents), 1) for i in range(rows))
    return b"".join(
        (
            struct.pack("<IBIBB", rows, wide, len(agents), len(ops), len(otypes)),
            struct.pack(f"<{len(agents)}q", *agents),
            tables(ops),
            tables(otypes),
            ints, ints, floats, floats, ints, ints, ints, ints,
            op_codes if op_codes is not None else bytes(rows),
            bytes(rows),
            agent_codes,
        )
    )


def decode_payload(payload: bytes) -> ColumnBlock:
    return decode_block(pack_frame(BLOCK_KIND, payload))


class TestHandBuiltPayloads:
    def test_the_hand_built_payload_is_what_encode_writes(self):
        frame = encode_block(ColumnBlock.from_events(EVENTS))
        payload = bytes(unpack_frame(frame, BLOCK_KIND))
        assert payload[:11] == block_payload()[:11]
        assert len(payload) == len(block_payload())
        assert len(decode_payload(block_payload())) == 2

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"\x00" * 5, "truncated block header"),
            (block_payload(wide=2), "code width"),
            (block_payload(agents=tuple(range(300))), "code width"),
            (struct.pack("<IBIBB", 0, 0, 9, 0, 0), "truncated agent table"),
            (block_payload(agents=(7, 7)), "repeats an agent"),
            (struct.pack("<IBIBB", 0, 0, 0, 3, 0), "truncated dictionary"),
            (struct.pack("<IBIBB", 0, 0, 0, 1, 0) + b"\x09ab", "truncated dictionary"),
            (struct.pack("<IBIBB", 0, 0, 0, 1, 0) + b"\x02\xff\xfe", "undecodable"),
            (block_payload()[:-1], "rows need"),
            (block_payload() + b"\x00", "rows need"),
            (block_payload(agent_codes=b"\x00\x02"), "code outside"),
            (
                block_payload(wide=1, agent_codes=struct.pack("<2q", 0, -1)),
                "code outside",
            ),
            (block_payload(op_codes=b"\x00\x63"), "code outside"),
            # beyond the *sender's* shorter table, though inside ours
            (
                block_payload(ops=OP_VALUE_BY_CODE[:3], op_codes=b"\x00\x05"),
                "code outside",
            ),
            (block_payload(ops=("read", "teleport")), "teleport"),
        ],
    )
    def test_malformed_payload_behind_a_valid_checksum(self, payload, message):
        with pytest.raises(BlockCodecError, match=message):
            decode_payload(payload)

    def test_a_sender_with_fewer_operations_still_decodes(self):
        """An older build's table is a prefix of ours: remapped, not refused."""
        block = decode_payload(block_payload(ops=OP_VALUE_BY_CODE[:3]))
        assert set(block.op_codes) == {0}


class TestFrames:
    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 17_500, 70_001])
    def test_the_stepped_checksum_is_plain_crc32(self, size):
        """The sum is taken in GIL-keeping steps; the format is one crc32."""
        payload = bytes(i * 31 % 251 for i in range(size))
        frame = pack_frame(9, payload)
        head, crc = frame[:14], frame[14:FRAME_HEADER_BYTES]
        assert crc == struct.pack("<I", zlib.crc32(head + payload))
        assert bytes(unpack_frame(frame, 9)) == payload

    def test_deflated_garbage_behind_a_valid_checksum(self):
        stored = b"this is not a deflate stream"
        head = struct.pack("<4sBBII", codec.MAGIC, BLOCK_KIND, 1, len(stored), 99)
        crc = struct.pack("<I", zlib.crc32(stored, zlib.crc32(head)))
        with pytest.raises(BlockCodecError, match="corrupt deflated"):
            decode_block(head + crc + stored)

    def test_raw_frame_whose_lengths_disagree(self):
        head = struct.pack("<4sBBII", codec.MAGIC, BLOCK_KIND, 0, 4, 5)
        crc = struct.pack("<I", zlib.crc32(b"abcd", zlib.crc32(head)))
        with pytest.raises(BlockCodecError, match="inconsistent"):
            decode_block(head + crc + b"abcd")

    def test_read_frame_walks_a_stream_and_refuses_a_short_one(self):
        first = encode_block(ColumnBlock.from_events(EVENTS), compress=True)
        second = pack_frame(9, b"x" * 3_000_000)  # several read chunks
        handle = io.BytesIO(first + second)
        assert read_frame(handle) == first
        assert read_frame(handle) == second
        with pytest.raises(BlockCodecError, match="truncated frame header"):
            read_frame(handle)
        with pytest.raises(BlockCodecError, match="truncated frame"):
            read_frame(io.BytesIO(second[:-1]))
        with pytest.raises(BlockCodecError, match="bad magic"):
            read_frame(io.BytesIO(b"{" + first))

    def test_a_corrupt_length_reads_no_more_than_the_file_holds(self):
        """4 GiB declared, 40 bytes present: a typed error, not an allocation."""
        head = struct.pack("<4sBBII", codec.MAGIC, BLOCK_KIND, 0, 2**32 - 1, 2**32 - 1)
        handle = io.BytesIO(head + b"\x00" * (FRAME_HEADER_BYTES + 22))
        with pytest.raises(BlockCodecError, match="truncated frame"):
            read_frame(handle)
