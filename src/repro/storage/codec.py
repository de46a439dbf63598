"""The one binary codec for :class:`~repro.storage.blocks.ColumnBlock`\\ s.

Every durable or piped copy of events is a *block frame* written here: WAL
records (:mod:`repro.tier.wal`), checkpoint snapshots
(:mod:`repro.storage.persist`), cold segments (:mod:`repro.tier.cold`) and
the shard scan reply (:mod:`repro.shard.wire`).

A frame is self-delimiting and self-checking::

    magic "AQL" + format version   4 bytes
    kind                           1 byte   (one of the ``*_KIND`` constants)
    flags                          1 byte   (bit 0: payload is zlib-deflated)
    stored length                  u32      bytes that follow the header
    raw length                     u32      payload bytes once inflated
    crc32                          u32      over the header so far + stored bytes
    stored payload

and a block payload is a header followed by fixed-width little-endian
columns::

    row count u32 | wide u8 | agent count u32 | op count u8 | otype count u8
    agent table          agent count x i64 (code -> agent id)
    op / otype tables    per entry: u8 length + UTF-8 enum *value string*
    event ids, seqs      rows x i64 each
    start, end times     rows x f64 each
    subject, object ids, amounts, failure codes   rows x i64 each
    op codes, otype codes                         rows x u8 each
    agent codes          rows x u8, or rows x i64 when ``wide``

Dictionary soundness: op/otype codes are process-local (the enums'
definition order *today*) and agent codes are block-local, so a frame
carries the writer's tables and :func:`decode_block` remaps op/otype codes
through them onto this process's dictionaries — a value string this build
does not know raises instead of aliasing to a wrong code.  The agent table
becomes the decoded block's own dictionary.

Hostile input: anything malformed — wrong magic, version or kind, a length
that disagrees with the buffer, a checksum mismatch, a column that does not
fit the row count, a code outside its table — raises
:class:`BlockCodecError`, in time and memory bounded by the lengths the
frame declares (inflation stops at the declared raw length).

Compression is the caller's constant, not configuration: WAL and pipe
frames stay raw (they sit on the ack path and are short-lived), snapshot
and segment frames deflate at level 6.
"""

from __future__ import annotations

import functools
import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Optional, Tuple

from repro.storage.blocks import OP_VALUE_BY_CODE, OTYPE_VALUE_BY_CODE, ColumnBlock

MAGIC = b"AQL\x01"  # tag + frame format version

# Every frame kind in one place, so two formats can never share a number.
BLOCK_KIND = 1
SNAPSHOT_HEADER_KIND = 2  # repro.storage.persist
ENTITY_KIND = 3  # repro.storage.persist
WAL_RECORD_KIND = 4  # repro.tier.wal

_FLAG_ZLIB = 1
_ZLIB_LEVEL = 6
_FRAME = struct.Struct("<4sBBII")  # magic, kind, flags, stored, raw
_CRC = struct.Struct("<I")
FRAME_HEADER_BYTES = _FRAME.size + _CRC.size

_BLOCK_HEADER = struct.Struct("<IBIBB")  # rows, wide, agents, ops, otypes
_ROW_BYTES = 8 * 8 + 2  # eight 64-bit columns, op and otype code; + the agent code
_READ_CHUNK = 1 << 20
_CRC_STEP = 4096  # zlib.crc32 lets go of the GIL for buffers above 5 KiB


class BlockCodecError(ValueError):
    """Raised for frames that are truncated, corrupt or from another build."""


# -- frames -------------------------------------------------------------------


def _frame_crc(head, stored) -> int:
    """The checksum of a frame: crc32 over its header, then its stored bytes.

    Taken in steps that keep the GIL.  One call over a WAL record (17 KB)
    would release it for the ten microseconds the sum takes, and a commit
    that loses the GIL to a waiting query thread there waits a whole switch
    interval (5 ms) to get it back: a coin toss on the ack path.
    """
    crc = zlib.crc32(head)
    view = memoryview(stored)
    for start in range(0, len(view), _CRC_STEP):
        crc = zlib.crc32(view[start : start + _CRC_STEP], crc)
    return crc


def pack_frame(kind: int, payload: bytes, compress: bool = False) -> bytes:
    """Wrap ``payload`` in a checksummed, self-delimiting frame."""
    stored = zlib.compress(payload, _ZLIB_LEVEL) if compress else payload
    head = _FRAME.pack(
        MAGIC, kind, _FLAG_ZLIB if compress else 0, len(stored), len(payload)
    )
    return b"".join((head, _CRC.pack(_frame_crc(head, stored)), stored))


def _parse_header(head: bytes) -> Tuple[int, int, int, int]:
    """``(kind, flags, stored length, raw length)`` of a frame header."""
    if len(head) < FRAME_HEADER_BYTES:
        raise BlockCodecError("truncated frame header")
    magic, kind, flags, stored, raw = _FRAME.unpack_from(head)
    if magic != MAGIC:
        if magic[:3] == MAGIC[:3]:
            raise BlockCodecError(f"unsupported frame version {magic[3]}")
        raise BlockCodecError("not a frame (bad magic)")
    if flags & ~_FLAG_ZLIB or (not flags and raw != stored):
        raise BlockCodecError("inconsistent frame header")
    return kind, flags, stored, raw


def unpack_frame(buf: bytes, kind: int) -> memoryview:
    """The payload of the frame that ``buf`` holds exactly, checked."""
    found, flags, stored, raw = _parse_header(buf)
    if len(buf) != FRAME_HEADER_BYTES + stored:
        raise BlockCodecError(
            f"frame declares {stored} payload bytes, buffer holds "
            f"{len(buf) - FRAME_HEADER_BYTES}"
        )
    view = memoryview(buf)
    (crc,) = _CRC.unpack_from(buf, _FRAME.size)
    body = view[FRAME_HEADER_BYTES:]
    if _frame_crc(view[: _FRAME.size], body) != crc:
        raise BlockCodecError("frame checksum mismatch")
    if found != kind:
        raise BlockCodecError(f"frame kind {found}, expected {kind}")
    if not flags:
        return body
    inflater = zlib.decompressobj()
    try:
        # One byte of slack tells an honest payload from one that would
        # keep inflating past what the header declared.
        payload = inflater.decompress(body, raw + 1)
    except zlib.error as exc:
        raise BlockCodecError(f"corrupt deflated payload: {exc}") from exc
    if len(payload) != raw or not inflater.eof:
        raise BlockCodecError("deflated payload does not match its declared length")
    return memoryview(payload)


def read_frame(handle: BinaryIO) -> bytes:
    """Read one whole frame from ``handle`` (for :func:`unpack_frame`).

    Reads in bounded chunks, so a corrupt length costs at most what the
    file actually holds, and raises on a short read.
    """
    head = handle.read(FRAME_HEADER_BYTES)
    remaining = _parse_header(head)[2]
    chunks = [head]
    while remaining:
        chunk = handle.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise BlockCodecError("truncated frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- blocks -------------------------------------------------------------------


def _column_bytes(column, stop: int) -> bytes:
    """Rows ``[0, stop)`` of one column, little-endian."""
    part = column[:stop]
    if not isinstance(part, array):
        return bytes(part)
    if sys.byteorder == "big":  # pragma: no cover
        part.byteswap()
    return part.tobytes()


@functools.lru_cache(maxsize=8)
def _string_table(values: Tuple[str, ...]) -> bytes:
    encoded = [value.encode("utf-8") for value in values]
    return b"".join(bytes((len(raw),)) + raw for raw in encoded)


def encode_block(
    block: ColumnBlock, stop: Optional[int] = None, compress: bool = False
) -> bytes:
    """One frame holding rows ``[0, stop)`` of ``block`` (default: all).

    ``stop`` is the caller's visibility snapshot of a live block; the
    caller must hold whatever keeps the block from being appended to.
    """
    rows = len(block.event_ids) if stop is None else stop
    wide = isinstance(block.agent_codes, array)
    agents = array("q", block.agents)
    parts = [
        _BLOCK_HEADER.pack(
            rows, wide, len(agents), len(OP_VALUE_BY_CODE), len(OTYPE_VALUE_BY_CODE)
        ),
        _column_bytes(agents, len(agents)),
        _string_table(OP_VALUE_BY_CODE),
        _string_table(OTYPE_VALUE_BY_CODE),
    ]
    parts.extend(
        _column_bytes(column, rows)
        for column in (
            block.event_ids,
            block.seqs,
            block.t0,
            block.t1,
            block.subject_ids,
            block.object_ids,
            block.amounts,
            block.failure_codes,
            block.op_codes,
            block.otype_codes,
            block.agent_codes,
        )
    )
    return pack_frame(BLOCK_KIND, b"".join(parts), compress)


def _typed(typecode: str, raw: memoryview) -> array:
    # Repeat-then-copy sizes the array exactly; ``frombytes`` grows it with
    # ~6 % of slack, and decoded cold blocks live as long as the caches.
    out = array(typecode, (0,)) * (len(raw) // 8)
    memoryview(out).cast("B")[:] = raw
    if sys.byteorder == "big":  # pragma: no cover
        out.byteswap()
    return out


def _read_string_table(
    payload: memoryview, offset: int, count: int, ours: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], int]:
    """The table of ``count`` strings at ``offset`` and where it ends;
    ``ours`` itself when the bytes are this build's own table (the common
    case costs one comparison)."""
    own = _string_table(ours)
    if count == len(ours) and payload[offset : offset + len(own)] == own:
        return ours, offset + len(own)
    values = []
    for _ in range(count):
        if (
            offset >= len(payload)
            or (end := offset + 1 + payload[offset]) > len(payload)
        ):
            raise BlockCodecError("truncated dictionary table")
        try:
            values.append(str(payload[offset + 1 : end], "utf-8"))
        except UnicodeDecodeError as exc:
            raise BlockCodecError(f"undecodable dictionary entry: {exc}") from exc
        offset = end
    return tuple(values), offset


def _local_codes(
    codes: memoryview, sender: Tuple[str, ...], ours: Tuple[str, ...], kind: str
) -> bytearray:
    """A code column remapped from the sender's table onto this process's.

    A code beyond the sender's table maps to 255, which no table reaches:
    :func:`decode_block` refuses it when it checks the block's universes.
    """
    if sender is ours:
        return bytearray(codes)
    local = {value: code for code, value in enumerate(ours)}
    table = bytearray(b"\xff" * 256)
    for code, value in enumerate(sender):
        if value not in local:
            raise BlockCodecError(
                f"sender {kind} dictionary carries {value!r}, unknown to "
                f"this process"
            )
        table[code] = local[value]
    return bytearray(codes.tobytes().translate(table))


def decode_block(buf: bytes) -> ColumnBlock:
    """Rebuild the block of one :func:`encode_block` frame.

    Every column is sized against the declared row count before a byte of
    it is read, and every dictionary code against its table.
    """
    payload = unpack_frame(buf, BLOCK_KIND)
    if len(payload) < _BLOCK_HEADER.size:
        raise BlockCodecError("truncated block header")
    rows, wide, agent_count, op_count, otype_count = _BLOCK_HEADER.unpack_from(payload)
    if wide > 1 or (not wide and agent_count > 256):
        raise BlockCodecError("agent dictionary does not fit its code width")
    offset = _BLOCK_HEADER.size
    end = offset + 8 * agent_count
    if end > len(payload):
        raise BlockCodecError("truncated agent table")
    agents = tuple(_typed("q", payload[offset:end]))
    if len(set(agents)) != agent_count:
        raise BlockCodecError("agent table repeats an agent id")
    ops, offset = _read_string_table(payload, end, op_count, OP_VALUE_BY_CODE)
    otypes, offset = _read_string_table(
        payload, offset, otype_count, OTYPE_VALUE_BY_CODE
    )
    agent_width = 8 if wide else 1
    expected = rows * (_ROW_BYTES + agent_width)
    if len(payload) - offset != expected:
        raise BlockCodecError(
            f"columns hold {len(payload) - offset} bytes, "
            f"{rows} rows need {expected}"
        )

    def take(width: int) -> memoryview:
        nonlocal offset
        offset += width * rows
        return payload[offset - width * rows : offset]

    block = ColumnBlock()
    block.event_ids = _typed("q", take(8))
    block.seqs = _typed("q", take(8))
    block.t0 = _typed("d", take(8))
    block.t1 = _typed("d", take(8))
    block.subject_ids = _typed("q", take(8))
    block.object_ids = _typed("q", take(8))
    block.amounts = _typed("q", take(8))
    block.failure_codes = _typed("q", take(8))
    block.op_codes = _local_codes(take(1), ops, OP_VALUE_BY_CODE, "operation")
    block.otype_codes = _local_codes(
        take(1), otypes, OTYPE_VALUE_BY_CODE, "object-type"
    )
    if wide:
        block.agent_codes = _typed("q", take(8))
        lowest = min(block.agent_codes, default=0)
    else:
        block.agent_codes = bytearray(take(1))
        lowest = 0
    block.agents = agents
    block.seal()
    # The universes seal() just derived are the distinct codes: checking
    # them is checking every row.
    if (
        max(block.op_universe, default=0) >= len(OP_VALUE_BY_CODE)
        or max(block.otype_universe, default=0) >= len(OTYPE_VALUE_BY_CODE)
        or lowest < 0
        or max(block.agent_codes, default=0) >= max(agent_count, 1)
    ):
        raise BlockCodecError("dictionary code outside the frame's table")
    return block
