"""Wire format for shard <-> coordinator traffic (ISSUE 7).

Besides the ingest ``batch`` command — whose payload is a bare block frame
of :mod:`repro.storage.codec`, cut and encoded by the coordinator — two
payload kinds cross the worker pipes, both plain picklable dicts/lists of
``bytes``/tuples (no live objects, no code):

* **row lists** (shard -> coordinator ``full_scan`` replies only — the
  pruning-free test oracle): one compact tuple per event, with operation
  and object type as their *value strings* — enum identity never crosses a
  process boundary;
* **scan results** (shard -> coordinator): the survivor rows of a
  scatter scan as one :class:`~repro.storage.blocks.ColumnBlock` slice in
  (start_time, event_id) order, packed as one raw block frame of
  :mod:`repro.storage.codec` — the same bytes a WAL record or a cold
  segment holds.

A routed query (the ``query`` command) sends neither: its worker runs the
whole query and replies with the answer's columns, rows and meta, the
scheduler's stats and the count of scans it ran.  Its scans are capped by
:func:`capped_block`, the rule a scatter reply is cut by, so both paths
answer from the same rows.

Dictionary soundness is the codec's: the frame carries the sending
process's op/otype value-string tables and the block's agent-id table, and
decoding remaps op/otype codes onto this process's dictionaries, so two
processes can never desynchronize silently — an unknown value string
raises :class:`WireError` instead of aliasing to a wrong code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.storage.blocks import BlockScanResult, ColumnBlock, Selection
from repro.storage.codec import BlockCodecError, decode_block, encode_block

_OP_BY_VALUE: Dict[str, Operation] = {op.value: op for op in Operation}
_OTYPE_BY_VALUE: Dict[str, EntityType] = {t.value: t for t in EntityType}


class WireError(ValueError):
    """Raised for a payload that is malformed or whose dictionary tables
    cannot be reconciled."""


# -- event batches ----------------------------------------------------------


def encode_events(events: Sequence[SystemEvent]) -> List[tuple]:
    """Pack events as primitive tuples (ops/otypes by value string)."""
    return [
        (
            e.event_id,
            e.agent_id,
            e.seq,
            e.start_time,
            e.end_time,
            e.operation.value,
            e.subject_id,
            e.object_id,
            e.object_type.value,
            e.amount,
            e.failure_code,
        )
        for e in events
    ]


def decode_events(payload: Sequence[tuple]) -> Tuple[SystemEvent, ...]:
    """Rebuild :func:`encode_events` tuples into events, in order."""
    try:
        return tuple(
            SystemEvent(
                event_id=eid,
                agent_id=agent,
                seq=seq,
                start_time=t0,
                end_time=t1,
                operation=_OP_BY_VALUE[op],
                subject_id=subj,
                object_id=obj,
                object_type=_OTYPE_BY_VALUE[ot],
                amount=amt,
                failure_code=fc,
            )
            for eid, agent, seq, t0, t1, op, subj, obj, ot, amt, fc in payload
        )
    except KeyError as exc:
        raise WireError(f"unknown enum value in event batch: {exc}") from exc


# -- scan results -----------------------------------------------------------


def capped_block(
    result: BlockScanResult,
    watermark: Optional[int] = None,
    exclude: Optional[frozenset] = None,
) -> Optional[ColumnBlock]:
    """A scan's survivors as one block, sorted and capped; ``None`` when
    none survive.

    The one rule for what a worker may answer, whether the rows then cross
    the pipe (:func:`encode_result`, a scatter reply) or feed a query the
    worker runs whole (:func:`capped_result`, a routed query).  Rows ride
    in the result's merged (start_time, event_id) handle order — already
    deduplicated across tiers — and rows above ``watermark`` (the
    coordinator's committed snapshot at issue time) are dropped, so a
    batch another shard has not acknowledged yet can never leak into an
    answer half-committed.  ``exclude`` drops specific event ids: the
    coordinator's torn-commit set (slices acknowledged by some shards of a
    batch whose commit ultimately failed), which a later watermark advance
    must never expose.
    """
    if watermark is not None:
        handles = [h for h in result.handles() if h[1] <= watermark]
    else:
        handles = list(result.handles())
    if exclude:
        handles = [h for h in handles if h[1] not in exclude]
    # A single-part result rides in its block's physical order, which a
    # flat heap does not sort by time — the decoded block claims
    # time_sorted, so establish the order here (timsort: cheap on the
    # already-sorted multi-part case).
    handles.sort(key=lambda h: (h[0], h[1]))
    if not handles:
        return None
    block = ColumnBlock()
    agent_ids: List[int] = []
    for _, eid, source, p in handles:
        block.event_ids.append(eid)
        block.seqs.append(source.seqs[p])
        block.t0.append(source.t0[p])
        block.t1.append(source.t1[p])
        block.op_codes.append(source.op_codes[p])
        block.subject_ids.append(source.subject_ids[p])
        block.object_ids.append(source.object_ids[p])
        block.otype_codes.append(source.otype_codes[p])
        block.amounts.append(source.amounts[p])
        block.failure_codes.append(source.failure_codes[p])
        agent_ids.append(source.agents[source.agent_codes[p]])
    block.set_agents(agent_ids)
    return block


def encode_result(
    result: BlockScanResult,
    watermark: Optional[int] = None,
    exclude: Optional[frozenset] = None,
) -> dict:
    """Serialize a scan's :func:`capped_block` as one wire block frame."""
    block = capped_block(result, watermark, exclude)
    if block is None:
        return {"n": 0, "block": b""}
    return {"n": len(block), "block": encode_block(block)}


def capped_result(
    result: BlockScanResult,
    watermark: Optional[int] = None,
    exclude: Optional[frozenset] = None,
) -> BlockScanResult:
    """A scan's :func:`capped_block` as a local result: what the
    coordinator would hold after gathering this shard's reply, without the
    encode and decode between (a routed query's scans on its worker)."""
    block = capped_block(result, watermark, exclude)
    if block is None:
        return BlockScanResult([])
    block.seal()  # as decode_block leaves a received block
    return BlockScanResult([Selection(block, range(len(block)))])


def payload_nbytes(payload: dict) -> int:
    """Bytes a :func:`encode_result` payload puts on the wire: its block
    frame (the figure the coordinator's per-shard gather metrics report)."""
    return len(payload["block"])


def decode_result(payload: dict) -> Optional[Selection]:
    """Rebuild a wire block into a local :class:`Selection`.

    Rows arrive in (start_time, event_id) handle order, so the decoded
    block is time-sorted.  Returns ``None`` for an empty payload.
    """
    if not payload["n"]:
        return None
    try:
        block = decode_block(payload["block"])
    except BlockCodecError as exc:
        raise WireError(f"undecodable scan result: {exc}") from exc
    return Selection(block, range(len(block)))
