"""Property tests: the shard wire codec round-trips arbitrary results.

The receiver's view must be value-identical to the sender's for any
event population — including >256 distinct agents (the promoted 64-bit
code column) — and capped at the scatter-time watermark.
"""

from hypothesis import given, settings, strategies as st

from repro.model.entities import EntityType
from repro.model.events import Operation, SystemEvent
from repro.model.time import DAY, TimeWindow
from repro.shard.coordinator import owner_shards, route
from repro.shard.wire import (
    capped_result,
    decode_events,
    decode_result,
    encode_events,
    encode_result,
)
from repro.storage.blocks import BlockScanResult, ColumnBlock, Selection
from repro.storage.filters import EventFilter
from repro.storage.partition import PartitionScheme

OPS = tuple(Operation)
OTYPES = tuple(EntityType)


@st.composite
def events(draw, max_agent=8):
    n = draw(st.integers(min_value=0, max_value=80))
    out = []
    for eid in range(1, n + 1):
        start = draw(
            st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32)
        )
        out.append(
            SystemEvent(
                event_id=eid,
                agent_id=draw(st.integers(min_value=1, max_value=max_agent)),
                seq=eid,
                start_time=start,
                end_time=start
                + draw(st.floats(min_value=0, max_value=60, allow_nan=False)),
                operation=draw(st.sampled_from(OPS)),
                subject_id=draw(st.integers(min_value=1, max_value=1 << 40)),
                object_id=draw(st.integers(min_value=1, max_value=1 << 40)),
                object_type=draw(st.sampled_from(OTYPES)),
                amount=draw(st.integers(min_value=0, max_value=1 << 30)),
                failure_code=draw(st.integers(min_value=0, max_value=255)),
            )
        )
    return out


def result_of(batch):
    block = ColumnBlock()
    for event in batch:
        block.append(event)
    return BlockScanResult([Selection(block, range(len(block)))])


def by_time(batch):
    return sorted(batch, key=lambda e: (e.start_time, e.event_id))


@given(events())
@settings(max_examples=60, deadline=None)
def test_event_batch_round_trip(batch):
    assert decode_events(encode_events(batch)) == tuple(batch)


@given(events())
@settings(max_examples=60, deadline=None)
def test_result_round_trip_preserves_values_in_time_order(batch):
    selection = decode_result(encode_result(result_of(batch)))
    if not batch:
        assert selection is None
        return
    assert selection.block.events() == by_time(batch)
    assert selection.block.time_sorted


@given(events(max_agent=400))
@settings(max_examples=25, deadline=None)
def test_result_round_trip_wide_agent_dictionaries(batch):
    selection = decode_result(encode_result(result_of(batch)))
    expected = by_time(batch)
    got = [] if selection is None else selection.block.events()
    assert got == expected


@given(events(), st.integers(min_value=0, max_value=90))
@settings(max_examples=60, deadline=None)
def test_watermark_caps_the_rows_that_cross(batch, watermark):
    """Rows above the watermark never reach the wire (the permuted-sender
    half of this property lives with the codec, in
    ``test_block_codec_props``)."""
    payload = encode_result(result_of(batch), watermark=watermark)
    selection = decode_result(payload)
    expected = by_time([e for e in batch if e.event_id <= watermark])
    assert payload["n"] == len(expected)
    got = [] if selection is None else selection.block.events()
    assert got == expected


@given(
    events(),
    st.integers(min_value=0, max_value=90),
    st.frozensets(st.integers(min_value=1, max_value=80), max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_routed_scans_see_what_a_scatter_reply_carries(batch, watermark, torn):
    """A routed query's scan (:func:`capped_result`, on the worker) holds
    exactly the rows, in the order, that the same scan's scatter reply
    decodes to on the coordinator."""
    result = result_of(batch)
    local = capped_result(result, watermark, torn)
    selection = decode_result(encode_result(result, watermark, torn))
    gathered = BlockScanResult([] if selection is None else [selection])
    assert local.events() == gathered.events()
    assert local.time_bounds() == gathered.time_bounds()


# -- owner shards ------------------------------------------------------------------


@st.composite
def spatial_temporal_filter(draw):
    """Filters of every shape the owner rule distinguishes: with and
    without agents, with a bounded, half-open or unbounded window."""
    agents = draw(
        st.none() | st.frozensets(st.integers(min_value=1, max_value=60), max_size=4)
    )
    start = draw(st.none() | st.floats(min_value=0, max_value=9 * DAY, allow_nan=False))
    length = draw(st.none() | st.floats(min_value=0, max_value=4 * DAY, allow_nan=False))
    end = None if length is None else (start or 0.0) + length
    return EventFilter(agent_ids=agents, window=TimeWindow(start=start, end=end))


@given(
    batch=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=60),
            st.floats(min_value=0, max_value=12 * DAY, allow_nan=False),
        ),
        max_size=60,
    ),
    flt=spatial_temporal_filter(),
    shards=st.integers(min_value=1, max_value=7),
    agents_per_group=st.sampled_from([1, 3, 10]),
)
@settings(max_examples=300, deadline=None)
def test_owner_shards_cover_every_shard_holding_a_matching_row(
    batch, flt, shards, agents_per_group
):
    """A row is routed by its (day, agent group); whatever the batch and
    the filter, the shard of every row the filter's agents and window
    admit is among the filter's owners."""
    scheme = PartitionScheme(agents_per_group=agents_per_group)
    owners = owner_shards(flt, scheme, shards)
    assert owners <= set(range(shards))
    holding = {
        route(scheme.key_for(agent, start), shards)
        for agent, start in batch
        if (flt.agent_ids is None or agent in flt.agent_ids)
        and flt.window.contains(start)
    }
    assert holding <= owners
    if flt.agent_ids is None or not flt.window.is_bounded():
        assert owners == set(range(shards))
