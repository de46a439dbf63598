"""Property: one decoded block per cold segment, and answers unchanged.

A cold tier decodes a segment file only when no block for it is still in
memory — in its LRU, pinned by a cached selection, or held by a caller —
and a racing decode adopts the first one's block.  Random sequences of
scans drawn from a small filter pool, with results held or dropped and the
garbage collector run between them, over every small combination of LRU
size and scan-cache size, must:

* answer every scan exactly as the interpreted (``use_kernels(False)``)
  oracle does;
* never leave two live decoded blocks for one segment file;
* never serve a cached selection against a block of another generation.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.events import Operation
from repro.model.time import DAY, TimeWindow
from repro.storage.blocks import BlockScanResult
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.ingest import Ingestor
from repro.storage.kernels import use_kernels
from repro.storage.partition import PartitionKey
from repro.tier.cold import ColdTier

from tests.tier.conftest import EventFeed, day_ts

AGENTS = (1, 25)  # two agent groups, so a day holds two segments


def filter_pool(feed):
    proc1, file1 = feed.entities(1)
    day1 = day_ts(1, 0.0)
    return [
        EventFilter(),
        EventFilter(agent_ids=frozenset({25})),
        EventFilter(operations=frozenset({Operation.READ})),
        EventFilter(window=TimeWindow(start=day1, end=day1 + DAY)),
        EventFilter(object_ids=frozenset({file1.id})),
        # a scheduler-sized id set: bypasses the scan cache
        EventFilter(subject_ids=frozenset(range(1000, 1200)) | {proc1.id}),
        EventFilter(
            object_pred=PredicateLeaf(
                AttrPredicate(attr="name", op="=", value="%host25%")
            )
        ),
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Six segment files, the filter pool, and each filter's oracle answer."""
    feed = EventFeed(Ingestor())
    directory = tmp_path_factory.mktemp("cold")
    tier = ColdTier(directory, feed.ingestor.registry.get)
    for day in (0, 1, 2):
        for agent in AGENTS:
            events = [
                feed.emit(agent, day_ts(day, 120.0 * i), ("write", "read")[i % 2])
                for i in range(6)
            ]
            ordinal = int(day_ts(day) // DAY)
            tier.add_segment(PartitionKey(ordinal, agent // 10), events)
    pool = filter_pool(feed)
    with use_kernels(False):
        oracle = [tier.scan(flt) for flt in pool]
    return directory, feed.ingestor.registry.get, pool, oracle


STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # index into the filter pool
        st.sampled_from(("hold", "drop", "collect")),
    ),
    min_size=1,
    max_size=12,
)


def live_blocks_by_segment(refs):
    """Distinct live blocks per segment, among the weakly referenced ones."""
    live = {}
    for ref in refs:
        block = ref()
        if block is not None:
            # event ids are unique across segments: the first names the file
            live.setdefault(block.event_ids[0], set()).add(id(block))
    return live


@given(
    steps=STEPS,
    cache_segments=st.sampled_from((1, 2)),
    scan_cache_entries=st.sampled_from((0, 2, 128)),
)
@settings(max_examples=60, deadline=None)
def test_one_live_block_per_segment(
    corpus, steps, cache_segments, scan_cache_entries
):
    directory, lookup, pool, oracle = corpus
    tier = ColdTier(
        directory,
        lookup,
        cache_segments=cache_segments,
        scan_cache_entries=scan_cache_entries,
    )
    held = []
    seen = []  # a weakref to every block any scan returned
    for index, action in steps:
        selections = tier.scan_selections(pool[index])
        assert BlockScanResult(selections).events() == oracle[index]
        seen.extend(weakref.ref(s.block) for s in selections)
        held.append(selections)
        if action != "hold":
            held.clear()
            del selections
        if action == "collect":
            gc.collect()
        live = live_blocks_by_segment(seen)
        assert all(len(blocks) == 1 for blocks in live.values())
    if tier.scan_cache is not None:
        assert tier.scan_cache.stats()["generation_mismatches"] == 0
