"""Cold tier: segment round-trips, zone-map pruning, manifest durability."""

import dataclasses
import gc
import json
import threading
import weakref
import zlib

import pytest

from repro.model.entities import EntityType
from repro.model.events import Operation
from repro.model.time import DAY, TimeWindow
from repro.obs.trace import Trace, activate
from repro.storage.blocks import ColumnBlock
from repro.storage.codec import BLOCK_KIND, pack_frame, unpack_frame
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.partition import PartitionKey
from repro.tier import cold
from repro.tier.cold import ColdTier, ColdTierError, ZoneMap

from tests.tier.conftest import day_ts
from tests.oracle import cold_rows


def day_ordinal(day: int) -> int:
    return int(day_ts(day) // DAY)


def make_tier(feed, tmp_path, days=(0, 1, 2), agents=(1,), per_day=4, **kw):
    tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get, **kw)
    for day in days:
        for agent in agents:
            events = [
                feed.emit(agent, day_ts(day, 120.0 * i)) for i in range(per_day)
            ]
            key = PartitionKey(day=day_ordinal(day), agent_group=agent // 10)
            tier.add_segments([(key, ColumnBlock.from_events(events))])
    return tier


class TestSegmentRoundTrip:
    def test_events_survive_compression(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,), per_day=6)
        got = cold_rows(tier, EventFilter())
        assert len(got) == 6
        assert got == sorted(got, key=lambda e: (e.start_time, e.event_id))
        assert all(e.operation is Operation.WRITE for e in got)
        assert tier.event_count == 6

    def test_reload_from_manifest(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1))
        before = cold_rows(tier, EventFilter())
        reloaded = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        assert cold_rows(reloaded, EventFilter()) == before
        assert reloaded.event_count == tier.event_count
        assert len(reloaded.zones) == 2

    def test_empty_segment_rejected(self, feed, tmp_path):
        tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        with pytest.raises(ValueError):
            tier.add_segments([(PartitionKey(day=0, agent_group=0), ColumnBlock())])

    def test_corrupt_manifest_is_loud(self, feed, tmp_path):
        make_tier(feed, tmp_path, days=(0,))
        (tmp_path / "cold" / "manifest.json").write_text("{not json")
        with pytest.raises(ColdTierError):
            ColdTier(tmp_path / "cold", feed.ingestor.registry.get)

    def test_unsupported_manifest_version_is_loud(self, feed, tmp_path):
        make_tier(feed, tmp_path, days=(0,))
        path = tmp_path / "cold" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ColdTierError):
            ColdTier(tmp_path / "cold", feed.ingestor.registry.get)

    def test_version_1_manifest_is_refused(self, feed, tmp_path):
        make_tier(feed, tmp_path, days=(0,))
        path = tmp_path / "cold" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1  # the JSON-column segment format
        path.write_text(json.dumps(manifest))
        with pytest.raises(ColdTierError, match="version"):
            ColdTier(tmp_path / "cold", feed.ingestor.registry.get)

    def _other_segment(self, feed, tmp_path, rows):
        """A well-formed segment file holding ``rows`` other events."""
        other = make_tier(feed, tmp_path / "other", days=(5,), per_day=rows)
        return (other.directory / other.zones[0].filename).read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob, other: b"garbage",
            # inflates fine, but is not a segment
            lambda blob, other: zlib.compress(b"{}"),
            # a checksummed frame that is not a block
            lambda blob, other: pack_frame(BLOCK_KIND, b"{}", compress=True),
            # a valid block whose columns hold one row more than the zone map
            lambda blob, other: other,
            lambda blob, other: blob[:-3],
            lambda blob, other: blob[:40] + bytes([blob[40] ^ 4]) + blob[41:],
        ],
    )
    def test_corrupt_segment_file_is_loud(self, feed, tmp_path, damage):
        tier = make_tier(feed, tmp_path, days=(0,))
        path = tmp_path / "cold" / tier.zones[0].filename
        path.write_bytes(
            damage(path.read_bytes(), self._other_segment(feed, tmp_path, 5))
        )
        fresh = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        with pytest.raises(ColdTierError):
            cold_rows(fresh, EventFilter())

    def test_column_of_the_wrong_length_is_typed(self, feed, tmp_path):
        """Columns that disagree with the declared row count, behind a
        valid checksum: the codec's own check, not a raw TypeError."""
        tier = make_tier(feed, tmp_path, days=(0,))
        path = tmp_path / "cold" / tier.zones[0].filename
        payload = bytes(unpack_frame(path.read_bytes(), BLOCK_KIND))
        path.write_bytes(pack_frame(BLOCK_KIND, payload[:-8], compress=True))
        fresh = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        with pytest.raises(ColdTierError, match="rows need"):
            cold_rows(fresh, EventFilter())


class TestZoneMapPruning:
    def test_time_window_prunes_other_days(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2, 3))
        window = TimeWindow(start=day_ts(1, 0.0), end=day_ts(1, 0.0) + DAY)
        got = cold_rows(tier, EventFilter(window=window))
        assert len(got) == 4
        assert tier.segments_pruned == 3
        assert tier.segments_scanned == 1
        assert tier.prune_rate() == 0.75

    def test_agent_set_prunes(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,), agents=(1, 25))
        got = cold_rows(tier, EventFilter(agent_ids=frozenset({25})))
        assert {e.agent_id for e in got} == {25}
        assert tier.segments_pruned == 1

    def test_operation_and_object_type_prune(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,))
        assert (
            cold_rows(tier, EventFilter(operations=frozenset({Operation.CONNECT})))
            == []
        )
        assert tier.segments_pruned == 1
        assert cold_rows(tier, EventFilter(object_type=EntityType.NETWORK)) == []
        assert tier.segments_pruned == 2

    def test_entity_id_sets_prune(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,))
        proc, fobj = feed.entities(1)
        unknown = frozenset({proc.id + 999})
        assert cold_rows(tier, EventFilter(subject_ids=unknown)) == []
        assert tier.segments_pruned == 1
        got = cold_rows(tier, EventFilter(object_ids=frozenset({fobj.id})))
        assert len(got) == 4
        unknown = frozenset({fobj.id + 999})
        assert cold_rows(tier, EventFilter(object_ids=unknown)) == []

    def test_estimated_events_counts_unpruned_only(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2))
        window = TimeWindow(start=day_ts(0, 0.0), end=day_ts(0, 0.0) + DAY)
        assert tier.estimated_events(EventFilter(window=window)) == 4
        assert tier.estimated_events(EventFilter()) == 12

    def test_zone_map_json_roundtrip(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,))
        zone = tier.zones[0]
        assert ZoneMap.from_json(zone.to_json()) == zone
        assert zone.key == PartitionKey(
            day=day_ordinal(0), agent_group=0
        )


class TestSegmentCache:
    def test_lru_keeps_hot_segments(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2), cache_segments=2)
        cold_rows(tier, EventFilter())  # touch all three
        assert len(tier._cache) == 2  # LRU bound holds

    def test_probe_reads_ids_and_agents_from_columns(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,))
        stored = cold_rows(tier, EventFilter())
        fresh = feed.emit(1, day_ts(5))
        # same id as a stored row, but an agent the segment never saw
        alien = dataclasses.replace(stored[1], agent_id=77)
        block = ColumnBlock.from_events([stored[0], fresh, alien, stored[2]])
        probe = tier.event_id_probe()
        assert probe(block, range(len(block))) == [0, 3]
        assert probe(block, [1, 2, 3]) == [3]
        assert probe(block, []) == []
        assert not block.rows_materialized

    def test_event_id_probe_decompresses_each_segment_once(
        self, feed, tmp_path
    ):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2), per_day=5)
        stored = ColumnBlock.from_events(cold_rows(tier, EventFilter()))
        calls = []
        original = tier._decoded
        tier._decoded = lambda zone: (
            calls.append(zone.filename), original(zone)
        )[1]
        probe = tier.event_id_probe()
        everything = list(range(len(stored)))
        assert probe(stored, range(len(stored))) == everything
        assert probe(stored, everything) == everything  # a second pass
        # one materialization per segment, however many rows were probed
        assert len(calls) == len(tier.zones)
        fresh = ColumnBlock.from_events([feed.emit(1, day_ts(9))])
        # above every zone's id range: dropped at block level, no reads
        assert probe(fresh, range(1)) == []
        assert len(calls) == len(tier.zones)

    def test_seq_maxima_come_from_manifest(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1), agents=(1, 2), per_day=3)
        reloaded = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        maxima = reloaded.seq_maxima()
        assert set(maxima) == {1, 2}
        assert maxima[1] == 6  # 2 days x 3 events, per-agent monotone seq
        assert maxima[2] == 6

    def test_column_blocks_and_sizes(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1))
        assert len(list(tier.column_blocks())) == len(tier.zones)
        assert sum(n for _, n in tier.column_blocks()) == 8
        assert tier.size_bytes() > 0
        assert tier.max_event_id() == max(
            e.event_id for e in cold_rows(tier, EventFilter())
        )
        lo, hi = tier.time_range()
        assert lo == day_ts(0, 0.0) + 0.0 or lo <= hi
        empty = ColdTier(tmp_path / "cold2", feed.ingestor.registry.get)
        assert empty.time_range() == (None, None)
        assert empty.prune_rate() == 0.0

    def test_cache_segments_validation(self, feed, tmp_path):
        with pytest.raises(ValueError):
            ColdTier(tmp_path / "cold", feed.ingestor.registry.get,
                     cache_segments=0)


class TestOneDecodedBlockPerSegment:
    """A segment whose decoded block is still held anywhere is never
    decoded again, and no file ever has two live decoded blocks."""

    def test_cached_selections_lend_their_blocks(self, feed, tmp_path, monkeypatch):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2), cache_segments=1)
        decodes = []
        real = cold.decode_block
        monkeypatch.setattr(
            cold, "decode_block", lambda blob: decodes.append(blob) or real(blob)
        )
        first = tier.scan_selections(EventFilter(agent_ids=frozenset({1})))
        second = tier.scan_selections(
            EventFilter(operations=frozenset({Operation.WRITE}))
        )
        assert len(decodes) == 3  # the LRU holds one, the scan cache the rest
        assert len(second) == 3
        assert all(b.block is a.block for a, b in zip(first, second))

    def test_dropped_blocks_are_freed(self, feed, tmp_path):
        tier = make_tier(
            feed, tmp_path, days=(0, 1, 2), cache_segments=1, scan_cache_entries=0
        )
        refs = [weakref.ref(s.block) for s in tier.scan_selections(EventFilter())]
        assert len(refs) == 3
        gc.collect()
        assert sum(ref() is not None for ref in refs) <= 1  # the LRU's one
        assert len(tier._live) <= 1

    def test_racing_decodes_adopt_one_block(self, feed, tmp_path, monkeypatch):
        tier = make_tier(feed, tmp_path, days=(0,))
        barrier = threading.Barrier(2, timeout=10)
        real = cold.decode_block

        def decode_together(blob):
            barrier.wait()  # both threads have missed every cache
            return real(blob)

        monkeypatch.setattr(cold, "decode_block", decode_together)
        zone = tier.zones[0]
        got = [None, None]

        def decode(i):
            got[i] = tier._decoded(zone)

        threads = [threading.Thread(target=decode, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert got[0] is not None and got[0] is got[1]

    def test_decodes_are_counted_on_the_span_and_in_stats(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2))
        before = tier.stats()["segments_decoded"]
        counted = []
        for _ in range(2):
            with activate(Trace()) as trace:
                tier.scan_selections(EventFilter())
            counted.append(trace.root.counters["cold_segments_decoded"])
        assert counted == [3, 0]
        assert tier.stats()["segments_decoded"] - before == 3


class TestColdRowsVisited:
    """The cold scan reports the in-window rows of its surviving segments
    beside the rows it selects, on the span and in the registry."""

    def test_span_and_counter_count_in_window_rows(
        self, feed, tmp_path, monkeypatch
    ):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2), per_day=4)
        monkeypatch.setattr(cold.REGISTRY, "enabled", True)
        counter = cold.REGISTRY.get("aiql_cold_rows_visited_total")
        before = counter.value()
        # Day 1 from its second event on; day 0 and day 2 are pruned.  The
        # second scan's predicate matches no process: it visits the same
        # rows and selects none.
        window = TimeWindow(start=day_ts(1, 120.0), end=day_ts(1, 0.0) + DAY)
        nobody = PredicateLeaf(AttrPredicate("exe_name", "=", "nosuch.exe"))
        with activate(Trace()) as trace:
            assert len(cold_rows(tier, EventFilter(window=window))) == 3
            flt = EventFilter(window=window, subject_pred=nobody)
            assert cold_rows(tier, flt) == []
        counters = trace.root.counters
        assert counters["cold_segments_pruned"] == 2 * 2
        assert counters["cold_rows_visited"] == 2 * 3
        assert counters["cold_rows_selected"] == 3
        assert counter.value() - before == 2 * 3

    def test_nothing_counted_untraced_with_metrics_off(
        self, feed, tmp_path, monkeypatch
    ):
        tier = make_tier(feed, tmp_path, days=(0,))
        monkeypatch.setattr(cold.REGISTRY, "enabled", False)
        counter = cold.REGISTRY.get("aiql_cold_rows_visited_total")
        before = counter.value()
        assert len(cold_rows(tier, EventFilter())) == 4
        assert counter.value() == before


def segment_items(feed, days=(0, 1, 2), agent=1, per_day=3):
    """``(key, block)`` pairs, one segment per day, for ``add_segments``."""
    items = []
    for day in days:
        events = [feed.emit(agent, day_ts(day, 120.0 * i)) for i in range(per_day)]
        items.append(
            (
                PartitionKey(day=day_ordinal(day), agent_group=agent // 10),
                ColumnBlock.from_events(events),
            )
        )
    return items


class TestBatchedPublication:
    """``add_segments``: every file first, then one manifest rewrite."""

    def test_one_manifest_write_per_batch(self, feed, tmp_path, monkeypatch):
        tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        saves = []
        save = ColdTier._save_manifest
        monkeypatch.setattr(
            ColdTier,
            "_save_manifest",
            lambda self, zones, next_id: saves.append(len(zones))
            or save(self, zones, next_id),
        )
        zones = tier.add_segments(segment_items(feed))
        assert saves == [3]
        assert tier.zones == tuple(zones)

    def test_manifest_and_files_match_one_by_one(self, feed, tmp_path):
        items = segment_items(feed)
        single = ColdTier(tmp_path / "single", feed.ingestor.registry.get)
        for key, block in items:
            single.add_segments([(key, block)])
        batched = ColdTier(tmp_path / "batched", feed.ingestor.registry.get)
        batched.add_segments(items)
        assert (single.directory / "manifest.json").read_bytes() == (
            batched.directory / "manifest.json"
        ).read_bytes()
        for zone in single.zones:
            assert (single.directory / zone.filename).read_bytes() == (
                batched.directory / zone.filename
            ).read_bytes()

    def test_empty_block_rejected_before_any_write(self, feed, tmp_path):
        tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        items = segment_items(feed, days=(0,))
        items.append((PartitionKey(day=0, agent_group=0), ColumnBlock()))
        with pytest.raises(ValueError):
            tier.add_segments(items)
        assert list(tier.directory.iterdir()) == []

    def test_failure_mid_batch_keeps_old_manifest_and_zones(
        self, feed, tmp_path, monkeypatch
    ):
        tier = make_tier(feed, tmp_path, days=(0,))
        manifest = (tier.directory / "manifest.json").read_bytes()
        old_zones = tier.zones
        before = cold_rows(tier, EventFilter())
        encode = cold.encode_block
        calls = []

        def failing(block, compress=False):
            calls.append(len(block))
            if len(calls) == 3:
                raise OSError("disk full")
            return encode(block, compress=compress)

        monkeypatch.setattr(cold, "encode_block", failing)
        with pytest.raises(OSError):
            tier.add_segments(segment_items(feed, days=(1, 2, 3)))
        monkeypatch.setattr(cold, "encode_block", encode)
        # Two files were written; no manifest names them.
        written = {p.name for p in tier.directory.glob("*.seg")}
        assert len(written) == 1 + 2
        assert (tier.directory / "manifest.json").read_bytes() == manifest
        assert tier.zones == old_zones
        assert cold_rows(tier, EventFilter()) == before
        # Recovery reads the old zones; the orphans are invisible.
        reopened = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        assert reopened.zones == old_zones
        assert cold_rows(reopened, EventFilter()) == before
        # The failed batch did not advance the segment counter; the next
        # batch publishes cleanly.
        zones = reopened.add_segments(segment_items(feed, days=(4,)))
        assert zones[0].filename.endswith("-000001.seg")
        assert len(cold_rows(reopened, EventFilter())) == len(before) + 3


def mixed_segment_tier(feed, tmp_path, **kw):
    """One segment holding two agents, two operations and two object types
    — nothing the zone map alone can prune for the filters below."""
    tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get, **kw)
    ingestor = feed.ingestor
    proc, fobj = feed.entities(1)
    conn = ingestor.connection(1, "10.0.0.5", 51000, "10.1.1.1", 4444)
    events = [feed.emit(1, day_ts(0, 60.0 * i)) for i in range(4)]
    events += [feed.emit(1, day_ts(0, 300.0 + 60.0 * i), "read") for i in range(2)]
    events.append(ingestor.emit(1, day_ts(0, 600.0), "connect", proc, conn))
    events += [feed.emit(2, day_ts(0, 7200.0 + 60.0 * i)) for i in range(3)]
    key = PartitionKey(day=day_ordinal(0), agent_group=0)
    tier.add_segments([(key, ColumnBlock.from_events(events))])
    return tier, events


class TestColumnarScan:
    """The kernel-era cold path: structural prefilter on raw columns."""

    def interpreted(self, tier, flt):
        from repro.storage.kernels import use_kernels

        with use_kernels(False):
            return cold_rows(tier, flt)

    @pytest.mark.parametrize(
        "flt_kwargs",
        [
            {"agent_ids": frozenset({2})},
            {"operations": frozenset({Operation.READ})},
            {"object_type": EntityType.NETWORK},
            {"window": TimeWindow(start=day_ts(0, 250.0), end=day_ts(0, 700.0))},
        ],
    )
    def test_row_level_structural_filters(self, feed, tmp_path, flt_kwargs):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        flt = EventFilter(**flt_kwargs)
        got = cold_rows(tier, flt)
        assert got  # the segment holds at least one survivor per case
        assert got == self.interpreted(tier, flt)
        assert tier.segments_scanned >= 1  # zone map could not prune

    def test_narrowed_id_sets_filter_rows(self, feed, tmp_path):
        tier, events = mixed_segment_tier(feed, tmp_path)
        proc, fobj = feed.entities(2)
        flt = EventFilter(
            subject_ids=frozenset({proc.id}), object_ids=frozenset({fobj.id})
        )
        got = cold_rows(tier, flt)
        assert got == self.interpreted(tier, flt)
        assert {e.agent_id for e in got} == {2}

    def test_prefilter_misses_never_materialize(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        # Agent 3 is inside no zone map: the scan is pruned without decode.
        assert cold_rows(tier, EventFilter(agent_ids=frozenset({3}))) == []
        assert tier._cache == {}
        # A window inside the segment's range but between events survives
        # the zone map, decodes columns, then matches no row: the block
        # must stay un-materialized (no SystemEvent construction).
        window = TimeWindow(start=day_ts(0, 601.0), end=day_ts(0, 650.0))
        assert cold_rows(tier, EventFilter(window=window)) == []
        (block,) = tier._cache.values()
        assert not block.rows_materialized

    def test_materialized_segments_still_scan_correctly(self, feed, tmp_path):
        tier, events = mixed_segment_tier(feed, tmp_path)
        for block, visible in tier.column_blocks():
            block.events(visible)  # materialize every row of the raw view
        (block,) = tier._cache.values()
        assert block.rows_materialized
        flt = EventFilter(operations=frozenset({Operation.CONNECT}))
        got = cold_rows(tier, flt)
        assert [e.operation for e in got] == [Operation.CONNECT]
        assert got == self.interpreted(tier, flt)

    def test_entity_predicates_run_after_prefilter(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        from repro.storage.filters import AttrPredicate, PredicateLeaf

        flt = EventFilter(
            agent_ids=frozenset({1}),
            object_pred=PredicateLeaf(
                AttrPredicate(attr="name", op="=", value="%host1%")
            ),
        )
        got = cold_rows(tier, flt)
        assert got == self.interpreted(tier, flt)
        assert got and all(e.agent_id == 1 for e in got)


class TestColdScanResultCache:
    def test_repeat_scans_hit_the_cache(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        flt = EventFilter(agent_ids=frozenset({1}))
        first = cold_rows(tier, flt)
        assert tier.stats()["scan_cache"]["misses"] == 1
        assert cold_rows(tier, flt) == first
        assert tier.stats()["scan_cache"]["hits"] == 1

    def test_hits_fetch_no_segment(self, feed, tmp_path, monkeypatch):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2))
        flt = EventFilter(agent_ids=frozenset({1}))
        first = tier.scan_selections(flt)
        fetched = []
        real = tier._fetch
        monkeypatch.setattr(
            tier, "_fetch", lambda zone: fetched.append(zone) or real(zone)
        )
        again = tier.scan_selections(flt)
        assert fetched == []
        assert [s.block for s in again] == [s.block for s in first]
        assert tier.stats()["scan_cache"]["hits"] == 3

    def test_lru_eviction_respects_bound(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2), scan_cache_entries=2)
        flts = [
            EventFilter(
                window=TimeWindow(start=day_ts(day, 0.0), end=day_ts(day + 1, 0.0))
            )
            for day in (0, 1, 2)
        ]
        cold_rows(tier, flts[0])
        cold_rows(tier, flts[1])
        cold_rows(tier, flts[0])  # refresh day 0
        cold_rows(tier, flts[2])  # evicts day 1
        cold_rows(tier, flts[0])  # still cached
        cold_rows(tier, flts[1])  # scanned again
        assert tier.stats()["scan_cache"] == {
            "entries": 2,
            "hits": 2,
            "misses": 4,
            "evictions": 2,
        }

    def test_a_failed_segment_read_caches_nothing(self, feed, tmp_path):
        tier = make_tier(feed, tmp_path, days=(0,))
        path = tmp_path / "cold" / tier.zones[0].filename
        blob = path.read_bytes()
        path.write_bytes(b"garbage")
        with pytest.raises(ColdTierError):
            cold_rows(tier, EventFilter())
        assert tier.stats()["scan_cache"]["entries"] == 0
        path.write_bytes(blob)
        assert len(cold_rows(tier, EventFilter())) == 4
        assert tier.stats()["scan_cache"]["entries"] == 1

    def test_negative_bound_rejected(self, feed, tmp_path):
        with pytest.raises(ValueError):
            ColdTier(tmp_path / "cold", feed.ingestor.registry.get,
                     scan_cache_entries=-1)

    @pytest.mark.parametrize(
        "flt_kwargs",
        [
            {"agent_ids": frozenset({1})},
            {"operations": frozenset({Operation.READ, Operation.CONNECT})},
            {"object_type": EntityType.FILE},
            {"window": TimeWindow(start=day_ts(0, 0.0), end=day_ts(0, 330.0))},
        ],
    )
    def test_cached_answers_equal_the_interpreter(
        self, feed, tmp_path, flt_kwargs
    ):
        from repro.storage.kernels import use_kernels

        tier, _ = mixed_segment_tier(feed, tmp_path)
        flt = EventFilter(**flt_kwargs)
        cold_rows(tier, flt)
        cached = cold_rows(tier, flt)
        assert tier.stats()["scan_cache"]["hits"] == 1
        with use_kernels(False):
            assert cached == cold_rows(tier, flt)

    @pytest.mark.parametrize(
        "extra, cached", [(0, True), (1, False)], ids=["at-limit", "over-limit"]
    )
    def test_id_set_limit_boundary(self, feed, tmp_path, extra, cached):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        proc, _ = feed.entities(1)
        size = cold.CACHEABLE_ID_SET_LIMIT + extra
        ids = frozenset(range(10**6, 10**6 + size - 1)) | {proc.id}
        assert len(ids) == size
        cold_rows(tier, EventFilter(subject_ids=ids))
        assert tier.stats()["scan_cache"]["entries"] == int(cached)

    def test_racing_misses_agree_on_one_block(self, feed, tmp_path, monkeypatch):
        tier = make_tier(feed, tmp_path, days=(0,))
        barrier = threading.Barrier(2, timeout=10)
        real = cold.decode_block

        def decode_together(blob):
            barrier.wait()  # both threads have missed the selection cache
            return real(blob)

        monkeypatch.setattr(cold, "decode_block", decode_together)
        flt = EventFilter(agent_ids=frozenset({1}))
        got = [None, None]

        def scan(i):
            got[i] = tier.scan_selections(flt)

        threads = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        (first,), (second,) = got
        assert first.block is second.block
        assert list(first.positions) == list(second.positions)
        assert tier.stats()["scan_cache"]["misses"] == 2
        (again,) = tier.scan_selections(flt)
        assert again.block is first.block
        assert tier.stats()["scan_cache"]["entries"] == 1

    def test_evicted_selections_release_their_blocks(self, feed, tmp_path):
        tier = make_tier(
            feed, tmp_path, days=(0, 1, 2), cache_segments=1, scan_cache_entries=1
        )
        refs = []
        for day in (0, 1, 2):
            window = TimeWindow(start=day_ts(day, 0.0), end=day_ts(day + 1, 0.0))
            (selection,) = tier.scan_selections(EventFilter(window=window))
            refs.append(weakref.ref(selection.block))
            del selection
        gc.collect()
        assert refs[0]() is None  # neither in the LRU nor in a cached entry
        assert refs[2]() is not None
        assert len(tier._live) <= 2

    def test_giant_narrowed_id_sets_skip_the_cache(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        flt = EventFilter(subject_ids=frozenset(range(1000)))
        cold_rows(tier, flt)
        assert tier.stats()["scan_cache"]["entries"] == 0

    def test_cache_disabled(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path, scan_cache_entries=0)
        flt = EventFilter(agent_ids=frozenset({2}))
        assert cold_rows(tier, flt) == cold_rows(tier, flt)
        assert "scan_cache" not in tier.stats()
        assert not tier._selections

    def test_interpreted_path_bypasses_the_cache(self, feed, tmp_path):
        from repro.storage.kernels import use_kernels

        tier, _ = mixed_segment_tier(feed, tmp_path)
        with use_kernels(False):
            cold_rows(tier, EventFilter(agent_ids=frozenset({1})))
        assert tier.stats()["scan_cache"]["misses"] == 0

    def test_stats_include_scan_cache(self, feed, tmp_path):
        tier, _ = mixed_segment_tier(feed, tmp_path)
        cold_rows(tier, EventFilter(agent_ids=frozenset({1})))
        assert tier.stats()["scan_cache"]["misses"] == 1
        tier_off, _ = mixed_segment_tier(
            feed, tmp_path / "other", scan_cache_entries=0
        )
        assert "scan_cache" not in tier_off.stats()


class TestKernelAndFingerprintOnlyForSurvivors:
    """An empty or fully pruned tier costs a scan no kernel and no cache
    fingerprint; a surviving segment costs one of each per scan."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.storage import kernels

        seen = {"compile": 0, "fingerprint": 0}
        real_compile = kernels.compile_filter
        real_fingerprint = cold.cache_fingerprint

        def compile_filter(flt):
            seen["compile"] += 1
            return real_compile(flt)

        def cache_fingerprint(flt):
            seen["fingerprint"] += 1
            return real_fingerprint(flt)

        monkeypatch.setattr(kernels, "compile_filter", compile_filter)
        monkeypatch.setattr(cold, "cache_fingerprint", cache_fingerprint)
        return seen

    def test_an_empty_tier(self, feed, tmp_path, calls):
        tier = ColdTier(tmp_path / "cold", feed.ingestor.registry.get)
        assert tier.scan_selections(EventFilter(agent_ids=frozenset({1}))) == []
        assert calls == {"compile": 0, "fingerprint": 0}

    def test_a_fully_pruned_tier(self, feed, tmp_path, calls):
        tier = make_tier(feed, tmp_path, days=(0, 1))
        far = TimeWindow(start=day_ts(9), end=day_ts(10))
        assert tier.scan_selections(EventFilter(window=far)) == []
        assert tier.segments_pruned == 2
        assert calls == {"compile": 0, "fingerprint": 0}

    def test_surviving_segments_compile_and_fingerprint_once(
        self, feed, tmp_path, calls
    ):
        tier = make_tier(feed, tmp_path, days=(0, 1, 2))
        flt = EventFilter(agent_ids=frozenset({1}))
        assert len(tier.scan_selections(flt)) == 3
        assert calls == {"compile": 1, "fingerprint": 1}

    def test_a_given_kernel_is_not_recompiled(self, feed, tmp_path, calls):
        from repro.storage.kernels import compile_filter

        tier = make_tier(feed, tmp_path, days=(0, 1))
        flt = EventFilter(agent_ids=frozenset({1}))
        kernel = compile_filter(flt)
        before = calls["compile"]
        narrowed = dataclasses.replace(
            flt, window=TimeWindow(start=day_ts(1, 0.0), end=day_ts(2, 0.0))
        )
        got = tier.scan_selections(narrowed, kernel)
        assert [len(s) for s in got] == [4]
        assert calls["compile"] == before
