"""Cold tier: immutable, compressed, columnar segment files with zone maps.

The hot stores keep the recent retention window in RAM; everything older
lives here as *cold segments* — one immutable file per migrated hot
partition chunk, keyed by the ``(day, agent-group)`` partition key.  A
segment file is one deflated block frame of :mod:`repro.storage.codec`
(fixed-width binary columns, length-prefixed and checksummed), and every
segment carries a **zone map** in the tier manifest:

* min/max start time and min/max event id,
* the agent-id, subject-id, object-id and operation sets,
* per-agent max sequence numbers (so crash recovery can fast-forward the
  ingestor without decompressing anything).

Zone maps let the scan path — and the scheduler's cost estimates — prune
cold segments *without opening them*: a query whose window, agent set,
operation set or entity-id sets are disjoint from a segment's zone map
never pays the decompression.  Nor does it pay a zone-map test per
segment held: the tier publishes its zones with a time-ordered view
(:class:`ZoneTimeline`, sorted by start time with a running maximum of
end times), and a scan bisects its window on it and tests only the zones
whose time span can meet the window.  The id sets are the scheduler's join
narrowings intersected with the ids the hot store's entity attribute
index resolves a pattern's entity predicates to (the tiered scan narrows
once, for both tiers), so ``proc p["%cmd%"]`` prunes every segment none
of whose subjects match, and a surviving segment's rows are cut by id
before the entity predicate runs.  A segment that does
match is decoded once while it is in memory: a small LRU keeps the most
recently read segments, and a weak map from segment file to decoded block
finds any block still held anywhere else — by a cached selection or an
in-flight result — so a segment still held anywhere is never read and
inflated again.  At most one decoded block per segment file is alive: the
LRU's ``cache_segments``, plus the segments the cached selections
reference, plus those in-flight results.

Segments that survive the zone maps decode into the same typed
:class:`~repro.storage.blocks.ColumnBlock` representation the hot tier
stores natively, and scans run the batch kernel straight on those columns
— set membership against dictionary codes, bisected windows, predicates
only on the surviving tail.  :class:`~repro.model.events.SystemEvent`
objects are lazily materialized row views; a segment none of whose rows
survive never pays object construction.  Segments are immutable, so a
segment's survivors under one filter never change: an LRU of per-segment
selections keyed by ``(segment file, filter fingerprint)`` answers a
repeated scan of a surviving segment before the segment is fetched, and
never needs invalidation.  The key is the filter as the scan was asked
for it, before index resolution: a segment's entities were all indexed
before it was published, so the narrowed and the raw filter select the
same rows of it, and an entity registered later changes no key.  Its
entries pin their blocks, which is what
keeps a query's working set decoded when it spans more segments than the
decoded-block LRU holds.

The manifest (``manifest.json``) is the tier's source of truth and is
rewritten atomically (temp file + rename), once per batch of segments (a
compaction pass); segment files are written durably *before* the
manifest references them, so a crash mid-migration
leaves at worst an orphaned segment file, never a manifest pointing at a
missing or torn segment.  The manifest is version 2; a version-1 directory
(JSON-column segments) is refused with :class:`ColdTierError` rather than
misread.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.model.time import TimeWindow
from repro.obs.metrics import REGISTRY
from repro.obs.trace import active_trace
from repro.storage.blocks import (
    OP_VALUE_BY_CODE,
    OTYPE_VALUE_BY_CODE,
    ColumnBlock,
    Positions,
    Selection,
)
from repro.storage.codec import BlockCodecError, decode_block, encode_block
from repro.storage.filters import EventFilter, filter_fingerprint
from repro.storage.kernels import ScanKernel, constant_false, scan_kernel
from repro.storage.partition import PartitionKey

MANIFEST_VERSION = 2

# Scheduler-narrowed sub-queries can carry join-derived id sets with
# thousands of members; their fingerprints are one-off (query-result-
# dependent), so caching them churns the selection LRU and evicts the
# reusable base-pattern entries.
CACHEABLE_ID_SET_LIMIT = 128


def cache_fingerprint(flt: EventFilter) -> Optional[tuple]:
    """The selection LRU's key policy, in one place.

    Returns the canonical :func:`~repro.storage.filters.filter_fingerprint`
    for cacheable filters and ``None`` for ones that should bypass the
    cache (giant scheduler-narrowed id sets: one-off keys whose
    fingerprints cost an O(n log n) sort each).
    """
    size = len(flt.subject_ids or ()) + len(flt.object_ids or ())
    if size > CACHEABLE_ID_SET_LIMIT:
        return None
    return filter_fingerprint(flt)


_M_COLD_CONSIDERED = REGISTRY.counter(
    "aiql_cold_segments_considered_total", "Cold segments examined by zone maps"
)
_M_COLD_PRUNED = REGISTRY.counter(
    "aiql_cold_segments_pruned_total", "Cold segments pruned without decoding"
)
_M_COLD_SCANNED = REGISTRY.counter(
    "aiql_cold_segments_scanned_total", "Cold segments decoded and scanned"
)
_M_COLD_VISITED = REGISTRY.counter(
    "aiql_cold_rows_visited_total",
    "In-window rows of the cold segments that survived zone-map pruning",
)
_M_COLD_ROWS = REGISTRY.counter(
    "aiql_cold_rows_selected_total", "Rows selected from cold segments"
)
_M_COLD_DECODES = REGISTRY.counter(
    "aiql_cold_segment_decodes_total", "Cold segment files read and inflated"
)


class ColdTierError(ValueError):
    """Raised for unusable cold-tier directories or segment files."""


@dataclass(frozen=True)
class ZoneMap:
    """Per-segment pruning metadata; everything needed to skip a segment."""

    filename: str
    day: int
    agent_group: int
    count: int
    min_time: float
    max_time: float
    min_eid: int
    max_eid: int
    agents: frozenset
    operations: frozenset  # operation value strings
    object_types: frozenset  # entity-type value strings
    subjects: frozenset
    objects: frozenset
    seqs: Tuple[Tuple[int, int], ...]  # (agent_id, max seq) pairs

    @property
    def key(self) -> PartitionKey:
        return PartitionKey(day=self.day, agent_group=self.agent_group)

    def may_match(self, flt: EventFilter) -> bool:
        """False only when *no* event in the segment can satisfy ``flt``."""
        window = flt.window
        if window.start is not None and self.max_time < window.start:
            return False
        if window.end is not None and self.min_time >= window.end:
            return False
        if flt.agent_ids is not None and self.agents.isdisjoint(flt.agent_ids):
            return False
        if flt.operations is not None and self.operations.isdisjoint(
            op.value for op in flt.operations
        ):
            return False
        if (
            flt.object_type is not None
            and flt.object_type.value not in self.object_types
        ):
            return False
        if flt.subject_ids is not None and self.subjects.isdisjoint(
            flt.subject_ids
        ):
            return False
        if flt.object_ids is not None and self.objects.isdisjoint(flt.object_ids):
            return False
        return True

    def to_json(self) -> dict:
        return {
            "file": self.filename,
            "day": self.day,
            "group": self.agent_group,
            "count": self.count,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "min_eid": self.min_eid,
            "max_eid": self.max_eid,
            "agents": sorted(self.agents),
            "ops": sorted(self.operations),
            "otypes": sorted(self.object_types),
            "subjects": sorted(self.subjects),
            "objects": sorted(self.objects),
            "seqs": [[agent, seq] for agent, seq in self.seqs],
        }

    @classmethod
    def from_json(cls, record: dict) -> "ZoneMap":
        return cls(
            filename=record["file"],
            day=record["day"],
            agent_group=record["group"],
            count=record["count"],
            min_time=record["min_time"],
            max_time=record["max_time"],
            min_eid=record["min_eid"],
            max_eid=record["max_eid"],
            agents=frozenset(record["agents"]),
            operations=frozenset(record["ops"]),
            object_types=frozenset(record["otypes"]),
            subjects=frozenset(record["subjects"]),
            objects=frozenset(record["objects"]),
            seqs=tuple((agent, seq) for agent, seq in record["seqs"]),
        )

    @classmethod
    def for_block(
        cls, filename: str, key: PartitionKey, block: ColumnBlock
    ) -> "ZoneMap":
        """A non-empty segment block's zone map, read off its columns and
        the summary fields the block keeps."""
        agents = block.agents
        seqs: Dict[int, int] = {}
        for code, seq in zip(block.agent_codes, block.seqs):
            if seq > seqs.get(agents[code], 0):
                seqs[agents[code]] = seq
        return cls(
            filename=filename,
            day=key.day,
            agent_group=key.agent_group,
            count=len(block),
            min_time=block.min_time,
            max_time=block.max_time,
            min_eid=min(block.event_ids),
            max_eid=block.max_event_id,
            agents=frozenset(agents),
            operations=frozenset(OP_VALUE_BY_CODE[c] for c in block.op_universe),
            object_types=frozenset(
                OTYPE_VALUE_BY_CODE[c] for c in block.otype_universe
            ),
            subjects=frozenset(block.subject_ids),
            objects=frozenset(block.object_ids),
            seqs=tuple(sorted(seqs.items())),
        )


class ZoneTimeline:
    """The published zones, and the same zones ordered by start time.

    ``zones`` is the manifest order.  Beside it the timeline keeps the
    zones sorted by ``min_time`` and a running maximum of their
    ``max_time``, so the zones whose time span can meet a window are one
    contiguous run found by two bisects: those that start before the
    window ends, after the last of the earlier ones that all ended before
    it starts.  The run may still hold a zone that ended early (spans
    overlap); ``may_match`` drops it.  Built once per publish and never
    mutated, so a reader holding one sees one consistent zone list.
    """

    __slots__ = ("zones", "_order", "_starts", "_reach")

    def __init__(self, zones: Sequence[ZoneMap] = ()) -> None:
        self.zones: Tuple[ZoneMap, ...] = tuple(zones)
        zones = self.zones
        # Manifest indices in (min_time, manifest) order.
        self._order = sorted(range(len(zones)), key=lambda i: zones[i].min_time)
        self._starts = [zones[i].min_time for i in self._order]
        self._reach: List[float] = []
        reach = float("-inf")
        for i in self._order:
            reach = max(reach, zones[i].max_time)
            self._reach.append(reach)

    def overlapping(self, window: TimeWindow) -> Sequence[ZoneMap]:
        """The zones a scan of ``window`` must test, in manifest order: a
        superset of those whose ``[min_time, max_time]`` meets ``window``
        (start inclusive, end exclusive, as :meth:`ZoneMap.may_match`)."""
        lo = 0 if window.start is None else bisect_left(self._reach, window.start)
        hi = (
            len(self._starts)
            if window.end is None
            else bisect_left(self._starts, window.end, lo)
        )
        zones = self.zones
        if hi - lo == len(zones):
            return zones
        return [zones[i] for i in sorted(self._order[lo:hi])]


class ColdTier:
    """The on-disk cold half of a :class:`~repro.tier.store.TieredStore`."""

    def __init__(
        self,
        directory,
        entity_lookup: Callable[[int], object],
        cache_segments: int = 4,
        scan_cache_entries: int = 128,
    ) -> None:
        if cache_segments < 1:
            raise ValueError("cache_segments must be >= 1")
        if scan_cache_entries < 0:
            raise ValueError("scan_cache_entries must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entity_lookup = entity_lookup
        # The published zone list; replaced whole on every publish.
        self._timeline = ZoneTimeline()
        self._next_id = 0
        self._cache_segments = cache_segments
        self._cache: "OrderedDict[str, ColumnBlock]" = OrderedDict()
        # Every decoded block anything still holds (the LRU, a cached
        # selection, an in-flight result), by segment file: one block per
        # file while any is alive.
        self._live: "weakref.WeakValueDictionary[str, ColumnBlock]" = (
            weakref.WeakValueDictionary()
        )
        self._cache_lock = threading.Lock()
        # Per-segment selections by (segment file, filter fingerprint),
        # guarded by ``_cache_lock``; at most ``scan_cache_entries``, 0
        # disables.  Segments are immutable, so entries only age out.
        self._scan_cache_entries = scan_cache_entries
        self._selections: "OrderedDict[Tuple[str, tuple], Selection]" = (
            OrderedDict()
        )
        self.scan_cache_hits = 0
        self.scan_cache_misses = 0
        self.scan_cache_evictions = 0
        # Pruning observability (the benchmark's zone-map probe).
        self.segments_considered = 0
        self.segments_pruned = 0
        self.segments_scanned = 0
        self._load_manifest()

    # -- manifest -----------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def _load_manifest(self) -> None:
        path = self._manifest_path
        if not path.exists():
            return
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ColdTierError(f"corrupt cold-tier manifest: {exc}") from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise ColdTierError(
                f"unsupported cold-tier manifest version "
                f"{manifest.get('version')!r}"
            )
        zones = [ZoneMap.from_json(r) for r in manifest["segments"]]
        self._timeline = ZoneTimeline(zones)
        self._next_id = int(manifest.get("next_id", len(zones)))

    def _save_manifest(self, zones: Sequence[ZoneMap], next_id: int) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "next_id": next_id,
            "segments": [zone.to_json() for zone in zones],
        }
        tmp = self._manifest_path.with_name("manifest.json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._manifest_path)

    # -- writes -------------------------------------------------------------

    def add_segments(
        self, items: Sequence[Tuple[PartitionKey, ColumnBlock]]
    ) -> List[ZoneMap]:
        """Durably write immutable segments and publish them together.

        A segment's rows are stored in (start_time, event_id) order; a
        block that is not gets gathered into that order first.
        Publication order: every segment file (fsync'd) -> one manifest
        rewrite (atomic rename) -> one assignment of the in-memory zone
        list with its time-ordered view (:class:`ZoneTimeline`).  Readers
        only ever see fully durable segments, and a failure before the
        manifest is replaced leaves the old manifest and zones as they
        were (the files already written are orphans no manifest names).
        """
        if any(not len(block) for _, block in items):
            raise ValueError("cold segments must not be empty")
        zones: List[ZoneMap] = []
        for key, block in items:
            rows = range(len(block))
            order = block.order_positions(rows)
            if order != list(rows):
                block, source = ColumnBlock(), block
                block.extend_rows(source, order)
            number = self._next_id + len(zones)
            filename = f"seg-{key.day}-{key.agent_group}-{number:06d}.seg"
            path = self.directory / filename
            tmp = path.with_name(filename + ".tmp")
            with tmp.open("wb") as handle:
                handle.write(encode_block(block, compress=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            zones.append(ZoneMap.for_block(filename, key, block))
        published = self._timeline.zones + tuple(zones)
        self._save_manifest(published, self._next_id + len(zones))
        self._next_id += len(zones)
        self._timeline = ZoneTimeline(published)  # publish to readers last
        return zones

    # -- reads --------------------------------------------------------------

    def _decoded(self, zone: ZoneMap) -> ColumnBlock:
        return self._fetch(zone)[0]

    def _fetch(self, zone: ZoneMap) -> Tuple[ColumnBlock, bool]:
        """The segment's decoded block, and whether this call decoded it.

        Checks the LRU, then every block still held anywhere, and only
        then reads and inflates the file.
        """
        name = zone.filename
        with self._cache_lock:
            block = self._cache.get(name)
            if block is None:
                block = self._live.get(name)
        decoded = block is None
        if block is None:
            blob = (self.directory / name).read_bytes()
            try:
                block = decode_block(blob)
            except BlockCodecError as exc:
                raise ColdTierError(f"corrupt cold segment {name}: {exc}") from exc
            if len(block) != zone.count:
                raise ColdTierError(
                    f"cold segment {name} holds {len(block)} events, "
                    f"its zone map {zone.count}"
                )
            _M_COLD_DECODES.inc()
        with self._cache_lock:
            if decoded:
                # A racing decode of the same file adopts the first block.
                block = self._live.setdefault(name, block)
            self._cache[name] = block
            self._cache.move_to_end(name)
            while len(self._cache) > self._cache_segments:
                self._cache.popitem(last=False)
        return block, decoded

    def _scan_segment(
        self, block: ColumnBlock, flt: EventFilter, kernel: ScanKernel
    ) -> Selection:
        """One decoded segment's survivors (sorted: segments are stored sorted).

        The batch kernel runs straight on the decoded columns with the
        scan's window and id sets; the block's op/otype universes and
        agent dictionary give it the same vacuity hoisting the zone maps
        provided the old structural prefilter, and no
        :class:`SystemEvent` is built.
        """
        positions = kernel.select(
            block,
            range(len(block)),
            self._entity_lookup,
            flt.window,
            flt.subject_ids,
            flt.object_ids,
        )
        return Selection(block, positions)

    def scan_selections(
        self,
        flt: EventFilter,
        kernel: Optional[ScanKernel] = None,
        narrowed: Optional[EventFilter] = None,
        committed: Optional[int] = None,
    ) -> List[Selection]:
        """Per-segment survivor selections, zone-map pruned, in manifest
        order.

        Only the zones whose time span can meet ``flt``'s window are
        tested: the published :class:`ZoneTimeline` hands them over by
        bisection, so a scan's zone loop follows its window, not the
        history held.  The zones it skips count as considered and pruned
        all the same, as if ``may_match`` had rejected them.

        ``kernel`` is the compiled static part of ``flt`` (a plan
        pattern's); :func:`~repro.storage.kernels.scan_kernel` picks what
        runs once a segment survives pruning: that kernel, a fresh compile
        of ``flt`` without one, or the ``use_kernels(False)`` oracle, whose
        selections bypass the cache.  A surviving segment is looked up by
        ``(segment file, filter fingerprint)`` first — the fingerprint,
        too, is taken only once a segment survives — and fetched and
        scanned only on a miss.

        A tiered scan passes ``narrowed``, ``flt`` with its entity
        predicates resolved to id sets through the entity index
        (:func:`~repro.storage.database.narrow_with_index`), and
        ``committed``, the committed-event watermark it read before
        resolving.  A segment whose events all lie at or below the
        watermark references only entities indexed by then, so it is
        pruned and scanned with ``narrowed``, which selects exactly what
        ``flt`` does there.  A younger segment (compacted while the scan
        ran) may hold an entity the resolution never saw: it is scanned
        with ``flt`` and its rows above the watermark are dropped, as the
        hot tier drops them, so a batch committed meanwhile is seen whole
        or not at all.  The memo keys on ``flt`` either way, so an entity
        registered later leaves the entries valid, and a pattern resolving
        to many ids still caches.
        """
        timeline = self._timeline  # one snapshot against concurrent publishes
        selections: List[Selection] = []
        if not timeline.zones or constant_false(flt):
            return selections
        chosen: Optional[ScanKernel] = None
        fingerprint: Optional[tuple] = None
        scanned = decoded = 0
        for zone in timeline.overlapping(flt.window):
            young = committed is not None and zone.max_eid > committed
            zone_flt = flt if young or narrowed is None else narrowed
            if not zone.may_match(zone_flt):
                continue
            scanned += 1
            if chosen is None:
                chosen = scan_kernel(flt, kernel)
                if self._scan_cache_entries and not chosen.interpreted:
                    # None for a giant scheduler-narrowed id set: not worth caching
                    fingerprint = cache_fingerprint(flt)
            selection = None
            if fingerprint is not None:
                key = (zone.filename, fingerprint)
                selection = self._recall(key)
            if selection is None:
                block, fresh = self._fetch(zone)
                decoded += fresh
                selection = self._scan_segment(block, zone_flt, chosen)
                if fingerprint is not None:
                    self._remember(key, selection)
            if young:
                selection = selection.committed_only(committed)
            selections.append(selection)
        considered = len(timeline.zones)
        pruned = considered - scanned
        self.segments_considered += considered
        self.segments_pruned += pruned
        self.segments_scanned += scanned
        trace = active_trace()
        if REGISTRY.enabled or trace is not None:
            rows = sum(len(s) for s in selections)
            # Segments are stored time-sorted: a bisect per surviving
            # segment counts the rows inside the scan's window, what
            # the kernel visits on that segment (a memo hit counts
            # what its scan visited).
            start, end = flt.window.start, flt.window.end
            visited = 0
            for selection in selections:
                block = selection.block
                lo, hi = block.window_bounds(start, end, len(block))
                visited += hi - lo
            _M_COLD_CONSIDERED.inc(considered)
            _M_COLD_PRUNED.inc(pruned)
            _M_COLD_SCANNED.inc(scanned)
            _M_COLD_VISITED.inc(visited)
            _M_COLD_ROWS.inc(rows)
            if trace is not None:
                span = trace.current
                span.add("cold_segments_considered", considered)
                span.add("cold_segments_pruned", pruned)
                span.add("cold_segments_scanned", scanned)
                span.add("cold_segments_decoded", decoded)
                span.add("cold_rows_visited", visited)
                span.add("cold_rows_selected", rows)
        return selections

    def _recall(self, key: Tuple[str, tuple]) -> Optional[Selection]:
        with self._cache_lock:
            selection = self._selections.get(key)
            if selection is None:
                self.scan_cache_misses += 1
            else:
                self._selections.move_to_end(key)
                self.scan_cache_hits += 1
            return selection

    def _remember(self, key: Tuple[str, tuple], selection: Selection) -> None:
        with self._cache_lock:
            self._selections[key] = selection
            self._selections.move_to_end(key)
            while len(self._selections) > self._scan_cache_entries:
                self._selections.popitem(last=False)
                self.scan_cache_evictions += 1

    def estimated_events(self, flt: EventFilter) -> int:
        """Upper bound on matching cold events, from zone maps alone."""
        return sum(
            z.count
            for z in self._timeline.overlapping(flt.window)
            if z.may_match(flt)
        )

    def event_id_probe(self) -> Callable[[ColumnBlock, Positions], List[int]]:
        """A bulk membership tester (WAL replay / recovery dedup).

        Returns ``probe(block, positions)``: those of ``positions`` whose
        row is already stored in a cold segment, judged by the
        ``(event_id, agent_id)`` the block's columns hold — no row object
        is built.  Zone maps prefilter twice: a segment whose id range or
        agent set misses the whole block is dropped before any row is
        read (the usual recovery replays recent, high-id events over old,
        low-id segments and reads no row at all), and the rest test each
        row's id against the range before anything is decompressed.  Each
        candidate segment's event-id set is materialized at most once for
        the probe's lifetime (outside the scan LRU).
        """
        zones = self.zones
        id_sets: Dict[str, frozenset] = {}

        def probe(block: ColumnBlock, positions: Positions) -> List[int]:
            if not len(positions):
                return []
            event_ids = block.event_ids
            lowest, highest = min(event_ids), block.max_event_id
            agents = block.agents
            near = [
                zone
                for zone in zones
                if zone.min_eid <= highest
                and zone.max_eid >= lowest
                and not zone.agents.isdisjoint(agents)
            ]
            if not near:
                return []
            codes = block.agent_codes
            found: List[int] = []
            for p in positions:
                event_id = event_ids[p]
                for zone in near:
                    if not (zone.min_eid <= event_id <= zone.max_eid):
                        continue
                    if agents[codes[p]] not in zone.agents:
                        continue
                    ids = id_sets.get(zone.filename)
                    if ids is None:
                        # The raw id column suffices: no row views are built.
                        ids = frozenset(self._decoded(zone).event_ids)
                        id_sets[zone.filename] = ids
                    if event_id in ids:
                        found.append(p)
                        break
            return found

        return probe

    # -- introspection ------------------------------------------------------

    @property
    def zones(self) -> Tuple[ZoneMap, ...]:
        """The published zones, in manifest order (one immutable snapshot)."""
        return self._timeline.zones

    @property
    def event_count(self) -> int:
        return sum(z.count for z in self.zones)

    def max_event_id(self) -> int:
        return max((z.max_eid for z in self.zones), default=0)

    def seq_maxima(self) -> Dict[int, int]:
        """Per-agent max sequence numbers across all segments (manifest only)."""
        maxima: Dict[int, int] = {}
        for zone in self.zones:
            for agent, seq in zone.seqs:
                if seq > maxima.get(agent, 0):
                    maxima[agent] = seq
        return maxima

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        zones = self.zones
        if not zones:
            return (None, None)
        return (
            min(z.min_time for z in zones),
            max(z.max_time for z in zones),
        )

    def column_blocks(self) -> Iterator[Tuple[ColumnBlock, int]]:
        """``(block, rows)`` per segment, in key order: the raw,
        pruning-free view (:meth:`EventStore.column_blocks`' cold twin)."""
        for zone in sorted(
            self.zones, key=lambda z: (z.day, z.agent_group, z.min_eid)
        ):
            yield self._decoded(zone), zone.count

    def prune_rate(self) -> float:
        """Fraction of considered segments skipped via zone maps."""
        if not self.segments_considered:
            return 0.0
        return self.segments_pruned / self.segments_considered

    def size_bytes(self) -> int:
        return sum(
            (self.directory / z.filename).stat().st_size for z in self.zones
        )

    def stats(self) -> dict:
        out = {
            "segments": len(self.zones),
            "events": self.event_count,
            "bytes": self.size_bytes(),
            "segments_considered": self.segments_considered,
            "segments_pruned": self.segments_pruned,
            "segments_scanned": self.segments_scanned,
            # process-wide, like the plan cache's counters
            "segments_decoded": int(_M_COLD_DECODES.value()),
        }
        if self._scan_cache_entries:
            with self._cache_lock:
                out["scan_cache"] = {
                    "entries": len(self._selections),
                    "hits": self.scan_cache_hits,
                    "misses": self.scan_cache_misses,
                    "evictions": self.scan_cache_evictions,
                }
        return out
