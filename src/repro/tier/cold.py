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
operation set or scheduler-narrowed entity-id sets are disjoint from a
segment's zone map never pays the decompression.  A segment that does
match is decoded once while it is in memory: a small LRU keeps the most
recently read segments, and a weak map from segment file to decoded block
finds any block still held anywhere else — by a cached selection or an
in-flight result — so a segment still held anywhere is never read and
inflated again.  At most one decoded block per segment file is alive: the
LRU's ``cache_segments``, plus the segments the scan cache's entries
reference, plus those in-flight results.

Segments that survive the zone maps decode into the same typed
:class:`~repro.storage.blocks.ColumnBlock` representation the hot tier
stores natively, and scans run the batch kernel straight on those columns
— set membership against dictionary codes, bisected windows, predicates
only on the surviving tail.  :class:`~repro.model.events.SystemEvent`
objects are lazily materialized row views; a segment none of whose rows
survive never pays object construction.  Per-segment survivor selections
are memoized in a scan cache keyed by ``(segment file, filter
fingerprint)`` plus the decoded block's generation (the same shared
invalidation policy as the hot partition-scan cache), which is the reason
iterative mixed hot+cold investigations stop re-scanning the cold tier
per query.

The manifest (``manifest.json``) is the tier's source of truth and is
rewritten atomically (temp file + rename); segment files are written
durably *before* the manifest references them, so a crash mid-migration
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
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.model.events import SystemEvent
from repro.obs.metrics import REGISTRY
from repro.obs.trace import active_trace
from repro.service.cache import ScanCache, cache_fingerprint
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions, Selection
from repro.storage.codec import BlockCodecError, decode_block, encode_block
from repro.storage.filters import EventFilter
from repro.storage.kernels import ScanKernel, kernel_for, kernels_enabled
from repro.storage.partition import PartitionKey

MANIFEST_VERSION = 2


_M_COLD_CONSIDERED = REGISTRY.counter(
    "aiql_cold_segments_considered_total", "Cold segments examined by zone maps"
)
_M_COLD_PRUNED = REGISTRY.counter(
    "aiql_cold_segments_pruned_total", "Cold segments pruned without decoding"
)
_M_COLD_SCANNED = REGISTRY.counter(
    "aiql_cold_segments_scanned_total", "Cold segments decoded and scanned"
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
    def for_events(
        cls, filename: str, key: PartitionKey, events: Sequence[SystemEvent]
    ) -> "ZoneMap":
        seqs: Dict[int, int] = {}
        for event in events:
            if event.seq > seqs.get(event.agent_id, 0):
                seqs[event.agent_id] = event.seq
        return cls(
            filename=filename,
            day=key.day,
            agent_group=key.agent_group,
            count=len(events),
            min_time=min(e.start_time for e in events),
            max_time=max(e.start_time for e in events),
            min_eid=min(e.event_id for e in events),
            max_eid=max(e.event_id for e in events),
            agents=frozenset(e.agent_id for e in events),
            operations=frozenset(e.operation.value for e in events),
            object_types=frozenset(e.object_type.value for e in events),
            subjects=frozenset(e.subject_id for e in events),
            objects=frozenset(e.object_id for e in events),
            seqs=tuple(sorted(seqs.items())),
        )


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
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entity_lookup = entity_lookup
        self._zones: List[ZoneMap] = []
        self._next_id = 0
        self._cache_segments = cache_segments
        self._cache: "OrderedDict[str, ColumnBlock]" = OrderedDict()
        # Every decoded block anything still holds (the LRU, a cached
        # selection, an in-flight result), by segment file.  One block per
        # file while any is alive, so its generation is stable for as long
        # as a cached selection can be compared against it.
        self._live: "weakref.WeakValueDictionary[str, ColumnBlock]" = (
            weakref.WeakValueDictionary()
        )
        self._cache_lock = threading.Lock()
        # Per-segment scan results, keyed by (segment file, filter
        # fingerprint).  Segments are immutable so entries never need
        # invalidation; 0 disables.  This is the cold analogue of the hot
        # partition-scan cache and what keeps iterative investigations
        # over mixed hot+cold windows from re-scanning the cold tier.
        self.scan_cache: Optional[ScanCache] = (
            ScanCache(scan_cache_entries) if scan_cache_entries else None
        )
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
        self._zones = [ZoneMap.from_json(r) for r in manifest["segments"]]
        self._next_id = int(manifest.get("next_id", len(self._zones)))

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

    def add_segment(
        self, key: PartitionKey, events: Sequence[SystemEvent]
    ) -> ZoneMap:
        """Durably write one immutable segment and publish it.

        Publication order: segment file (fsync'd) -> manifest (atomic
        rename) -> in-memory zone list.  Readers only ever see fully
        durable segments.
        """
        if not events:
            raise ValueError("cold segments must not be empty")
        events = tuple(
            sorted(events, key=lambda e: (e.start_time, e.event_id))
        )
        filename = f"seg-{key.day}-{key.agent_group}-{self._next_id:06d}.seg"
        zone = ZoneMap.for_events(filename, key, events)
        path = self.directory / filename
        tmp = path.with_name(filename + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(encode_block(ColumnBlock.from_events(events), compress=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._save_manifest(self._zones + [zone], self._next_id + 1)
        self._next_id += 1
        self._zones.append(zone)  # publish to readers last
        return zone

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

    def _segment_events(self, zone: ZoneMap) -> List[SystemEvent]:
        return self._decoded(zone).events()

    def _scan_segment(
        self, block: ColumnBlock, flt: EventFilter, kernel: ScanKernel
    ) -> Selection:
        """One decoded segment's survivors (sorted: segments are stored sorted).

        The batch kernel runs straight on the decoded columns; the block's
        op/otype universes and agent dictionary give it the same vacuity
        hoisting the zone maps provided the old structural prefilter, and
        no :class:`SystemEvent` is built.
        """
        positions = kernel.select(block, range(len(block)), self._entity_lookup)
        return Selection(block, positions)

    def scan_selections(self, flt: EventFilter) -> List[Selection]:
        """Per-segment survivor selections, zone-map pruned.

        Cached selections key on ``(segment file, filter fingerprint)``
        through the shared :class:`~repro.service.cache.ScanCache` policy
        plus the generation of the segment's one live block.  A cached
        selection pins its block, so a cache hit finds that block without
        decoding, and the generations always agree.
        """
        zones = list(self._zones)  # snapshot against concurrent publishes
        lookup = self._entity_lookup
        selections: List[Selection] = []
        kernel = kernel_for(flt) if kernels_enabled() else None
        if kernel is not None and kernel.always_false:
            return selections
        cache = self.scan_cache
        fingerprint = (
            cache_fingerprint(flt)
            if cache is not None and kernel is not None
            else None
        )
        considered = pruned = scanned = decoded = 0
        for zone in zones:
            self.segments_considered += 1
            considered += 1
            if not zone.may_match(flt):
                self.segments_pruned += 1
                pruned += 1
                continue
            self.segments_scanned += 1
            scanned += 1
            block, fresh = self._fetch(zone)
            decoded += fresh
            if kernel is None:
                # Interpreted oracle path (use_kernels(False)).
                matches = flt.matches
                positions = []
                for i, event in enumerate(block.events()):
                    if matches(
                        event, lookup(event.subject_id), lookup(event.object_id)
                    ):
                        positions.append(i)
                selections.append(Selection(block, positions))
            elif fingerprint is not None and cache is not None:
                selections.append(
                    cache.get_or_compute(
                        zone.filename,
                        fingerprint,
                        lambda b=block: self._scan_segment(b, flt, kernel),
                        generation=block.generation,
                    )
                )
            else:
                selections.append(self._scan_segment(block, flt, kernel))
        if considered:
            trace = active_trace()
            if REGISTRY.enabled or trace is not None:
                rows = sum(len(s) for s in selections)
                _M_COLD_CONSIDERED.inc(considered)
                _M_COLD_PRUNED.inc(pruned)
                _M_COLD_SCANNED.inc(scanned)
                _M_COLD_ROWS.inc(rows)
                if trace is not None:
                    span = trace.current
                    span.add("cold_segments_considered", considered)
                    span.add("cold_segments_pruned", pruned)
                    span.add("cold_segments_scanned", scanned)
                    span.add("cold_segments_decoded", decoded)
                    span.add("cold_rows_selected", rows)
        return selections

    def scan(self, flt: EventFilter) -> List[SystemEvent]:
        """Matching cold events, zone-map pruned, sorted by (time, id)."""
        return BlockScanResult(self.scan_selections(flt)).events()

    def estimated_events(self, flt: EventFilter) -> int:
        """Upper bound on matching cold events, from zone maps alone."""
        return sum(z.count for z in list(self._zones) if z.may_match(flt))

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
        zones = list(self._zones)
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
        return tuple(self._zones)

    @property
    def event_count(self) -> int:
        return sum(z.count for z in self._zones)

    def max_event_id(self) -> int:
        return max((z.max_eid for z in self._zones), default=0)

    def seq_maxima(self) -> Dict[int, int]:
        """Per-agent max sequence numbers across all segments (manifest only)."""
        maxima: Dict[int, int] = {}
        for zone in self._zones:
            for agent, seq in zone.seqs:
                if seq > maxima.get(agent, 0):
                    maxima[agent] = seq
        return maxima

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        if not self._zones:
            return (None, None)
        return (
            min(z.min_time for z in self._zones),
            max(z.max_time for z in self._zones),
        )

    def __iter__(self) -> Iterator[SystemEvent]:
        for zone in sorted(
            list(self._zones), key=lambda z: (z.day, z.agent_group, z.min_eid)
        ):
            yield from self._segment_events(zone)

    def prune_rate(self) -> float:
        """Fraction of considered segments skipped via zone maps."""
        if not self.segments_considered:
            return 0.0
        return self.segments_pruned / self.segments_considered

    def size_bytes(self) -> int:
        return sum(
            (self.directory / z.filename).stat().st_size for z in self._zones
        )

    def stats(self) -> dict:
        out = {
            "segments": len(self._zones),
            "events": self.event_count,
            "bytes": self.size_bytes(),
            "segments_considered": self.segments_considered,
            "segments_pruned": self.segments_pruned,
            "segments_scanned": self.segments_scanned,
            # process-wide, like the plan cache's counters
            "segments_decoded": int(_M_COLD_DECODES.value()),
        }
        if self.scan_cache is not None:
            out["scan_cache"] = self.scan_cache.stats()
        return out
