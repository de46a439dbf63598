"""MPP segmented storage (the Greenplum substrate, paper Secs. 3.2 & 6.3.3).

Greenplum distributes rows across *segments* that scan in parallel (here
they scan serially in process; the distribution is what is compared).  The
paper's key observation (Sec. 6.3.3) is that "without our semantics-aware
model, Greenplum distributes the storage of events based on their incoming
orders (which is arbitrary)", whereas the AIQL data model distributes by the
domain key so that the events of one host land evenly and queries with
spatial/temporal constraints touch fewer segments.

Two distribution policies are provided:

* ``arrival`` — round-robin on ingest order (stock Greenplum behaviour);
* ``domain``  — hash of ``(agent_id, day)`` (AIQL's semantics-aware model).

A comparison store only, like :class:`~repro.baselines.flat.FlatStore`: it
ingests beside the partitioned store and answers scans, but it is never a
durable, tiered or sharded deployment's hot tier.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.model.entities import Entity, EntityRegistry
from repro.model.events import SystemEvent
from repro.model.time import day_of
from repro.storage.blocks import BlockScanResult, ColumnBlock, Positions
from repro.storage.database import narrow_with_index
from repro.storage.filters import EventFilter
from repro.storage.index import DEFAULT_INDEXED_ATTRIBUTES, EntityAttributeIndex
from repro.storage.kernels import (
    ScanKernel,
    compile_filter,
    constant_false,
    kernels_enabled,
)
from repro.storage.table import EventTable

DISTRIBUTION_POLICIES = ("arrival", "domain")


class SegmentedStore:
    """N-segment event store; segments scan serially in process.

    The segmentation (and, under ``domain``, segment pruning) is what the
    Fig. 7 comparison measures; kernel code holds the GIL, so a thread
    fan-out over segments would only add hand-off cost.
    """

    def __init__(
        self,
        registry: Optional[EntityRegistry] = None,
        segments: int = 5,
        policy: str = "domain",
        indexed_attributes=None,
    ) -> None:
        if segments < 1:
            raise ValueError("segments must be >= 1")
        if policy not in DISTRIBUTION_POLICIES:
            raise ValueError(
                f"unknown distribution policy {policy!r}; "
                f"expected one of {DISTRIBUTION_POLICIES}"
            )
        self.registry = registry if registry is not None else EntityRegistry()
        self.policy = policy
        self.entity_index = EntityAttributeIndex(
            indexed_attributes or DEFAULT_INDEXED_ATTRIBUTES
        )
        self._segments: List[EventTable] = [
            EventTable(self.registry.get) for _ in range(segments)
        ]
        self._indexed_entities: set[int] = set()
        self._rr = 0
        # Committed-event watermark (see EventStore): raised after every
        # segment of a batch published, filtered on by readers, so a batch
        # spanning segments is atomic to concurrent scans, iteration and
        # len(); _event_count is likewise bumped once per commit.
        self._committed = 0
        self._event_count = 0

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def register_entity(self, entity: Entity) -> None:
        if entity.id in self._indexed_entities:
            return
        self._indexed_entities.add(entity.id)
        self.entity_index.add(entity)

    def _segment_for(self, agent_id: int, start_time: float) -> int:
        if self.policy == "arrival":
            segment = self._rr
            self._rr = (self._rr + 1) % len(self._segments)
            return segment
        return hash((agent_id, day_of(start_time))) % len(self._segments)

    def add_event(self, event: SystemEvent) -> None:
        segment = self._segment_for(event.agent_id, event.start_time)
        self._segments[segment].append(event)
        self._event_count += 1
        self._committed = max(self._committed, event.event_id)

    def add_block(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> None:
        """Append rows ``positions`` of ``block`` (default: all; ascending)
        as one committed batch; each segment publishes its share once.

        Segment assignment is identical to the per-event path, read from
        the start-time column and the agent dictionary (round-robin state
        advances per row under ``arrival``), so a streamed ingest places
        every event exactly where a burst ingest would have.  The
        watermark moves only after every segment published, making the
        batch atomic to concurrent scans.
        """
        if positions is None:
            positions = range(len(block))
        segment_for = self._segment_for
        t0 = block.t0
        agents = block.agents
        codes = block.agent_codes
        by_segment: Dict[int, List[int]] = {}
        for p in positions:
            segment = segment_for(agents[codes[p]], t0[p])
            by_segment.setdefault(segment, []).append(p)
        for segment, rows in by_segment.items():
            self._segments[segment].append_block(block, rows)
        self._event_count += len(positions)
        self._committed = max(self._committed, block.top_event_id(positions))

    add_batch = add_block  # the name Ingestor.commit_block calls

    def _relevant_segments(self, flt: EventFilter) -> List[EventTable]:
        """Segment pruning, only possible under the domain policy.

        With domain distribution, a segment whose (agent, day) hash universe
        is disjoint from the filter's spatial/temporal constraints can be
        skipped entirely.  With arrival-order distribution every segment may
        hold matching events, so all must be scanned.
        """
        if self.policy == "arrival":
            return list(self._segments)
        days = flt.window.days()
        if flt.agent_ids is None or days is None:
            return list(self._segments)
        wanted = {
            hash((agent, day)) % len(self._segments)
            for agent in flt.agent_ids
            for day in days
        }
        return [self._segments[i] for i in sorted(wanted)]

    def scan_columns(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
        kernel: Optional[ScanKernel] = None,
    ) -> BlockScanResult:
        """Survivors as per-segment selections (see ``EventStore.scan_columns``)."""
        committed = self._committed  # snapshot before touching any segment
        if use_entity_index:
            flt = narrow_with_index(flt, self.entity_index)
        if constant_false(flt):
            return BlockScanResult(())
        # One compiled kernel shared by every segment scan (see EventStore).
        if kernel is None and kernels_enabled():
            kernel = compile_filter(flt)
        return BlockScanResult(
            [
                segment.scan_select(flt, None, kernel).committed_only(committed)
                for segment in self._relevant_segments(flt)
            ]
        )

    def scan(
        self,
        flt: EventFilter,
        use_entity_index: bool = True,
    ) -> List[SystemEvent]:
        return self.scan_columns(flt, use_entity_index).events()

    def full_scan(self, flt: EventFilter) -> List[SystemEvent]:
        committed = self._committed
        matched: List[SystemEvent] = []
        for segment in self._segments:
            matched.extend(
                e for e in segment.full_scan(flt) if e.event_id <= committed
            )
        matched.sort(key=lambda e: (e.start_time, e.event_id))
        return matched

    def __len__(self) -> int:
        return self._event_count

    def __iter__(self) -> Iterator[SystemEvent]:
        committed = self._committed
        for segment in self._segments:
            for event in segment:
                if event.event_id <= committed:
                    yield event

    def segment_sizes(self) -> List[int]:
        return [len(s) for s in self._segments]

    def skew(self) -> float:
        """Max/mean segment size ratio — a balance diagnostic (1.0 = even)."""
        sizes = self.segment_sizes()
        total = sum(sizes)
        if not total:
            return 1.0
        mean = total / len(sizes)
        return max(sizes) / mean

    def stats(self) -> Dict[str, object]:
        return {
            "events": len(self),
            "entities": len(self.registry),
            "segments": self.segment_count,
            "policy": self.policy,
            "skew": round(self.skew(), 3),
        }
