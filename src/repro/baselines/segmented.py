"""MPP segmented storage (the Greenplum substrate, paper Secs. 3.2 & 6.3.3).

Greenplum distributes rows across *segments* that scan in parallel (here
they scan serially in process; the distribution is what is compared).  The
paper's key observation (Sec. 6.3.3) is that "without our semantics-aware
model, Greenplum distributes the storage of events based on their incoming
orders (which is arbitrary)", whereas the AIQL data model distributes by the
domain key so that the events of one host land evenly and queries with
spatial/temporal constraints touch fewer segments.

:class:`SegmentedStore` is an :class:`~repro.storage.database.EventStore`
placed by :class:`SegmentScheme`: one partition per segment, under one of
two distribution policies —

* ``arrival`` — round-robin on ingest order (stock Greenplum behaviour);
* ``domain``  — hash of ``(agent_id, day)`` (AIQL's semantics-aware model).

Ingest, the entity indexes, the committed watermark and the scan are the
partitioned store's own; only the layout differs.

A comparison store only, like :class:`~repro.baselines.flat.FlatStore`: it
ingests beside the partitioned store and answers scans, but it is never a
durable, tiered or sharded deployment's hot tier.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.model.entities import EntityRegistry
from repro.model.time import TimeWindow, day_of
from repro.storage.blocks import ColumnBlock, Positions
from repro.storage.database import EventStore
from repro.storage.partition import PartitionKey, PartitionScheme

DISTRIBUTION_POLICIES = ("arrival", "domain")


class SegmentScheme(PartitionScheme):
    """``segments`` partitions, keyed ``PartitionKey(0, segment)``.

    Under ``arrival`` the segment counter advances once per placed row
    (:meth:`split` asks :meth:`key_for` row by row), so one-row commits
    place every event exactly where whole batches would have.  Only
    ``domain`` can prune.
    """

    def __init__(self, segments: int, policy: str) -> None:
        if segments < 1:
            raise ValueError("segments must be >= 1")
        if policy not in DISTRIBUTION_POLICIES:
            raise ValueError(
                f"unknown distribution policy {policy!r}; "
                f"expected one of {DISTRIBUTION_POLICIES}"
            )
        super().__init__()
        self.policy = policy
        self.keys = tuple(PartitionKey(0, i) for i in range(segments))
        self._next = 0  # arrival: the segment of the next row

    def key_for(self, agent_id: int, start_time: float) -> PartitionKey:
        if self.policy == "arrival":
            segment = self._next
            self._next = (segment + 1) % len(self.keys)
        else:
            segment = hash((agent_id, day_of(start_time))) % len(self.keys)
        return self.keys[segment]

    def split(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Dict[PartitionKey, Positions]:
        if positions is None:
            positions = range(len(block))
        key_for = self.key_for
        t0 = block.t0
        agents = block.agents
        codes = block.agent_codes
        out: Dict[PartitionKey, List[int]] = {}
        for p in positions:
            out.setdefault(key_for(agents[codes[p]], t0[p]), []).append(p)
        return dict(out)  # Dict is invariant: List[int] values as Positions

    def prune(
        self,
        keys: Iterable[PartitionKey],
        agent_ids: Optional[FrozenSet[int]],
        window: TimeWindow,
        held_groups: Optional[Sequence[int]] = None,
    ) -> List[PartitionKey]:
        """Every segment, except under ``domain`` with agents and a bounded
        window: only the segments their ``(agent, day)`` hashes name."""
        ordered = sorted(keys, key=lambda k: k.agent_group)
        days = window.days()
        if self.policy == "arrival" or agent_ids is None or days is None:
            return ordered
        wanted = {
            hash((agent, day)) % len(self.keys)
            for agent in agent_ids
            for day in days
        }
        return [key for key in ordered if key.agent_group in wanted]


class SegmentedStore(EventStore):
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
        scheme = SegmentScheme(segments, policy)
        super().__init__(registry, scheme, indexed_attributes)
        self.policy = policy
        self._segment_keys = scheme.keys

    @property
    def segment_count(self) -> int:
        return len(self._segment_keys)

    def segment_sizes(self) -> List[int]:
        """Rows per segment, in segment order (empty segments included)."""
        sizes = self.partition_sizes()
        return [sizes.get(key, 0) for key in self._segment_keys]

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
