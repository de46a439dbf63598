"""Time & space partitioning of system monitoring data (paper Sec. 3.2).

System monitoring data exhibits strong spatial and temporal properties: data
from different agents is independent, and timestamps increase monotonically.
The paper partitions storage along both dimensions — "separating groups of
agents into table partitions and generating one database per day".  We model
a partition key as ``(day ordinal, agent group)`` where agent groups bucket
``agent_id`` ranges, and support pruning the partition set given the spatial
and temporal constraints of a data query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.model.time import DAY, TimeWindow, day_of
from repro.storage.blocks import ColumnBlock, Positions

if TYPE_CHECKING:
    from repro.storage.filters import EventFilter


@dataclass(frozen=True)
class PartitionKey:
    """Identifies one (day, agent-group) partition."""

    day: int
    agent_group: int


class PartitionScheme:
    """Maps events to partitions and prunes partitions for queries."""

    def __init__(self, agents_per_group: int = 10) -> None:
        if agents_per_group < 1:
            raise ValueError("agents_per_group must be >= 1")
        self.agents_per_group = agents_per_group

    def group_of(self, agent_id: int) -> int:
        return agent_id // self.agents_per_group

    def key_for(self, agent_id: int, start_time: float) -> PartitionKey:
        return PartitionKey(day=day_of(start_time), agent_group=self.group_of(agent_id))

    def split(
        self, block: ColumnBlock, positions: Optional[Positions] = None
    ) -> Dict[PartitionKey, Positions]:
        """Rows ``positions`` of ``block`` (default: all; ascending) grouped
        by partition, keys in first-row order.

        Read from the start-time column and the agent dictionary; no row
        object is built.  A batch that sits inside one partition (a
        snapshot frame, a shard slice of one partition) comes back as
        ``positions`` itself, so a contiguous batch stays a slice.
        """
        if positions is None:
            positions = range(len(block))
        if not len(positions):
            return {}
        groups = [self.group_of(agent) for agent in block.agents]
        first_day = day_of(block.min_time)
        one_day = day_of(block.max_time) == first_day
        if one_day and len(set(groups)) == 1:
            return {PartitionKey(first_day, groups[0]): positions}
        t0 = block.t0
        codes = block.agent_codes
        # (day, agent code) -> the position list of its partition: several
        # codes share one list, and the key is hashed once per pair.
        lists: Dict[Tuple[int, int], List[int]] = {}
        out: Dict[PartitionKey, Positions] = {}
        for p in positions:
            pair = (first_day if one_day else int(t0[p] // DAY), codes[p])
            rows = lists.get(pair)
            if rows is None:
                rows = out.setdefault(PartitionKey(pair[0], groups[pair[1]]), [])
                lists[pair] = rows
            rows.append(p)
        if len(out) == 1:
            return {key: positions for key in out}
        return out

    def prune(
        self,
        keys: Iterable[PartitionKey],
        agent_ids: Optional[FrozenSet[int]],
        window: TimeWindow,
    ) -> List[PartitionKey]:
        """Partitions that can possibly contain matching events.

        Pruning is sound: a partition is dropped only if *no* event in it can
        satisfy the spatial/temporal constraints.
        """
        groups: Optional[FrozenSet[int]] = None
        if agent_ids is not None:
            groups = frozenset(self.group_of(a) for a in agent_ids)

        days = window.days()
        day_set = frozenset(days) if days is not None else None

        selected: List[PartitionKey] = []
        for key in keys:
            if groups is not None and key.agent_group not in groups:
                continue
            if day_set is not None and key.day not in day_set:
                continue
            if day_set is None and not self._day_overlaps(key.day, window):
                continue
            selected.append(key)
        selected.sort(key=lambda k: (k.day, k.agent_group))
        return selected

    @staticmethod
    def _day_overlaps(day: int, window: TimeWindow) -> bool:
        day_start = day * DAY
        day_end = day_start + DAY
        if window.start is not None and window.start >= day_end:
            return False
        if window.end is not None and window.end <= day_start:
            return False
        return True


# -- shard placement (repro.shard) ------------------------------------------------


def route(key: PartitionKey, shards: int) -> int:
    """The shard that owns partition ``key`` (stable: no process-seeded
    hashing)."""
    return (key.day * 31 + key.agent_group) % shards


def owner_shards(
    flt: EventFilter, scheme: PartitionScheme, shards: int
) -> FrozenSet[int]:
    """The shards that can hold a row matching ``flt``.

    A filter that names its agents and bounds its window can only match
    rows of the partitions (window day, agent group) — the same pruning a
    worker applies to its own partitions, applied one level up, so the
    other shards are not asked to answer "nothing here".  Every shard
    otherwise.
    """
    days = flt.window.days()
    if flt.agent_ids is None or days is None:
        return frozenset(range(shards))
    groups = {scheme.group_of(agent) for agent in flt.agent_ids}
    owners: Set[int] = set()
    for day in days:
        owners.update(route(PartitionKey(day, group), shards) for group in groups)
        if len(owners) == shards:
            break
    return frozenset(owners)
