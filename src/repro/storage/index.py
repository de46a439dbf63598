"""Attribute indexes for entities and events (paper Sec. 3.2).

The paper builds database indexes "on the attributes that will be queried
frequently, such as executable name of process, name of file, source/
destination IP of network connection".  We provide:

* :class:`HashIndex` — exact-match lookup from attribute value to a set of
  ids; also serves LIKE patterns by scanning its (much smaller) keyspace
  instead of the event table, and keeps its answers across inserts;
* :class:`SortedTimeIndex` — binary-searchable index over event start times
  used for time-window scans within a partition;
* :class:`EntityAttributeIndex` — the registry of per-(entity type,
  attribute) hash indexes used by data queries to resolve candidate entity
  ids before touching events.

Index answers are the middle of the three read-side memo levels (see the
README's query path): the plan cache (:mod:`repro.engine.plan_cache`)
remembers what a text compiles to and is never invalidated; a
:class:`HashIndex` remembers which entity ids an equality or LIKE
constraint resolves to and *extends* the answer as entities arrive (an
append-only keyspace never takes an id back); the partition-scan cache
(:mod:`repro.service.cache`) remembers which rows of one partition a
filter selects and drops a partition's entries when a batch lands in it.
"""

from __future__ import annotations

import bisect
import re
import threading
from collections import OrderedDict, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.entities import Entity, EntityType, normalize_attribute
from repro.obs.metrics import REGISTRY
from repro.storage.filters import AttrPredicate, like_to_regex

# Attributes indexed by default, per the paper (+ the Sec. 7 extension
# entity types, indexed on their default attributes).
DEFAULT_INDEXED_ATTRIBUTES: Dict[EntityType, Tuple[str, ...]] = {
    EntityType.FILE: ("name",),
    EntityType.PROCESS: ("exe_name",),
    EntityType.NETWORK: ("src_ip", "dst_ip", "dst_port"),
    EntityType.REGISTRY: ("key",),
    EntityType.PIPE: ("name",),
}


def _norm_key(value: object) -> object:
    return value.lower() if isinstance(value, str) else value


_M_LIKE_LOOKUPS = REGISTRY.counter(
    "aiql_index_like_lookups_total", "LIKE lookups answered by a hash index"
)
_M_LIKE_KEYS_TESTED = REGISTRY.counter(
    "aiql_index_like_keys_tested_total",
    "Index keys regex-tested by LIKE lookups (a warm lookup tests none)",
)

_NO_IDS: FrozenSet[int] = frozenset()

# LIKE answers kept per index, least recently used dropped.  An answer costs
# its matched keys and ids, so a pattern like ``%`` holds the whole keyspace.
_LIKE_MEMO_PATTERNS = 128


class _LikeMemo:
    """One LIKE pattern's answer, and how much of the index it has seen."""

    __slots__ = ("regex", "keys", "seen_keys", "seen_regrown", "ids")

    def __init__(self, regex: "re.Pattern[str]") -> None:
        self.regex = regex
        self.keys: Set[str] = set()
        self.seen_keys = 0
        self.seen_regrown = 0
        self.ids: FrozenSet[int] = _NO_IDS


class HashIndex:
    """Value -> set-of-ids index with LIKE support over the keyspace.

    LIKE lookups scan the (deduplicated) keyspace, which is much smaller
    than the event heap, and a repeated investigation pattern (the common
    case — Sec. 6.2.1's iterative refinement reuses the same entity
    constraints) hits a warm index.  The index only grows — keys and ids
    are added, never removed — so an answer is brought up to date instead
    of thrown away when entities arrive:

    * an equality answer is the bucket frozen once and shared by every
      caller until that bucket gets another id (:meth:`add` drops just
      that one frozen copy);
    * a LIKE answer remembers which keys matched and how far along two
      append-only lists it has looked — the string keys in order of first
      appearance, and the keys that got another id afterwards; the next
      lookup regex-tests only the keys that appeared since and re-reads
      the buckets of matched keys that grew.

    Answers are frozen sets, replaced and never mutated once handed out.
    :meth:`add` stays O(1): it appends to a list and touches no memo.

    Lookups and inserts are mutually locked: the concurrent query service
    runs reads on pool workers while an ingest thread registers entities,
    and an unguarded bucket iteration would see the dict resize mid-walk.
    """

    def __init__(self) -> None:
        self._buckets: Dict[object, Set[int]] = {}
        self._frozen: Dict[object, FrozenSet[int]] = {}
        self._str_keys: List[str] = []
        self._regrown: List[str] = []
        self._like_memos: "OrderedDict[str, _LikeMemo]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, value: object, item_id: int) -> None:
        key = _norm_key(value)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = {item_id}
                if isinstance(key, str):
                    self._str_keys.append(key)
            else:
                bucket.add(item_id)
                if self._frozen:
                    self._frozen.pop(key, None)
                if isinstance(key, str):
                    self._regrown.append(key)

    def _frozen_bucket(self, key: object) -> FrozenSet[int]:
        frozen = self._frozen.get(key)
        if frozen is None:
            bucket = self._buckets.get(key)
            if bucket is None:
                return _NO_IDS
            frozen = self._frozen[key] = frozenset(bucket)
        return frozen

    def lookup(self, value: object) -> FrozenSet[int]:
        with self._lock:
            return self._frozen_bucket(_norm_key(value))

    def lookup_in(self, values: Iterable[object]) -> FrozenSet[int]:
        with self._lock:
            found = [self._frozen_bucket(_norm_key(value)) for value in values]
        if len(found) == 1:
            return found[0]
        return _NO_IDS.union(*found)

    def lookup_like(self, pattern: str) -> FrozenSet[int]:
        with self._lock:
            memo = self._like_memos.get(pattern)
            if memo is None:
                memo = self._like_memos[pattern] = _LikeMemo(like_to_regex(pattern))
                if len(self._like_memos) > _LIKE_MEMO_PATTERNS:
                    self._like_memos.popitem(last=False)
            else:
                self._like_memos.move_to_end(pattern)
            tested = len(self._str_keys) - memo.seen_keys
            if tested or memo.seen_regrown != len(self._regrown):
                self._catch_up(memo)
            ids = memo.ids
        _M_LIKE_LOOKUPS.inc()
        if tested:
            _M_LIKE_KEYS_TESTED.inc(tested)
        return ids

    def _catch_up(self, memo: _LikeMemo) -> None:
        """Extend ``memo`` over the keys and regrown buckets it has not seen."""
        # Matched keys whose bucket grew, then the new keys that match.
        grown = memo.keys.intersection(self._regrown[memo.seen_regrown :])
        match = memo.regex.match
        grown.update(key for key in self._str_keys[memo.seen_keys :] if match(key))
        memo.seen_keys = len(self._str_keys)
        memo.seen_regrown = len(self._regrown)
        if grown:
            memo.keys |= grown
            memo.ids = memo.ids.union(*(self._buckets[key] for key in grown))

    def lookup_predicate(self, pred: AttrPredicate) -> Optional[FrozenSet[int]]:
        """Serve a predicate if this index can; ``None`` if unsupported."""
        if pred.op == "in":
            assert isinstance(pred.value, (tuple, list, frozenset, set))
            return self.lookup_in(pred.value)
        if pred.op == "=":
            if pred.is_like:
                return self.lookup_like(str(pred.value))
            return self.lookup(pred.value)
        return None

    def __len__(self) -> int:
        return len(self._buckets)


class EntityAttributeIndex:
    """Per-(entity type, attribute) hash indexes over an entity population."""

    def __init__(
        self,
        indexed: Optional[Dict[EntityType, Tuple[str, ...]]] = None,
    ) -> None:
        self._spec = dict(indexed or DEFAULT_INDEXED_ATTRIBUTES)
        self._indexes: Dict[Tuple[EntityType, str], HashIndex] = {
            (etype, attr): HashIndex()
            for etype, attrs in self._spec.items()
            for attr in attrs
        }
        self._ids_by_type: Dict[EntityType, Set[int]] = defaultdict(set)
        self._ids_lock = threading.Lock()

    def add(self, entity: Entity) -> None:
        etype = entity.entity_type
        with self._ids_lock:
            self._ids_by_type[etype].add(entity.id)
        for attr in self._spec.get(etype, ()):
            self._indexes[(etype, attr)].add(entity.attribute(attr), entity.id)

    def all_ids(self, etype: EntityType) -> FrozenSet[int]:
        with self._ids_lock:
            return frozenset(self._ids_by_type.get(etype, frozenset()))

    def covers(self, etype: EntityType, attr: str) -> bool:
        return (etype, normalize_attribute(etype, attr)) in self._indexes

    def candidates(
        self, etype: EntityType, preds: Iterable[AttrPredicate]
    ) -> Optional[FrozenSet[int]]:
        """Intersect index lookups for the servable predicates.

        Returns ``None`` when no predicate was servable (caller must fall
        back to scanning); otherwise a sound over-approximation of the
        matching entity ids.
        """
        result: Optional[FrozenSet[int]] = None
        for pred in preds:
            attr = normalize_attribute(etype, pred.attr)
            index = self._indexes.get((etype, attr))
            if index is None:
                continue
            # The index is picked by attribute; the lookup reads only the
            # predicate's operator and value.
            served = index.lookup_predicate(pred)
            if served is None:
                continue
            result = served if result is None else (result & served)
        return result


class SortedTimeIndex:
    """Sorted (start_time, position) pairs for range scans in a partition.

    Events arrive in near-sorted order (per-agent sequence numbers increase
    monotonically), so maintenance is an append plus an occasional
    ``insort``; lookups are binary searches.

    Add and range are mutually locked: the out-of-order insert updates the
    two parallel lists in sequence, and a concurrent reader catching them
    misaligned would map positions to the wrong timestamps.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._positions: List[int] = []
        self._lock = threading.Lock()

    def add(self, start_time: float, position: int) -> None:
        with self._lock:
            self._add(start_time, position)

    def _add(self, start_time: float, position: int) -> None:
        if not self._times or start_time >= self._times[-1]:
            self._times.append(start_time)
            self._positions.append(position)
            return
        idx = bisect.bisect_right(self._times, start_time)
        self._times.insert(idx, start_time)
        self._positions.insert(idx, position)

    def extend(self, start_times: Sequence[float], positions: List[int]) -> None:
        """Add one batch: ``start_times[i]`` is the time of ``positions[i]``
        (positions ascending, and above every one the index holds).  Leaves
        the index as :meth:`add` row by row would.

        An in-order batch behind the index is two list extends.  Otherwise
        a batch at least as large as the index is merged by one sort
        ((time, position) order is the insort order: equal times keep
        arrival order, and positions rise with arrival); a small batch
        against a large index insorts its rows.
        """
        times = list(start_times)
        if not times:
            return
        with self._lock:
            own = self._times
            if times == sorted(times) and (not own or times[0] >= own[-1]):
                own.extend(times)
                self._positions.extend(positions)
            elif len(times) >= len(own):
                merged = sorted(zip(own + times, self._positions + positions))
                self._times = [time for time, _ in merged]
                self._positions = [position for _, position in merged]
            else:
                for start_time, position in zip(times, positions):
                    self._add(start_time, position)

    def range(
        self, start: Optional[float], end: Optional[float]
    ) -> List[int]:
        """Positions of events with ``start <= t < end`` (None = unbounded)."""
        with self._lock:
            lo = 0 if start is None else bisect.bisect_left(self._times, start)
            hi = (
                len(self._times)
                if end is None
                else bisect.bisect_left(self._times, end)
            )
            return self._positions[lo:hi]

    def __len__(self) -> int:
        return len(self._times)
