"""Event ID tuple sets (the ``M`` map values of Algorithm 1).

A :class:`TupleSet` holds partial join results: one column per event
pattern already bound, one row per combination of events that satisfies
every relationship applied so far.  The scheduler creates, joins, filters
and merges tuple sets as it processes relationships.

Joins prefer hash joins on equality attribute relationships and fall back
to filtered nested loops for inequality/temporal-only combinations.

Per-row work is kept loop-invariant: relationship checks compile once per
``filter``/``join`` call into closures with the column indices and field
extractors pre-resolved (no ``tuple.index`` per row), and joined rows are
assembled through a precomputed output-column permutation instead of
rebuilding a pattern->event dict per output row.

Columnar inputs (ISSUE 6): a tuple set freshly fetched from a store can be
built over a block scan result (:meth:`TupleSet.from_scan`) instead of an
event list.  Its rows stay unmaterialized until something actually needs
row objects, and a hash join whose build side is scan-backed extracts the
join keys straight from the columns — only build rows that match a probe
key are ever materialized.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang.context import FieldRef, ResolvedAttrRel, ResolvedTempRel
from repro.model.events import SystemEvent
from repro.storage.filters import AttrPredicate

EntityLookup = Callable[[int], object]

Row = Tuple[SystemEvent, ...]
RowCheck = Callable[[Row], bool]


def _norm(value: object) -> object:
    return value.lower() if isinstance(value, str) else value


def _key_fn(
    getters: Sequence[Callable[[object], object]], refs: Sequence[FieldRef]
) -> Callable[[object], object]:
    """One function from a row (or scan handle) to its hash-join key.

    Values are normalized as the equality check normalizes them; ``id``
    fields are integers and are read as they are.  A single-field key is
    the bare value, a composite one a tuple — both sides of a join build
    theirs from the same relationships, so the shapes agree.
    """
    fields = [
        get if ref.attr == "id" else (lambda item, get=get: _norm(get(item)))
        for get, ref in zip(getters, refs)
    ]
    if len(fields) == 1:
        return fields[0]
    if len(fields) == 2:
        first, second = fields
        return lambda item: (first(item), second(item))
    return lambda item: tuple(get(item) for get in fields)


class TupleSet:
    """Rows of events aligned to ``patterns`` (sorted pattern indices)."""

    __slots__ = ("patterns", "_rows", "_scan", "_column")

    def __init__(self, patterns: Tuple[int, ...], rows: Sequence[Row]) -> None:
        self.patterns = patterns
        self._rows: Optional[List[Row]] = (
            rows if isinstance(rows, list) else list(rows)
        )
        self._scan = None
        # Column positions resolved once per tuple set; every per-row
        # accessor below reads this instead of tuple.index per row.
        self._column: Dict[int, int] = {
            p: i for i, p in enumerate(self.patterns)
        }

    @classmethod
    def from_events(cls, pattern: int, events: Sequence[SystemEvent]) -> "TupleSet":
        return cls(patterns=(pattern,), rows=[(e,) for e in events])

    @classmethod
    def from_scan(cls, pattern: int, scan) -> "TupleSet":
        """A single-pattern tuple set over a scan result, rows still columnar.

        ``scan`` is anything with ``events()``/``__len__`` (a
        :class:`~repro.storage.blocks.BlockScanResult` or the materialized
        adapter); rows are built only when something needs row objects, and
        scan-backed hash-join build sides never build non-matching rows.
        """
        ts = cls.__new__(cls)
        ts.patterns = (pattern,)
        ts._rows = None
        ts._scan = scan
        ts._column = {pattern: 0}
        return ts

    @property
    def rows(self) -> List[Row]:
        rows = self._rows
        if rows is None:
            rows = self._rows = [(e,) for e in self._scan.events()]
        return rows

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._scan)
        return len(self._rows)

    def column_of(self, pattern: int) -> int:
        try:
            return self._column[pattern]
        except KeyError:
            raise KeyError(f"pattern {pattern} not in tuple set") from None

    def events_of(self, pattern: int):
        """Distinct events bound to ``pattern`` across all rows.

        A set still backed by its scan answers with the scan result itself
        (narrowing then reads ids, values and time bounds off the columns);
        otherwise a list of events.
        """
        col = self.column_of(pattern)
        if self._rows is None:
            return self._scan
        seen: Dict[int, SystemEvent] = {}
        for row in self.rows:
            event = row[col]
            seen.setdefault(event.event_id, event)
        return list(seen.values())

    # -- relationship compilation ------------------------------------------

    def _field_getter(
        self, ref: FieldRef, entity_of: EntityLookup
    ) -> Callable[[Row], object]:
        """Per-row extractor for ``ref`` with the column resolved once."""
        col = self.column_of(ref.pattern)
        attr = ref.attr
        if ref.role == "event":
            return lambda row: row[col].attribute(attr)
        if ref.role == "subject":
            if attr == "id":  # the registry id *is* the event's column
                return lambda row: row[col].subject_id
            return lambda row: getattr(entity_of(row[col].subject_id), attr)
        if attr == "id":
            return lambda row: row[col].object_id
        return lambda row: getattr(entity_of(row[col].object_id), attr)

    def _compile_attr_rel(
        self, rel: ResolvedAttrRel, entity_of: EntityLookup
    ) -> RowCheck:
        left = self._field_getter(rel.left, entity_of)
        right = self._field_getter(rel.right, entity_of)
        if rel.left.attr == "id" and rel.right.attr == "id":
            if rel.op == "=":  # entity reuse: integers, nothing to normalize
                return lambda row: left(row) == right(row)
            if rel.op == "!=":
                return lambda row: left(row) != right(row)
        if rel.op == "=":  # hot path: equality joins
            return lambda row: _norm(left(row)) == _norm(right(row))
        if rel.op == "!=":
            return lambda row: _norm(left(row)) != _norm(right(row))
        attr = rel.left.attr
        op = rel.op

        def check(row: Row) -> bool:
            return AttrPredicate(attr=attr, op=op, value=right(row)).matches(
                left(row)
            )

        return check

    def _compile_temp_rel(self, rel: ResolvedTempRel) -> RowCheck:
        left_col = self.column_of(rel.left)
        right_col = self.column_of(rel.right)
        check = rel.check
        return lambda row: check(row[left_col], row[right_col])

    def filter(
        self,
        attr_rels: Sequence[ResolvedAttrRel],
        temp_rels: Sequence[ResolvedTempRel],
        entity_of: EntityLookup,
    ) -> "TupleSet":
        """Keep rows satisfying all given relationships (both sides bound)."""
        if not attr_rels and not temp_rels:
            return self  # tuple sets are never mutated: nothing to copy
        if not self.rows:
            return TupleSet(patterns=self.patterns, rows=[])
        checks: List[RowCheck] = [
            self._compile_attr_rel(rel, entity_of) for rel in attr_rels
        ]
        checks.extend(self._compile_temp_rel(rel) for rel in temp_rels)
        if len(checks) == 1:
            check = checks[0]
            rows = [row for row in self.rows if check(row)]
        else:
            rows = [
                row for row in self.rows if all(c(row) for c in checks)
            ]
        return TupleSet(patterns=self.patterns, rows=rows)

    # -- joins ---------------------------------------------------------------

    def join(
        self,
        other: "TupleSet",
        attr_rels: Sequence[ResolvedAttrRel],
        temp_rels: Sequence[ResolvedTempRel],
        entity_of: EntityLookup,
    ) -> "TupleSet":
        """Join two disjoint tuple sets, filtering by the relationships.

        Every equality attribute relationship spanning the two sets
        (:meth:`hash_keys`) goes into one composite hash key; the remaining
        relationships are checked per joined row.  With no such
        relationship the join is a filtered cross product.
        """
        if set(self.patterns) & set(other.patterns):
            raise ValueError("join requires disjoint tuple sets")
        combined_patterns = tuple(sorted(self.patterns + other.patterns))

        # Output column permutation, computed once: each output position
        # pulls from (side, source column) instead of rebuilding a
        # pattern->event dict per joined row.
        permutation = tuple(
            (0, self._column[p]) if p in self._column else (1, other._column[p])
            for p in combined_patterns
        )

        def combine(left_row: Row, right_row: Row) -> Row:
            sides = (left_row, right_row)
            return tuple(sides[side][col] for side, col in permutation)

        # Joining on (dst_ip, dst_port) at once avoids the intermediate
        # blowup of joining on dst_ip and filtering later.
        hash_rels = self.hash_keys(other, attr_rels)

        joined_rows: List[Row] = []

        if hash_rels:
            left_refs = []
            right_refs = []
            for rel in hash_rels:
                left_ref, right_ref = rel.left, rel.right
                if left_ref.pattern not in self._column:
                    left_ref, right_ref = right_ref, left_ref
                left_refs.append(left_ref)
                right_refs.append(right_ref)
            left_key = _key_fn(
                [self._field_getter(ref, entity_of) for ref in left_refs],
                left_refs,
            )
            handle_getters = (
                [
                    other._scan.field_getter(ref, entity_of)
                    for ref in right_refs
                ]
                if other._rows is None
                and hasattr(other._scan, "field_getter")
                else []
            )
            if handle_getters and all(g is not None for g in handle_getters):
                # Columnar build side: keys come straight off the block
                # columns (entity attributes memoized per distinct id), and
                # only build rows a probe key actually hits are ever
                # materialized into SystemEvent objects.
                handle_key = _key_fn(handle_getters, right_refs)
                handle_buckets: Dict[object, list] = defaultdict(list)
                for handle in other._scan.handles():
                    handle_buckets[handle_key(handle)].append(handle)
                event_of = other._scan.event_of
                for row in self.rows:
                    for handle in handle_buckets.get(left_key(row), ()):
                        joined_rows.append(combine(row, (event_of(handle),)))
            else:
                right_key = _key_fn(
                    [other._field_getter(ref, entity_of) for ref in right_refs],
                    right_refs,
                )
                buckets: Dict[object, List[Row]] = defaultdict(list)
                for other_row in other.rows:
                    buckets[right_key(other_row)].append(other_row)
                for row in self.rows:
                    for match in buckets.get(left_key(row), ()):
                        joined_rows.append(combine(row, match))
        else:
            for left_row in self.rows:
                for right_row in other.rows:
                    joined_rows.append(combine(left_row, right_row))

        result = TupleSet(patterns=combined_patterns, rows=joined_rows)
        residual_attr = [r for r in attr_rels if r not in hash_rels]
        return result.filter(residual_attr, temp_rels, entity_of)

    def hash_keys(
        self, other: "TupleSet", attr_rels: Sequence[ResolvedAttrRel]
    ) -> List[ResolvedAttrRel]:
        """The relationships a join with ``other`` hashes on: every
        equality among ``attr_rels`` with one side in each set."""
        mine, theirs = self._column, other._column
        return [
            rel
            for rel in attr_rels
            if rel.is_equality
            and (
                (rel.left.pattern in mine and rel.right.pattern in theirs)
                or (rel.right.pattern in mine and rel.left.pattern in theirs)
            )
        ]

    def cross(self, other: "TupleSet") -> "TupleSet":
        """Unfiltered cartesian product (Algorithm 1 step 5 merges)."""
        return self.join(other, (), (), lambda _id: None)
