"""Predicate representation shared by the storage layer and the engine.

A *data query* (one per event pattern, paper Sec. 5.1) compiles down to an
:class:`EventFilter`: attribute predicates on the subject entity, the object
entity and the event itself, plus spatial (agent) and temporal (time window)
constraints.  The storage layer uses the filter both for partition pruning
and for index selection.

String equality against a value containing ``%`` follows SQL LIKE semantics,
matching the paper's queries (``proc p2["%telnet%"]``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, FrozenSet, Optional, Sequence, Tuple

from repro.model.entities import Entity, EntityType
from repro.model.events import Operation, SystemEvent
from repro.model.time import TimeWindow

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=", "in", "not in")


@lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%`` wildcard) to a regex.

    Memoized: a LIKE predicate is evaluated once per candidate event, and
    recompiling the regex per row dominated LIKE-heavy scans.  The cache is
    shared process-wide (patterns are plain strings) and LRU-bounded.
    """
    parts = [re.escape(part) for part in pattern.split("%")]
    return re.compile("^" + ".*".join(parts) + "$", re.IGNORECASE)


def _coerce(actual: object, expected: object) -> object:
    """Coerce ``expected`` towards the runtime type of ``actual``.

    Query literals are untyped; comparing the string ``"4444"`` against an
    integer port must behave like a numeric comparison.
    """
    if isinstance(actual, (int, float)) and isinstance(expected, str):
        try:
            return type(actual)(expected)
        except ValueError:
            return expected
    if isinstance(actual, str) and isinstance(expected, (int, float)):
        return str(expected)
    return expected


@dataclass(frozen=True)
class AttrPredicate:
    """One comparison ``attr <op> value`` (or ``attr in (v1, v2, ...)``)."""

    attr: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")

    def _membership(self, actual: object) -> bool:
        # Scans run on pool workers; memoize via locals and publish the
        # types set before the value set (readers key off _norm_set), so a
        # concurrent reader never sees a half-initialized memo.
        normalized = getattr(self, "_norm_set", None)
        norm_types = getattr(self, "_norm_types", None)
        if normalized is None or norm_types is None:
            normalized = frozenset(
                v.lower() if isinstance(v, str) else v for v in self.value  # type: ignore[union-attr]
            )
            norm_types = frozenset(type(v) for v in normalized)
            object.__setattr__(self, "_norm_types", norm_types)
            object.__setattr__(self, "_norm_set", normalized)
        key = actual.lower() if isinstance(actual, str) else actual
        if key in normalized:
            return True
        if type(key) in norm_types:
            return False
        # fall back only for cross-type comparisons ('4444' vs 4444)
        return any(_equals(actual, v) for v in self.value)  # type: ignore[union-attr]

    @property
    def is_like(self) -> bool:
        return (
            self.op in ("=", "!=")
            and isinstance(self.value, str)
            and "%" in self.value
        )

    def matches(self, actual: object) -> bool:
        if self.op in ("in", "not in"):
            assert isinstance(self.value, (tuple, list, frozenset, set))
            # Scheduler-injected IN lists can hold thousands of join values;
            # use a memoized normalized set instead of a linear scan.
            member = self._membership(actual)
            return member if self.op == "in" else not member
        if self.is_like:
            ok = bool(like_to_regex(str(self.value)).match(str(actual)))
            return ok if self.op == "=" else not ok
        expected = _coerce(actual, self.value)
        if self.op == "=":
            return _equals(actual, expected)
        if self.op == "!=":
            return not _equals(actual, expected)
        try:
            if self.op == "<":
                return actual < expected  # type: ignore[operator]
            if self.op == "<=":
                return actual <= expected  # type: ignore[operator]
            if self.op == ">":
                return actual > expected  # type: ignore[operator]
            if self.op == ">=":
                return actual >= expected  # type: ignore[operator]
        except TypeError:
            return False
        raise AssertionError(self.op)


def _equals(actual: object, expected: object) -> bool:
    expected = _coerce(actual, expected)
    if isinstance(actual, str) and isinstance(expected, str):
        return actual.lower() == expected.lower()
    return actual == expected


# A compiled boolean combination of attribute predicates. Evaluated against
# an attribute-lookup function (entity.attribute / event.attribute).
PredicateFn = Callable[[Callable[[str], object]], bool]


@dataclass(frozen=True)
class PredicateLeaf:
    pred: AttrPredicate

    def evaluate(self, lookup: Callable[[str], object]) -> bool:
        try:
            actual = lookup(self.pred.attr)
        except AttributeError:
            return False
        return self.pred.matches(actual)

    def leaves(self) -> Tuple[AttrPredicate, ...]:
        return (self.pred,)

    def constraint_count(self) -> int:
        return 1


@dataclass(frozen=True)
class PredicateNot:
    child: "PredicateNode"

    def evaluate(self, lookup: Callable[[str], object]) -> bool:
        return not self.child.evaluate(lookup)

    def leaves(self) -> Tuple[AttrPredicate, ...]:
        return self.child.leaves()

    def constraint_count(self) -> int:
        return self.child.constraint_count()


@dataclass(frozen=True)
class PredicateAnd:
    children: Tuple["PredicateNode", ...]

    def evaluate(self, lookup: Callable[[str], object]) -> bool:
        return all(child.evaluate(lookup) for child in self.children)

    def leaves(self) -> Tuple[AttrPredicate, ...]:
        return tuple(p for child in self.children for p in child.leaves())

    def constraint_count(self) -> int:
        return sum(child.constraint_count() for child in self.children)


@dataclass(frozen=True)
class PredicateOr:
    children: Tuple["PredicateNode", ...]

    def evaluate(self, lookup: Callable[[str], object]) -> bool:
        return any(child.evaluate(lookup) for child in self.children)

    def leaves(self) -> Tuple[AttrPredicate, ...]:
        return tuple(p for child in self.children for p in child.leaves())

    def constraint_count(self) -> int:
        return sum(child.constraint_count() for child in self.children)


PredicateNode = object  # union of the four classes above


def conjoin(nodes: Sequence[PredicateNode]) -> Optional[PredicateNode]:
    """AND together predicate nodes, dropping Nones."""
    parts = tuple(n for n in nodes if n is not None)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return PredicateAnd(parts)


def top_level_equalities(node: Optional[PredicateNode]) -> Tuple[AttrPredicate, ...]:
    """Equality/IN predicates that must hold for the whole node to hold.

    These are safe to use for index lookups: a leaf under an OR or NOT is
    not necessary, but a leaf at the top of an AND chain is.  LIKE patterns
    are included (indexes scan their keyspace for them).
    """
    if node is None:
        return ()
    if isinstance(node, PredicateLeaf):
        return (node.pred,) if node.pred.op in ("=", "in") else ()
    if isinstance(node, PredicateAnd):
        return tuple(
            p for child in node.children for p in top_level_equalities(child)
        )
    return ()


# Case may only be folded where matching is case-insensitive: =/!= and
# membership go through _equals/_norm_set (lower-cased), but the ordered
# comparisons use raw string ordering.
_CASE_INSENSITIVE_OPS = frozenset({"=", "!=", "in", "not in"})


def canonical_value(value: object, fold_case: bool = True) -> object:
    """Hashable canonical form of a predicate comparison value.

    With ``fold_case`` strings fold to lower case (for the operators whose
    matching is case-insensitive); collections become sorted tuples so
    ``in`` lists compare independently of element order and container type.
    """
    if isinstance(value, str):
        return value.lower() if fold_case else value
    if isinstance(value, (tuple, list, set, frozenset)):
        return tuple(
            sorted((canonical_value(v, fold_case) for v in value), key=repr)
        )
    return value


def canonical_predicate(node: Optional[PredicateNode]) -> Optional[tuple]:
    """Hashable canonical form of a predicate tree.

    AND/OR children are sorted (conjunction and disjunction commute), so
    two filters built from the same constraints in different orders share
    one fingerprint.
    """
    if node is None:
        return None
    if isinstance(node, PredicateLeaf):
        pred = node.pred
        fold = pred.op in _CASE_INSENSITIVE_OPS
        return ("leaf", pred.attr, pred.op, canonical_value(pred.value, fold))
    if isinstance(node, PredicateNot):
        return ("not", canonical_predicate(node.child))
    assert isinstance(node, (PredicateAnd, PredicateOr))
    tag = "and" if isinstance(node, PredicateAnd) else "or"
    children = sorted(
        (canonical_predicate(child) for child in node.children), key=repr
    )
    return (tag, tuple(children))


def filter_fingerprint(flt: "EventFilter") -> tuple:
    """A hashable key identifying what ``flt`` matches.

    Two filters with equal fingerprints select the same events from the
    same table: every field that influences matching is included, in a
    canonical order-independent form.  The cold tier keys its
    per-segment selection cache on it.
    """
    return (
        tuple(sorted(flt.agent_ids)) if flt.agent_ids is not None else None,
        (flt.window.start, flt.window.end),
        tuple(sorted(op.value for op in flt.operations))
        if flt.operations is not None
        else None,
        flt.object_type.value if flt.object_type is not None else None,
        canonical_predicate(flt.subject_pred),
        canonical_predicate(flt.object_pred),
        canonical_predicate(flt.event_pred),
        tuple(sorted(flt.subject_ids)) if flt.subject_ids is not None else None,
        tuple(sorted(flt.object_ids)) if flt.object_ids is not None else None,
    )


@dataclass(frozen=True)
class EventFilter:
    """Everything a single data query constrains.

    ``subject_ids`` / ``object_ids`` / ``event_ids`` are narrowing sets
    injected by the scheduler when it executes a data query *constrained by*
    the results of a previously-executed pattern (Algorithm 1's
    ``S_j <-execute- (S_i) q_j``).
    """

    agent_ids: Optional[FrozenSet[int]] = None
    window: TimeWindow = field(default_factory=TimeWindow)
    operations: Optional[FrozenSet[Operation]] = None
    object_type: Optional[EntityType] = None
    subject_pred: Optional[PredicateNode] = None
    object_pred: Optional[PredicateNode] = None
    event_pred: Optional[PredicateNode] = None
    subject_ids: Optional[FrozenSet[int]] = None
    object_ids: Optional[FrozenSet[int]] = None

    def constraint_count(self) -> int:
        """Number of constraints — the scheduler's pruning score (Sec. 5.2)."""
        count = 0
        if self.agent_ids is not None:
            count += 1
        if self.window.start is not None or self.window.end is not None:
            count += 1
        if self.operations is not None:
            count += 1
        if self.object_type is not None:
            count += 1
        for node in (self.subject_pred, self.object_pred, self.event_pred):
            if node is not None:
                count += node.constraint_count()
        return count

    def narrowed(
        self,
        subject_ids: Optional[FrozenSet[int]] = None,
        object_ids: Optional[FrozenSet[int]] = None,
        window: Optional[TimeWindow] = None,
    ) -> "EventFilter":
        """A copy narrowed by scheduler-provided id sets / time bounds."""
        changes: dict = {}
        if subject_ids is not None:
            changes["subject_ids"] = (
                subject_ids
                if self.subject_ids is None
                else self.subject_ids & subject_ids
            )
        if object_ids is not None:
            changes["object_ids"] = (
                object_ids
                if self.object_ids is None
                else self.object_ids & object_ids
            )
        if window is not None:
            changes["window"] = self.window.intersect(window)
        return replace(self, **changes) if changes else self

    def matches(
        self,
        event: SystemEvent,
        subject: Entity,
        obj: Entity,
    ) -> bool:
        """Full check of an event (with resolved entities) against the filter."""
        if self.agent_ids is not None and event.agent_id not in self.agent_ids:
            return False
        if not self.window.contains(event.start_time):
            return False
        if self.operations is not None and event.operation not in self.operations:
            return False
        if self.object_type is not None and event.object_type is not self.object_type:
            return False
        if self.subject_ids is not None and event.subject_id not in self.subject_ids:
            return False
        if self.object_ids is not None and event.object_id not in self.object_ids:
            return False
        if self.subject_pred is not None and not self.subject_pred.evaluate(
            subject.attribute
        ):
            return False
        if self.object_pred is not None and not self.object_pred.evaluate(
            obj.attribute
        ):
            return False
        if self.event_pred is not None and not self.event_pred.evaluate(
            event.attribute
        ):
            return False
        return True
