"""Semantic analysis: AST -> executable QueryContext (paper Fig. 2).

"A query context is an object abstraction of the input query that contains
all the required information for the query execution."  Compilation

* resolves the context-aware shortcuts (:mod:`repro.lang.inference`),
* validates attribute names per entity type and operation/object-type
  compatibility,
* compiles entity/event constraints into storage-layer predicate trees,
* extracts the spatial (agent) and temporal (window) constraints used for
  partition pruning and shard routing,
* resolves relationships, returns, group-by, having, sort and top clauses
  into index-based references the engine can execute without the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lang import ast
from repro.lang.errors import AIQLSemanticError
from repro.lang.expr import max_history_depth, referenced_names
from repro.lang.inference import entity_occurrences, infer_multievent
from repro.model.entities import (
    ATTRIBUTES_BY_TYPE,
    Entity,
    EntityType,
    normalize_attribute,
)
from repro.model.events import (
    EVENT_ATTRIBUTES,
    OPERATIONS_BY_OBJECT,
    EventType,
    Operation,
    SystemEvent,
    event_type_of,
)
from repro.model.time import TimeParseError, TimeWindow, parse_datetime
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
    conjoin,
    top_level_equalities,
)
from repro.storage.kernels import ScanKernel, compile_filter

# ---------------------------------------------------------------------------
# resolved references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldRef:
    """A value location inside one matched tuple: pattern + role + attr."""

    pattern: int
    role: str  # 'subject' | 'object' | 'event'
    attr: str

    def extract(self, event: SystemEvent, entity_of) -> object:
        """Pull this field's value from a matched event.

        ``entity_of`` maps entity id -> :class:`Entity` (the registry).
        ``attr`` is canonical after semantic analysis, so the entity lookup
        is a plain field access (hot path: executed once per join-row
        comparison).
        """
        if self.role == "event":
            return event.attribute(self.attr)
        entity_id = (
            event.subject_id if self.role == "subject" else event.object_id
        )
        if self.attr == "id":
            return entity_id  # the registry id is the event's own field
        entity: Entity = entity_of(entity_id)
        return getattr(entity, self.attr)


@dataclass(frozen=True)
class ResolvedAttrRel:
    left: FieldRef
    op: str
    right: FieldRef

    @property
    def is_equality(self) -> bool:
        return self.op == "="


@dataclass(frozen=True)
class ResolvedTempRel:
    left: int
    kind: str  # 'before' | 'after' | 'within'
    right: int
    low: Optional[float] = None
    high: Optional[float] = None

    def check(self, left_event: SystemEvent, right_event: SystemEvent) -> bool:
        gap = right_event.start_time - left_event.start_time
        if self.kind == "before":
            if gap <= 0:
                return False
        elif self.kind == "after":
            gap = -gap
            if gap <= 0:
                return False
        elif self.kind == "within":
            gap = abs(gap)
        else:  # pragma: no cover - parser restricts kinds
            raise AssertionError(self.kind)
        if self.low is not None and gap < self.low:
            return False
        if self.high is not None and gap > self.high:
            return False
        return True


@dataclass(frozen=True)
class ResolvedReturnItem:
    label: str
    ref: FieldRef
    func: Optional[str] = None  # count/avg/sum/min/max for aggregates
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.func is not None


@dataclass(frozen=True)
class PatternContext:
    """Everything the engine needs about one event pattern.

    The pattern owns the scan kernel of its filter
    (:attr:`kernel`), compiled on first use and kept for the life of the
    plan: every scan of the pattern runs it with that scan's window and id
    sets, however the scheduler narrowed them.
    """

    index: int
    event_name: str
    subject_name: str
    object_name: str
    object_type: EntityType
    filter: EventFilter

    @property
    def kernel(self) -> ScanKernel:
        """The compiled static part of :attr:`filter` (not a field: equal
        patterns compare equal whether or not theirs is compiled yet)."""
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = compile_filter(self.filter)
            object.__setattr__(self, "_kernel", kernel)
        return kernel

    def with_filter(self, flt: EventFilter, same_kernel: bool) -> "PatternContext":
        """This pattern over ``flt``.  ``same_kernel``: ``flt`` differs
        from :attr:`filter` only in its window, which a kernel takes at
        scan time, so the new pattern shares this one's kernel."""
        pattern = replace(self, filter=flt)
        if same_kernel:
            object.__setattr__(pattern, "_kernel", self.kernel)
        return pattern

    @property
    def event_type(self) -> EventType:
        return event_type_of(self.object_type)

    @property
    def score(self) -> int:
        """Pruning score = number of constraints (paper Sec. 5.2)."""
        return self.filter.constraint_count()


@dataclass(frozen=True)
class QueryContext:
    """Executable form of a query (multievent or anomaly).

    Frozen, and holds only what execution reads — not the syntax tree it
    was compiled from: the plan cache keeps contexts for the life of the
    process and shares them between threads.
    """

    kind: str  # 'multievent' | 'anomaly'
    patterns: Tuple[PatternContext, ...]
    attr_relationships: Tuple[ResolvedAttrRel, ...]
    temp_relationships: Tuple[ResolvedTempRel, ...]
    return_items: Tuple[ResolvedReturnItem, ...]
    return_count: bool = False
    return_distinct: bool = False
    group_by: Tuple[ResolvedReturnItem, ...] = ()
    having: Optional[ast.ExprNode] = None
    sort: Optional[ast.SortSpec] = None
    top: Optional[int] = None
    window: TimeWindow = field(default_factory=TimeWindow)
    agent_ids: Optional[FrozenSet[int]] = None
    sliding: Optional[ast.SlidingWindowSpec] = None

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(item.label for item in self.return_items)


# ---------------------------------------------------------------------------
# constraint compilation
# ---------------------------------------------------------------------------


def _validate_entity_attr(etype: EntityType, attr: str) -> str:
    canonical = normalize_attribute(etype, attr)
    if canonical not in ATTRIBUTES_BY_TYPE[etype]:
        raise AIQLSemanticError(
            f"{etype.value} entities have no attribute {attr!r}",
            hint=f"valid attributes: {', '.join(ATTRIBUTES_BY_TYPE[etype])}",
        )
    return canonical


def _validate_event_attr(attr: str) -> str:
    canonical = attr.strip().lower()
    if canonical not in EVENT_ATTRIBUTES:
        raise AIQLSemanticError(
            f"events have no attribute {attr!r}",
            hint=f"valid attributes: {', '.join(EVENT_ATTRIBUTES)}",
        )
    return canonical


def compile_cstr(node: Optional[ast.CstrNode], etype: Optional[EntityType]):
    """Compile an AST constraint tree to a storage predicate tree.

    ``etype`` selects entity-attribute validation; ``None`` means event
    attributes.
    """
    if node is None:
        return None
    if isinstance(node, ast.CstrLeaf):
        comparison = node.comparison
        if comparison.attr is None:
            raise AIQLSemanticError(
                "constraint with uninferred attribute reached the compiler"
            )
        if etype is not None:
            attr = _validate_entity_attr(etype, comparison.attr)
        else:
            attr = _validate_event_attr(comparison.attr)
        return PredicateLeaf(
            AttrPredicate(attr=attr, op=comparison.op, value=comparison.value)
        )
    if isinstance(node, ast.CstrNot):
        return PredicateNot(compile_cstr(node.child, etype))
    if isinstance(node, ast.CstrAnd):
        return PredicateAnd(
            (compile_cstr(node.left, etype), compile_cstr(node.right, etype))
        )
    if isinstance(node, ast.CstrOr):
        return PredicateOr(
            (compile_cstr(node.left, etype), compile_cstr(node.right, etype))
        )
    raise AssertionError(node)


def compile_operations(
    node: ast.OpNode, object_type: EntityType
) -> Optional[FrozenSet[Operation]]:
    """Evaluate an operation expression into the set of matching operations.

    Returns ``None`` when every operation matches (no constraint).  Raises
    when the expression matches nothing, or nothing legal for the object's
    entity type.
    """

    def matches(op: Operation, n: ast.OpNode) -> bool:
        if isinstance(n, ast.OpLeaf):
            return Operation.parse(n.name) is op
        if isinstance(n, ast.OpNot):
            return not matches(op, n.child)
        if isinstance(n, ast.OpAnd):
            return matches(op, n.left) and matches(op, n.right)
        if isinstance(n, ast.OpOr):
            return matches(op, n.left) or matches(op, n.right)
        raise AssertionError(n)

    matched = frozenset(op for op in Operation if matches(op, node))
    if not matched:
        raise AIQLSemanticError("operation expression matches no operation")
    if object_type is EntityType.NETWORK and Operation.START in matched:
        # The paper writes ``proc p3 start ip ipp`` (Query 1) for a process
        # initiating a connection; normalize to ``connect``.
        matched = (matched - {Operation.START}) | {Operation.CONNECT}
    legal = matched & OPERATIONS_BY_OBJECT[object_type]
    if not legal:
        ops = ", ".join(sorted(op.value for op in matched))
        raise AIQLSemanticError(
            f"operations [{ops}] are invalid for {object_type.value} objects"
        )
    if legal == OPERATIONS_BY_OBJECT[object_type]:
        # Still keep the set: the filter must reject operations of other
        # object types sharing the heap only via object_type, which the
        # filter also carries; no extra constraint needed.
        return legal
    return legal


def time_window(
    kind: str, start_text: str, end_text: Optional[str] = None
) -> TimeWindow:
    """The window an ``(at "D")`` (``kind == "at"``) or ``(from "A" to "B")``
    literal names.

    The one conversion of a window literal, shared by the compiler and by
    plan-template binding (:mod:`repro.lang.slots`), so both raise the same
    :class:`AIQLSemanticError` — naming the literal — for a datetime that
    does not parse or a range that ends before it starts.
    """
    try:
        if kind == "at":
            return TimeWindow.at_day(start_text)
        start = parse_datetime(start_text)
        end = parse_datetime(end_text or "")
    except TimeParseError as exc:
        raise AIQLSemanticError(
            f"time window {_window_literal(kind, start_text, end_text)}: {exc}"
        ) from None
    if end < start:
        raise AIQLSemanticError(
            f"time window {_window_literal(kind, start_text, end_text)} "
            "ends before it starts"
        )
    return TimeWindow(start=start, end=end)


def _window_literal(kind: str, start_text: str, end_text: Optional[str]) -> str:
    if kind == "at":
        return f'(at "{start_text}")'
    return f'(from "{start_text}" to "{end_text}")'


def _window_from_spec(spec: Optional[ast.TimeWindowSpec]) -> TimeWindow:
    if spec is None:
        return TimeWindow()
    return time_window(spec.kind, spec.start_text, spec.end_text)


def _agent_id(value: object) -> int:
    try:
        return int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError):
        raise AIQLSemanticError(f"agent id {value!r} is not an integer") from None


def _extract_agent_ids(pred) -> Optional[FrozenSet[int]]:
    """Agent ids implied by top-level agent_id equality predicates."""
    ids: Optional[FrozenSet[int]] = None
    for leaf in top_level_equalities(pred):
        if leaf.attr != "agent_id":
            continue
        if leaf.op == "=" and not leaf.is_like:
            found = frozenset({_agent_id(leaf.value)})
        elif leaf.op == "in":
            found = frozenset(_agent_id(v) for v in leaf.value)  # type: ignore[union-attr]
        else:
            continue
        ids = found if ids is None else (ids & found)
    return ids


def _merge_agent_ids(
    *sets: Optional[FrozenSet[int]],
) -> Optional[FrozenSet[int]]:
    merged: Optional[FrozenSet[int]] = None
    for ids in sets:
        if ids is None:
            continue
        merged = ids if merged is None else (merged & ids)
    return merged


# ---------------------------------------------------------------------------
# global constraints
# ---------------------------------------------------------------------------


@dataclass
class _Globals:
    window: TimeWindow
    agent_ids: Optional[FrozenSet[int]]
    event_pred: Optional[object]
    sliding: Optional[ast.SlidingWindowSpec]


def _compile_globals(items: Sequence[ast.GlobalItem]) -> _Globals:
    window = TimeWindow()
    agent_ids: Optional[FrozenSet[int]] = None
    event_preds: List[object] = []
    sliding: Optional[ast.SlidingWindowSpec] = None
    for item in items:
        if isinstance(item, ast.TimeWindowSpec):
            window = window.intersect(_window_from_spec(item))
        elif isinstance(item, ast.SlidingWindowSpec):
            sliding = item
        elif isinstance(item, ast.GlobalConstraint):
            comparison = item.comparison
            attr = normalize_attribute(None, comparison.attr or "")
            if attr == "agent_id" and comparison.op in ("=", "in"):
                if comparison.op == "=":
                    ids = frozenset({_agent_id(comparison.value)})
                else:
                    ids = frozenset(_agent_id(v) for v in comparison.value)  # type: ignore[union-attr]
                agent_ids = _merge_agent_ids(agent_ids, ids)
            else:
                canonical = _validate_event_attr(comparison.attr or "")
                event_preds.append(
                    PredicateLeaf(
                        AttrPredicate(
                            attr=canonical, op=comparison.op, value=comparison.value
                        )
                    )
                )
        else:  # pragma: no cover
            raise AssertionError(item)
    return _Globals(
        window=window,
        agent_ids=agent_ids,
        event_pred=conjoin(event_preds),
        sliding=sliding,
    )


# ---------------------------------------------------------------------------
# multievent compilation
# ---------------------------------------------------------------------------


def compile_multievent(query: ast.MultieventQuery) -> QueryContext:
    """Compile a (possibly shortcut-laden) multievent query."""
    inferred = infer_multievent(query)
    globals_ = _compile_globals(inferred.globals)
    occurrences = entity_occurrences(inferred)

    patterns: List[PatternContext] = []
    event_names: Dict[str, int] = {}
    for idx, pattern in enumerate(inferred.patterns):
        subject_type = EntityType.parse(pattern.subject.type_name)
        if subject_type is not EntityType.PROCESS:
            raise AIQLSemanticError(
                f"event subjects must be processes, got "
                f"{subject_type.value!r} in pattern {idx + 1}"
            )
        object_type = EntityType.parse(pattern.object.type_name)
        subject_pred = compile_cstr(pattern.subject.constraints, subject_type)
        object_pred = compile_cstr(pattern.object.constraints, object_type)
        event_pred = conjoin(
            [
                compile_cstr(pattern.event_constraints, None),
                globals_.event_pred,
            ]
        )
        operations = compile_operations(pattern.operation, object_type)
        window = globals_.window.intersect(_window_from_spec(pattern.window))
        agent_ids = _merge_agent_ids(
            globals_.agent_ids,
            _extract_agent_ids(subject_pred),
            _extract_agent_ids(object_pred),
        )
        flt = EventFilter(
            agent_ids=agent_ids,
            window=window,
            operations=operations,
            object_type=object_type,
            subject_pred=subject_pred,
            object_pred=object_pred,
            event_pred=event_pred,
        )
        assert pattern.event_id is not None
        if pattern.event_id in event_names:
            raise AIQLSemanticError(
                f"event id {pattern.event_id!r} used by two patterns"
            )
        event_names[pattern.event_id] = idx
        patterns.append(
            PatternContext(
                index=idx,
                event_name=pattern.event_id,
                subject_name=pattern.subject.entity_id or "",
                object_name=pattern.object.entity_id or "",
                object_type=object_type,
                filter=flt,
            )
        )

    entity_types = {
        name: (
            EntityType.PROCESS
            if occ[0][1] == "subject"
            else EntityType.parse(
                inferred.patterns[occ[0][0]].object.type_name
            )
        )
        for name, occ in occurrences.items()
    }

    attr_rels: List[ResolvedAttrRel] = []
    temp_rels: List[ResolvedTempRel] = []

    # implicit joins from entity ID reuse (Sec. 4.1)
    for name, occ in occurrences.items():
        first = occ[0]
        for other in occ[1:]:
            if other[0] == first[0]:
                continue  # same pattern (e.g. ``proc p start proc p``? skip)
            attr_rels.append(
                ResolvedAttrRel(
                    left=FieldRef(first[0], first[1], "id"),
                    op="=",
                    right=FieldRef(other[0], other[1], "id"),
                )
            )

    def resolve_entity_ref(name: str, attr: str) -> FieldRef:
        occ = occurrences.get(name)
        if occ is None:
            raise AIQLSemanticError(f"unknown entity id {name!r}")
        pattern_idx, role = occ[0]
        etype = entity_types[name]
        return FieldRef(pattern_idx, role, _validate_entity_attr(etype, attr))

    for rel in inferred.relationships:
        if isinstance(rel, ast.AttrRel):
            attr_rels.append(
                ResolvedAttrRel(
                    left=resolve_entity_ref(rel.left_id, rel.left_attr or "id"),
                    op=rel.op,
                    right=resolve_entity_ref(rel.right_id, rel.right_attr or "id"),
                )
            )
        else:
            if rel.left_event not in event_names:
                raise AIQLSemanticError(f"unknown event id {rel.left_event!r}")
            if rel.right_event not in event_names:
                raise AIQLSemanticError(f"unknown event id {rel.right_event!r}")
            temp_rels.append(
                ResolvedTempRel(
                    left=event_names[rel.left_event],
                    kind=rel.kind,
                    right=event_names[rel.right_event],
                    low=rel.low,
                    high=rel.high,
                )
            )

    def resolve_res(res: ast.ResExpr, label: str) -> ResolvedReturnItem:
        if isinstance(res, ast.ResAgg):
            inner = _resolve_res_attr(res.arg)
            return ResolvedReturnItem(
                label=label, ref=inner, func=res.func, distinct=res.distinct
            )
        return ResolvedReturnItem(label=label, ref=_resolve_res_attr(res))

    def _resolve_res_attr(res: ast.ResAttr) -> FieldRef:
        if res.ref in occurrences:
            return resolve_entity_ref(res.ref, res.attr or "id")
        if res.ref in event_names:
            if res.attr is None:
                raise AIQLSemanticError(
                    f"event reference {res.ref!r} needs an explicit attribute"
                )
            return FieldRef(
                event_names[res.ref], "event", _validate_event_attr(res.attr)
            )
        raise AIQLSemanticError(f"unknown id {res.ref!r} in return/group clause")

    return_items = tuple(
        resolve_res(item.expr, item.rename or f"col{i}")
        for i, item in enumerate(inferred.returns.items)
    )
    group_items = tuple(
        resolve_res(res, f"group{i}")
        for i, res in enumerate(inferred.filters.group_by)
    )

    labels = {item.label for item in return_items}
    if inferred.filters.having is not None:
        for name in referenced_names(inferred.filters.having):
            if name not in labels:
                raise AIQLSemanticError(
                    f"having clause references unknown result {name!r}",
                    hint="name results with 'as' in the return clause",
                )
    if inferred.filters.sort is not None:
        for attr in inferred.filters.sort.attrs:
            if attr not in labels:
                raise AIQLSemanticError(
                    f"sort by references unknown result {attr!r}"
                )

    sliding = globals_.sliding
    if sliding is None and inferred.filters.having is not None:
        if max_history_depth(inferred.filters.having) > 0:
            raise AIQLSemanticError(
                "history states (e.g. freq[1]) require a sliding window",
                hint="add 'window = ...' and 'step = ...' global constraints",
            )
    if sliding is not None and not globals_.window.is_bounded():
        raise AIQLSemanticError(
            "anomaly queries require a bounded global time window"
        )

    return QueryContext(
        kind="anomaly" if sliding is not None else "multievent",
        patterns=tuple(patterns),
        attr_relationships=tuple(attr_rels),
        temp_relationships=tuple(temp_rels),
        return_items=return_items,
        return_count=inferred.returns.count,
        return_distinct=inferred.returns.distinct,
        group_by=group_items,
        having=inferred.filters.having,
        sort=inferred.filters.sort,
        top=inferred.filters.top,
        window=globals_.window,
        agent_ids=globals_.agent_ids,
        sliding=sliding,
    )
